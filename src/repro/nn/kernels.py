"""Stateless raw-NumPy window primitives behind the compiled conv lowering.

:func:`conv_output_size` is the spatial size of a conv/pool window sweep.
:func:`window_view` is the one ``as_strided`` construction of the
lowering: a ``(N, C, k, k, out_h, span)`` view of a frame whose channels
are laid out row-major.  The conv's forward copies its columns out
through such a view; at stride > 1 its backward scatter-adds the input
gradient back through a writeable one (the col2im itself lives in
:class:`repro.nn.plan._ConvOp`, whose add pairs are bound at compile
time).  The buffer-bound execution lives in :mod:`repro.nn.plan`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["window_view", "conv_output_size"]


def conv_output_size(size: int, kernel: int, stride: int, padding: int = 0) -> int:
    """Spatial output size of a conv/pool window sweep."""
    return (size + 2 * padding - kernel) // stride + 1


def window_view(
    frame: np.ndarray,
    kernel: int,
    stride: int,
    out_h: int,
    span: int,
    row: int,
    writeable: bool = False,
) -> np.ndarray:
    """``(N, C, kernel, kernel, out_h, span)`` window view of ``frame``.

    ``frame`` is ``(N, C, ...)`` with each channel's pixels contiguous and
    row-major, ``row`` elements per image row.  Element ``[n, c, i, j, r,
    q]`` is pixel ``(r·stride + i, q·stride + j)`` of that channel, read
    through the flat channel: with ``stride == 1`` and ``span == row``,
    each ``[n, c, i, j]`` slab is one contiguous run of ``out_h·row``
    elements starting at ``i·row + j``, and the positions past the valid
    output width in each row wrap into the next row.  The caller sizes
    ``frame`` so every position it reads stays in bounds.  Within one slab
    the positions are distinct, so a writeable view takes slab-wise ``+=``.
    """
    item = frame.itemsize
    return np.lib.stride_tricks.as_strided(
        frame,
        shape=frame.shape[:2] + (kernel, kernel, out_h, span),
        strides=frame.strides[:2] + (row * item, item, stride * row * item, stride * item),
        writeable=writeable,
    )

