"""Shared raw-NumPy kernel primitives for the engine trilogy.

Before the plan compiler (:mod:`repro.nn.plan`) existed, the inference,
gradient and training engines each carried a private copy of the kernel
plumbing: the col2im scatter-add, the pool window views, the per-layer
closure kernels.  A conv fix had to land three times.  This module is the
single home for the stateless part of that machinery:

Window views
    :func:`window_view` is the one ``as_strided`` construction behind the
    compiled conv lowering: a ``(N, C, k, k, out_h, span)`` view of a
    frame whose channels are laid out row-major.  The conv's forward
    copies its columns out through such a view; at stride > 1 its
    backward scatter-adds the input gradient back through a writeable one
    (the col2im itself lives in :class:`repro.nn.plan._ConvOp`, whose add
    pairs are bound at compile time).

Per-call reference kernels
    :func:`build_percall_infer_kernels` reproduces the pre-plan
    InferenceEngine arithmetic exactly: one closure per layer of the plan
    vocabulary (``Dense``, ``Conv2D``, ``MaxPool2D``, ``Flatten``,
    ``ReLU``, ``Tanh``, ``Dropout``), every temporary allocated per call,
    convolution as the row-major ``cols @ w_mat.T`` over
    :func:`repro.nn.ops.im2col` patch rows.  It is the baseline the plan
    benchmark (``benchmarks/bench_plan_throughput.py``) measures against
    and a second reference implementation for the plan parity tests.

Everything here is stateless NumPy; the buffer-bound execution lives in
:mod:`repro.nn.plan`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .layers import Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU, Tanh
from .ops import im2col

__all__ = [
    "window_view",
    "conv_output_size",
    "build_percall_infer_kernels",
]


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


# -- per-call reference kernels (the pre-plan inference path) -------------------


def max_pool_forward(x: np.ndarray, size: int, stride: int) -> np.ndarray:
    """Inference max pool; fast reshape path for aligned non-overlapping windows."""
    n, c, h, w = x.shape
    if stride == size and h % size == 0 and w % size == 0:
        return x.reshape(n, c, h // size, size, w // size, size).max(axis=(3, 5))
    out_h = conv_output_size(h, size, stride)
    out_w = conv_output_size(w, size, stride)
    cols = im2col(x.reshape(n * c, 1, h, w), size, stride)
    return cols.max(axis=1).reshape(n, c, out_h, out_w)


def build_percall_infer_kernels(
    network, cast: Callable[[object], np.ndarray]
) -> list[Callable[[np.ndarray], np.ndarray]] | None:
    """The pre-plan per-call dispatch: one allocating closure per layer.

    ``cast`` maps a parameter :class:`~repro.nn.tensor.Tensor` to its
    engine-dtype array (the engines pass their staleness-checked cast
    cache).  Returns ``None`` when the network contains an unsupported
    layer type.  This path
    re-decides shapes and re-allocates every temporary on every call — it
    exists as the benchmark baseline and as an independent reference for
    the plan parity tests.
    """
    kernels = []
    for layer in network.layers:
        kernel = _percall_kernel(layer, cast)
        if kernel is None:
            return None
        kernels.append(kernel)
    return kernels


def _percall_kernel(layer, cast) -> Callable[[np.ndarray], np.ndarray] | None:
    if isinstance(layer, Dense):
        weight, bias = layer.params["weight"], layer.params["bias"]
        return lambda x: x @ cast(weight) + cast(bias)
    if isinstance(layer, Conv2D):
        return _percall_conv_kernel(layer, cast)
    if isinstance(layer, MaxPool2D):
        return lambda x: max_pool_forward(x, layer.size, layer.stride)
    if isinstance(layer, Flatten):
        return lambda x: x.reshape(len(x), int(np.prod(x.shape[1:])))
    if isinstance(layer, ReLU):
        return lambda x: np.maximum(x, 0.0, dtype=x.dtype)
    if isinstance(layer, Tanh):
        return np.tanh
    if isinstance(layer, Dropout):
        return lambda x: x  # inference-time identity
    return None


def _percall_conv_kernel(layer: Conv2D, cast) -> Callable[[np.ndarray], np.ndarray]:
    weight, bias = layer.params["weight"], layer.params["bias"]
    stride, padding, kernel = layer.stride, layer.padding, layer.kernel_size
    c_out = layer.out_channels

    def run(x: np.ndarray) -> np.ndarray:
        if padding:
            x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        n, _, h, w = x.shape
        out_h = conv_output_size(h, kernel, stride)
        out_w = conv_output_size(w, kernel, stride)
        cols = im2col(x, kernel, stride)
        w_mat = cast(weight).reshape(c_out, -1)
        out = cols @ w_mat.T + cast(bias)
        return np.ascontiguousarray(out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2))

    return run
