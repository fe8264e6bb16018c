"""Compiled execution plans: the layer stack lowered once, executed many times.

The serving-shaped hot path of this reproduction is *repeated same-shape*
work: the detector-gated fast path pays one forward per request, the
corrector fans flagged inputs into staged sample batches on the bucket
ladder, and every attack inner loop pushes identically-shaped batches
through the same network thousands of times.  Before this module, each of
the three engines re-decided shapes, re-derived im2col geometry and
re-allocated every activation on every call.

:func:`compile_plan` walks a network once for a fixed ``(batch shape,
dtype, mode)`` and emits a :class:`CompiledPlan`:

Explicit op list with arena-preallocated buffers
    Each layer lowers to one op (or fused stage, below) whose output,
    scratch and gradient buffers are allocated at compile time and reused
    on every call — steady state allocates nothing but the per-call BLAS
    work.  Results are handed back as plan-owned buffers; the engines copy
    at their public boundaries, preserving the fresh-array semantics
    callers have always had.

Fused elementwise chains
    ReLU / tanh / training dropout fold in place onto their producer's
    buffer (conv→relu is one step, one buffer), except where the backward
    pass needs the producer's values intact: in ``grad``/``train`` mode a
    tanh output is *protected* — it is needed to form its own gradient,
    so nothing may fuse over it and the chain restarts on a fresh buffer.
    ReLU stays fusable in every mode by stashing its sign mask in a
    preallocated boolean buffer.  One method, ``_Op.step``, runs an op and
    its fused stages, and decides which buffer they cover: a conv's whole
    row-padded buffer, junk columns included, except for training dropout,
    whose mask draws exactly the layer's output shape.

Geometry bound once
    Each conv owns a flat per-channel padded frame (``hp·wp`` plus a
    ``k − 1`` tail) and a window view of it, both built at compile time.
    At stride 1 column positions run over whole padded rows, ``oh·wp`` of
    them with ``wp − ow`` junk columns per row, so per image the conv
    copies a ``(C·k·k, oh·wp)`` column block in which every row is one
    contiguous run of the frame.  The column block carries one more row,
    of ones, written here once, so ``[W | b] @ [cols; 1]`` writes a ``(n,
    c_out, oh, wp)`` buffer whose ``[..., :ow]`` view is the layer's
    output: no index gather, no layout transpose, no bias pass.  The
    backward lays the output gradient into a buffer whose junk columns
    stay zero and runs ``Wᵀ @ g`` on weight rows permuted to ``(kh, kw,
    c)`` order, so at stride 1 one strided view of those columns holds
    every frame element's ``k·k`` terms and the col2im is one reduction
    per image block; the views are bound here.  Pool selection masks and
    flatten shapes are likewise resolved at compile time, keyed by the
    concrete batch shape.

Cache-sized blocks
    A conv lowers a few images at a time: each block's columns fit
    :data:`COL_BLOCK_BYTES`, so they are still in L2 when BLAS reads them,
    and the column scratch does not grow with the batch.  The matmuls are
    the same per-image calls a whole-batch lowering makes, and the train
    weight gradient adds the per-image products in image order, so no
    output changes by a bit with the block size.

Live parameters, no stale views
    Ops read parameters through the owning engine's staleness-checked cast
    cache (identity + ``Tensor.version``), so ``load_state``, in-place
    optimiser steps and ``parameters_bound`` dtype rebinding are picked up
    with no plan invalidation — a plan depends only on shapes.

Generation-checked gradient contexts
    ``grad``/``train`` forwards stamp a generation; a backward presented
    with a context from an older forward would read overwritten buffers,
    so it raises :class:`~repro.verify.guards.GuardViolation`
    (``kind="stale-context"``) instead of silently returning garbage.
    Contexts from *different* plans (different batch shapes, or different
    engines) do not invalidate each other.

Numerical parity is load-bearing and measured, not assumed, because BLAS
picks its kernels by shape.  ``matmul(out=)`` + in-place bias add is
bitwise ``x @ w + b``.  A conv's bias is instead the last of the matmul's
``C·k·k + 1`` terms; OpenBLAS sums the terms of one K block in order into
one accumulator, so ``+ b·1.0`` rounds exactly as the separate add.  That
is measured on every zoo conv shape; a K split into blocks, or an edge
kernel with split accumulators, would round it elsewhere (DESIGN.md,
"Bias as the last GEMM term").  Max pooling is an exact selection, and
its backward routes each window's gradient to the first maximal element,
as ``argmax`` would, bits and all (``-0.0`` and NaN included).  The
row-padded ``W @ cols`` hands BLAS the legacy ``cols @ w_mat.T`` product
with its operand roles swapped and, at stride 1, junk columns appended;
junk never feeds a valid output.  The input-gradient scatter adds each
frame element's terms in ``(kh, kw)`` order, as a zero-filled slab col2im
would, plus only ``±0.0`` terms from junk columns and zero tails: a sum
that starts at ``+0.0`` never holds ``-0.0``, so they change no bit.  At stride 1 that sum is one
``np.add.reduce`` from ``initial=+0.0``; where NaNs of both signs meet in
one element, its SIMD loop may keep a different NaN's sign than the slab
adds did.  Every non-NaN bit is unchanged.
On the zoo architectures (``cnn-fast``, ``cnn-fast-wide``, ``cnn-paper``)
it rounds identically, so float32 and float64 logits are bitwise equal to
the per-call reference (for ``n >= 2``, and on ``cnn-paper`` for ``n >=
DENSE_MIN_ROWS``), and on the ``-fast`` ones the float64 plan is
bit-exact with the autograd forward.  Float64 stride-2 convs with
``C·k·k = 27`` can still differ in the last bit (measured with OpenBLAS's
Haswell kernels; see ``tests/nn/test_plan.py``).  A single-row Dense runs
on a two-row buffer, since a one-row matmul takes BLAS's gemv path, and a
few-row Dense wide enough to fall onto BLAS's small-matrix kernels runs on
``DENSE_MIN_ROWS`` rows, so on every zoo architecture a row's float32
logits do not depend on its batch.  Conv weight and bias gradients come
from a different contraction order than the legacy ``grad_matᵀ @ cols``
and differ in the last bits, within the differential verifier's
budgets.
"""

from __future__ import annotations

import numpy as np

from ..verify import guards
from .kernels import conv_output_size, window_view
from .layers import Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU, Tanh

__all__ = ["CompiledPlan", "compile_plan", "unplannable", "MODES", "DEFAULT_PLAN_ENTRIES"]

MODES = ("infer", "grad", "train")

# Default capacity of the per-engine compiled-plan LRU (keyed by exact batch
# shape).  An experiment run touches a handful of shapes per engine: the full
# batch, the trailing remainder batch and single-example probes, plus the
# region votes' seven ladder spans (1, 2, 4, … 64 rows).  Eight entries
# thrashed once the votes used the whole ladder.
DEFAULT_PLAN_ENTRIES = 16

# Byte budget of one conv image block's window columns.  A whole 64-row
# batch's columns run to megabytes, past L2, so BLAS would read them back
# from memory; a block this size stays cache-resident between the copy and
# the matmul.  Chosen by measurement among 256 KiB, 512 KiB and 1 MiB.
COL_BLOCK_BYTES = 512 * 1024

# Rows a few-row Dense matmul is padded to when that takes it off BLAS's
# small-matrix kernels (see _DenseOp).
DENSE_MIN_ROWS = 8

# OpenBLAS runs a gemm of at most this many multiply-adds (M·N·K) on its
# small-matrix kernels, whose sums round differently from the blocked
# kernels' once K is a few hundred.  Measured: cnn-paper's 1568-input Dense
# takes them at n <= 4 rows and its 2048-input one at n <= 3.
SMALL_GEMM_MACS = 1_000_000

_PLANNABLE = (Dense, Conv2D, MaxPool2D, Flatten, ReLU, Tanh, Dropout)


def unplannable(network) -> list[str]:
    """Type names of the layers of ``network`` that have no compiled-plan op."""
    return [type(layer).__name__ for layer in network.layers if not isinstance(layer, _PLANNABLE)]


# -- fused elementwise stages ---------------------------------------------------
#
# A stage is an elementwise transform with ``apply(src, dst)`` (``dst`` may be
# ``src`` for in-place fusion onto the producer's buffer) and an in-place
# ``backward(grad)``.  Stages either ride as ``posts`` on a base op or get
# wrapped in an _EltOp with a buffer of their own when fusion is unsafe.


class _Stage:
    # A fused stage runs over its producer's whole buffer, junk columns of a
    # row-padded conv included, unless it must see exactly the layer's
    # output (see _Op.step).
    valid_only = False


class _ReluStage(_Stage):
    def __init__(self, layer_index: int, shape: tuple[int, ...], track_grad: bool):
        self.layer_index = layer_index
        # The sign mask is bound once; computing it from the *input* keeps
        # ReLU fusable even under a later in-place overwrite of the output.
        self.mask = np.empty(shape, dtype=bool) if track_grad else None

    def apply(self, src: np.ndarray, dst: np.ndarray) -> None:
        if self.mask is not None:
            np.greater(src, 0, out=self.mask)
        np.maximum(src, 0.0, out=dst)

    def backward(self, grad: np.ndarray) -> None:
        grad *= self.mask


class _TanhStage(_Stage):
    # Its backward reads the output values, so _build protects its output
    # in grad/train mode.

    def __init__(self, layer_index: int, track_grad: bool):
        self.layer_index = layer_index
        self.track_grad = track_grad
        self._out = None

    def apply(self, src: np.ndarray, dst: np.ndarray) -> None:
        np.tanh(src, out=dst)
        if self.track_grad:
            self._out = dst

    def backward(self, grad: np.ndarray) -> None:
        out = self._out
        grad *= 1.0 - out * out


class _DropoutTrainStage(_Stage):
    # The mask draws exactly the layer's output shape, so the plan consumes
    # the Bernoulli stream of the autograd path.
    valid_only = True

    def __init__(self, layer_index: int, layer: Dropout):
        self.layer_index = layer_index
        self.layer = layer
        self.keep = 1.0 - layer.rate
        self._mask = None

    def apply(self, src: np.ndarray, dst: np.ndarray) -> None:
        # Drawn in float64 from the layer's own generator so the plan
        # consumes the exact Bernoulli sequence of the autograd path.
        mask = ((self.layer._rng.random(src.shape) < self.keep) / self.keep).astype(src.dtype)
        np.multiply(src, mask, out=dst)
        self._mask = mask

    def backward(self, grad: np.ndarray) -> None:
        grad *= self._mask


# -- base ops -------------------------------------------------------------------


class _Op:
    """One plan step: a base computation plus in-place fused post stages.

    ``forward`` returns the buffer its posts run over and ``valid`` cuts
    the layer's output out of it; the two differ only for the row-padded
    conv, whose buffer carries junk columns.  ``widen`` is the backward
    mirror: it lays an output gradient into such a buffer.
    """

    def __init__(self, layer_index: int):
        self.layer_index = layer_index
        self.posts: list = []

    def valid(self, buf: np.ndarray) -> np.ndarray:
        return buf

    def widen(self, grad: np.ndarray) -> np.ndarray:
        return grad

    def step(self, x: np.ndarray, outs: list | None = None) -> np.ndarray:
        """Forward plus fused posts; returns the layer output.

        ``outs`` (for :meth:`CompiledPlan.layer_outputs`) collects a copy
        of the output after the base op and after each post.
        """
        buf = self.forward(x)
        out = self.valid(buf)
        if outs is not None:
            outs.append(out.copy())
        for post in self.posts:
            target = out if post.valid_only else buf
            post.apply(target, target)
            if outs is not None:
                outs.append(out.copy())
        return out

    def back_step(self, grad: np.ndarray):
        """Posts' backward in reverse, then the base op's; ``None`` when a
        train-mode first layer has no input gradient to return."""
        buf = self.widen(grad)
        for post in reversed(self.posts):
            post.backward(self.valid(buf) if post.valid_only else buf)
        return self.backward(buf)


class _PassOp(_Op):
    """Identity (inference/gradient-mode dropout): zero cost, no buffer."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad


class _ReshapeOp(_Op):
    """Flatten as a zero-copy view; shapes fixed at compile (n=0 safe)."""

    def __init__(self, layer_index: int, in_shape: tuple[int, ...], out_shape: tuple[int, ...]):
        super().__init__(layer_index)
        self.in_shape = in_shape
        self.out_shape = out_shape

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.out_shape)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self.in_shape)


class _EltOp(_Op):
    """An elementwise stage running into its own buffer (unfusable spot)."""

    def __init__(self, layer_index: int, stage, shape: tuple[int, ...], dtype):
        super().__init__(layer_index)
        self.stage = stage
        self.out = np.empty(shape, dtype=dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.stage.apply(x, self.out)
        return self.out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.stage.backward(grad)
        return grad


class _DenseOp(_Op):
    def __init__(self, layer_index, layer, n, in_features, dtype, mode, cast, accumulate, first):
        super().__init__(layer_index)
        self.weight, self.bias = layer.params["weight"], layer.params["bias"]
        self.cast = cast
        self.accumulate = accumulate
        self.mode = mode
        self.first = first
        # BLAS picks its kernel by shape, so a row's logits could depend on
        # the batch it arrives in.  A one-row matmul takes the gemv path: it
        # runs on two rows.  A few-row matmul of a wide layer takes the
        # small-matrix kernels while full batches take the blocked ones: it
        # runs on DENSE_MIN_ROWS rows when that many leave them.  Extra
        # rows are zeros, and their outputs are never read.
        rows = n
        wide = DENSE_MIN_ROWS * in_features * layer.out_features > SMALL_GEMM_MACS
        if 0 < n < DENSE_MIN_ROWS and wide:
            rows = DENSE_MIN_ROWS
        elif n == 1:
            rows = 2
        self.padded = self.padded_out = None
        if rows > n:
            self.padded = np.zeros((rows, in_features), dtype=dtype)
            self.padded_out = np.empty((rows, layer.out_features), dtype=dtype)
            self.out = self.padded_out[:n]
        else:
            self.out = np.empty((n, layer.out_features), dtype=dtype)
        skip_input_grad = mode == "train" and first
        self.gin = None
        if mode != "infer" and not skip_input_grad:
            self.gin = np.empty((n, in_features), dtype=dtype)
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.padded is None:
            np.matmul(x, self.cast(self.weight), out=self.out)
        else:
            self.padded[: len(x)] = x
            np.matmul(self.padded, self.cast(self.weight), out=self.padded_out)
        self.out += self.cast(self.bias)
        if self.mode == "train":
            self._x = x
        return self.out

    def backward(self, grad: np.ndarray):
        if self.mode == "train":
            # Fresh arrays, never persistent scratch: adversarial training
            # accumulates two train_batch calls into the same .grad, which
            # a reused buffer would alias and double-count.
            self.accumulate(self.weight, self._x.T @ grad)
            self.accumulate(self.bias, grad.sum(axis=0))
            if self.first:
                return None
        np.matmul(grad, self.cast(self.weight).T, out=self.gin)
        return self.gin


class _ConvOp(_Op):
    """Row-padded, image-blocked conv lowering, shared by all three modes.

    Each input channel lives in a flat frame: the zero-padded ``hp × wp``
    image, row-major, plus a ``k − 1`` tail.  At stride 1, column positions
    run over whole padded rows (``oh·wp``, the last ``wp − ow`` of each row
    junk), so every ``(c, i, j)`` row of the ``(C·k·k, oh·wp)`` column
    block is one contiguous run of the frame starting at ``i·wp + j``.
    Per-call work runs over image blocks sized so the block's columns fit
    :data:`COL_BLOCK_BYTES`: each block refreshes its frames, lowers into
    one block-sized ``cols`` scratch whose extra last row is ones and
    writes ``[W | b] @ cols`` into its slice of a ``(n, c_out, oh, wp)``
    buffer, so the bias is the matmul's last term; the layer's output is
    the ``[..., :ow]`` view.
    At stride > 1 the same windows span ``ow`` columns and carry no junk.
    """

    def __init__(self, layer_index, layer, n, in_shape, dtype, mode, cast, accumulate, first):
        super().__init__(layer_index)
        c, h, w = in_shape
        self.weight, self.bias = layer.params["weight"], layer.params["bias"]
        self.cast = cast
        self.accumulate = accumulate
        self.mode = mode
        self.first = first
        k, s, p = layer.kernel_size, layer.stride, layer.padding
        self.c_out, self.stride = layer.out_channels, s
        hp, wp = h + 2 * p, w + 2 * p
        self.oh = conv_output_size(hp, k, s)
        self.ow = conv_output_size(wp, k, s)
        span = wp if s == 1 else self.ow
        positions = self.oh * span
        image_bytes = c * k * k * positions * np.dtype(dtype).itemsize
        block = max(1, min(n, COL_BLOCK_BYTES // image_bytes))
        spans = [slice(a, min(a + block, n)) for a in range(0, n, block)]

        def interior(frame):
            return frame[:, :, : hp * wp].reshape(len(frame), c, hp, wp)[:, :, p : p + h, p : p + w]

        # The frame's zeroed border and tail are written once, here; only
        # the interior is refreshed per call.  The last junk column of the
        # last (i, j) run reads k - 1 elements past the padded image.
        frame_shape = (n, c, hp * wp + k - 1)
        self.frame = np.zeros(frame_shape, dtype=dtype)
        self.interior = interior(self.frame)
        self.windows = window_view(self.frame, k, s, self.oh, span, wp)
        # The column scratch carries one extra row of ones, written here and
        # never overwritten (the window copy targets the first C·k·k rows):
        # the bias rides the matmul as [W | b] @ [cols; 1], its last term.
        depth = c * k * k
        self.gemm_cols = np.empty((min(n, block), depth + 1, positions), dtype=dtype)
        self.gemm_cols[:, depth] = 1.0
        self.cols = self.gemm_cols[:, :depth]
        self.wb = np.empty((self.c_out, depth + 1), dtype=dtype)
        self.whole = np.empty((n, self.c_out, self.oh, span), dtype=dtype)
        self.out3 = self.whole.reshape(n, self.c_out, positions)
        # Per block, bound once: its rows, the frame interior it refreshes,
        # its windows, the column rows they are copied into (in the windows'
        # shape, and flat), and the matmul's operand (ones row included).
        self.blocks = []
        for rows in spans:
            b = rows.stop - rows.start
            windows = self.windows[rows]
            cols = self.cols[:b]
            self.blocks.append(
                (rows, self.interior[rows], windows, cols.reshape(windows.shape), cols, self.gemm_cols[:b])
            )
        self.gwhole = self.gcols = self.gframe = self.gin = self.wperm = self.wprods = None
        self.gblocks = []
        if mode != "infer":
            # Only the [..., :ow] view is ever written, so the junk columns
            # of the output gradient stay zero and add nothing below.
            self.gwhole = np.zeros_like(self.whole)
        if mode != "infer" and not (mode == "train" and first):
            # The input-gradient scatter.  Wᵀ @ g runs on weight rows
            # permuted to (kh, kw, c) order, so one (kh, kw) slab of all
            # channels is one stretch of gcols.  At stride 1 each channel's
            # row is a whole frame long: the matmul writes its first oh·wp
            # positions and the tail stays zero from here on.  Frame
            # element q of an image (its frames flat) is then the sum over
            # (i, j) of its slab's element q − (i·wp + j), so one strided
            # view of the block's gcols holds every term, and one reduction
            # adds them in (kh, kw) order from +0.0.  A term before its
            # slab's start is one of the previous slab's zero tails (a tail
            # is (k − 1)·wp + k − 1 long, the largest offset).  At stride > 1
            # the block's frames are zeroed and each slab adds through the
            # frames' window view.
            image = c * frame_shape[-1]  # one image's frames, flat
            row = frame_shape[-1] if s == 1 else positions
            item = np.dtype(dtype).itemsize
            self.wperm = np.empty((self.c_out, k, k, c), dtype=dtype)
            self.gcols = np.zeros((len(self.cols), k * k * c, row), dtype=dtype)
            self.gframe = np.empty(n * image, dtype=dtype)
            frames = self.gframe.reshape(frame_shape)
            self.gin = interior(frames)
            gwindows = window_view(frames, k, s, self.oh, span, wp, writeable=True)
            # Per block, bound once: its rows, the matmul's target, its
            # frames, and at stride 1 the gather view of every term, at
            # stride > 1 the (dst, src) slab adds in (kh, kw) order.
            for rows in spans:
                gcols = self.gcols[: rows.stop - rows.start]
                block_frames = self.gframe[rows.start * image : rows.stop * image].reshape(len(gcols), image)
                if s == 1:
                    terms = np.lib.stride_tricks.as_strided(
                        gcols,
                        shape=(len(gcols), k, k, image),
                        strides=(k * k * image * item, (k * image - wp) * item, (image - 1) * item, item),
                        writeable=False,
                    )
                else:
                    slabs = gcols.reshape(len(gcols), k * k, c * row)
                    terms = []
                    for index, (i, j) in enumerate(np.ndindex(k, k)):
                        dst = gwindows[rows, :, i, j]
                        terms.append((dst, slabs[:, index].reshape(dst.shape)))
                self.gblocks.append((rows, gcols[..., :positions], block_frames, terms))
        if mode == "train":
            # A block's per-image weight-gradient products behind one
            # leading slot that carries the running sum (see _weight_grad).
            self.wprods = np.empty((len(self.cols) + 1, self.c_out, depth), dtype=dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:
        # [W | b], refreshed from the live parameters on every call.
        np.copyto(self.wb[:, :-1], self.cast(self.weight).reshape(self.c_out, -1))
        np.copyto(self.wb[:, -1], self.cast(self.bias))
        for rows, interior, windows, cols6, _, gemm_cols in self.blocks:
            np.copyto(interior, x[rows])
            np.copyto(cols6, windows)
            np.matmul(self.wb, gemm_cols, out=self.out3[rows])
        return self.whole

    def valid(self, buf: np.ndarray) -> np.ndarray:
        return buf[..., : self.ow]

    def widen(self, grad: np.ndarray) -> np.ndarray:
        np.copyto(self.gwhole[..., : self.ow], grad)
        return self.gwhole

    def _weight_grad(self, g3: np.ndarray) -> np.ndarray:
        """``Σ_i g3[i] @ cols[i]ᵀ`` over images, added in image order.

        Each block's columns are lowered again from the frame, which the
        generation check guarantees is still this context's.  Slot 0 of
        ``wprods`` carries the running sum into the next block's reduction,
        so the additions run in the order of one whole-batch
        ``matmul(g3, colsᵀ).sum(axis=0)``.  Returns a fresh array (see
        _DenseOp.backward).
        """
        dw = np.zeros(self.wprods.shape[1:], dtype=self.wprods.dtype)  # n = 0
        for index, (rows, _, windows, cols6, cols, _) in enumerate(self.blocks):
            np.copyto(cols6, windows)
            prods = self.wprods[: len(cols) + 1]
            np.matmul(g3[rows], cols.transpose(0, 2, 1), out=prods[1:])
            if index:
                prods[0] = dw
                dw = prods.sum(axis=0)
            else:
                dw = prods[1:].sum(axis=0)
        return dw

    def backward(self, gwhole: np.ndarray):
        g3 = gwhole.reshape(self.out3.shape)
        if self.mode == "train":
            dw = self._weight_grad(g3)
            self.accumulate(self.weight, dw.reshape(self.weight.shape))
            self.accumulate(self.bias, g3.sum(axis=(0, 2)))
            if self.first:
                return None
        np.copyto(self.wperm, self.cast(self.weight).transpose(0, 2, 3, 1))
        w_perm_t = self.wperm.reshape(self.c_out, -1).T
        for rows, gcols, frames, terms in self.gblocks:
            np.matmul(w_perm_t, g3[rows], out=gcols)
            if self.stride == 1:
                np.add.reduce(terms, axis=(1, 2), initial=0.0, out=frames)
            else:
                frames.fill(0.0)
                for dst, src in terms:
                    dst += src
        return self.gin


class _MaxPoolOp(_Op):
    """Max pool as an unrolled strided maximum over window positions.

    In ``grad``/``train`` mode the forward also records one boolean
    selection mask per window position, in ``(kh, kw)`` order: the
    element equals the window's max and no earlier position was taken.
    That is the first maximal element a reduction's ``argmax`` picks.  The
    masks are built here, not in the backward, because fused posts (ReLU,
    training dropout) overwrite ``out`` in place.  When the windows tile
    the input, the backward writes each window position's view of the
    input gradient once, as the cotangent's bits times the mask in
    unsigned integers.
    """

    def __init__(self, layer_index, layer, n, in_shape, dtype, mode):
        super().__init__(layer_index)
        c, h, w = in_shape
        size, stride = layer.size, layer.stride
        aligned = stride == size and h % size == 0 and w % size == 0
        oh = conv_output_size(h, size, stride)
        ow = conv_output_size(w, size, stride)
        # One (rows, cols) slice per window position: each selects that
        # position of every window across the whole batch.
        self.slices = [
            (slice(i, i + oh * stride, stride), slice(j, j + ow * stride, stride))
            for i in range(size)
            for j in range(size)
        ]
        self.out = np.empty((n, c, oh, ow), dtype=dtype)
        self.masks = self.free = self.gin = self.gin_bits = None
        if mode != "infer":
            self.masks = np.empty((size * size, n, c, oh, ow), dtype=bool)
            self.free = np.empty((n, c, oh, ow), dtype=bool)
            self.gin = np.empty((n, c, h, w), dtype=dtype)
            if aligned:
                # Aligned windows tile the input, so the backward writes each
                # window position's view of the input gradient exactly once,
                # through an unsigned-integer view of its bits.
                self.bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
                gin_bits = self.gin.view(self.bits)
                self.gin_bits = [gin_bits[:, :, rows, cols] for rows, cols in self.slices]

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Max is an exact selection, so this is bitwise identical to the
        # axis reduction, and an order of magnitude faster than np.max
        # over split axes.
        blocks = [x[:, :, rows, cols] for rows, cols in self.slices]
        if len(blocks) == 1:
            np.copyto(self.out, blocks[0])
        else:
            np.maximum(blocks[0], blocks[1], out=self.out)
            for block in blocks[2:]:
                np.maximum(self.out, block, out=self.out)
        if self.masks is not None:
            np.equal(blocks[0], self.out, out=self.masks[0])
            np.logical_not(self.masks[0], out=self.free)
            for block, mask in zip(blocks[1:], self.masks[1:]):
                np.equal(block, self.out, out=mask)
                mask &= self.free
                self.free ^= mask  # mask ⊆ free: clears the taken windows
        return self.out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self.gin_bits is not None:
            # The cotangent's bits times the 0/1 mask, in integers: exact
            # for every value, so a selected element carries its cotangent
            # (-0.0 and NaN included) and every other one is +0.0.  A float
            # multiply would turn NaN · 0 into NaN.
            grad_bits = grad.view(self.bits)
            for view, mask in zip(self.gin_bits, self.masks):
                np.multiply(grad_bits, mask, out=view)
            return self.gin
        # Overlapping windows: every input element starts at zero and adds
        # its windows' gradients where selected, in (kh, kw) order.
        self.gin.fill(0.0)
        for (rows, cols), mask in zip(self.slices, self.masks):
            view = self.gin[:, :, rows, cols]
            np.add(view, grad, out=view, where=mask)
        return self.gin


# -- the plan -------------------------------------------------------------------


class CompiledPlan:
    """A network lowered for one exact ``(batch shape, dtype, mode)``.

    Instances are built by :func:`compile_plan` and cached per engine.  All
    returned arrays are plan-owned buffers overwritten by the next call in
    the same mode — callers (the engines) copy at their public boundaries.
    """

    def __init__(self, network, batch_shape, dtype, mode, cast, accumulate=None):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if mode == "train" and accumulate is None:
            raise ValueError("train-mode plans need an accumulate(param, grad) hook")
        self.network = network
        self.batch_shape = tuple(int(s) for s in batch_shape)
        self.dtype = np.dtype(dtype)
        self.mode = mode
        self.generation = 0
        self.steps = _build(network, self.batch_shape, self.dtype, mode, cast, accumulate)
        self._seed = None
        if mode != "infer":
            out_full = (self.batch_shape[0],) + tuple(network.output_shape)
            self._seed = np.empty(out_full, dtype=self.dtype)

    @property
    def arena_bytes(self) -> int:
        """Total bytes of preallocated activation/scratch/gradient buffers."""
        total = 0
        for op in self.steps:
            for value in vars(op).values():
                if isinstance(value, np.ndarray) and value.base is None:
                    total += value.nbytes
            for post in op.posts:
                for value in vars(post).values():
                    if isinstance(value, np.ndarray) and value.base is None:
                        total += value.nbytes
        return total

    def _execute(self, x: np.ndarray) -> np.ndarray:
        buf = x
        for op in self.steps:
            buf = op.step(buf)
        return buf

    def run(self, x: np.ndarray) -> np.ndarray:
        """Inference forward.  Returns a plan-owned buffer."""
        return self._execute(x)

    def run_forward(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        """Gradient/training forward; returns ``(logits buffer, generation)``.

        The generation stamps the stashed activations: pass it back to
        :meth:`run_backward`, which refuses to consume a stale context.
        """
        self.generation += 1
        return self._execute(x), self.generation

    def run_backward(self, seed: np.ndarray, generation: int):
        """Replay the stack in reverse for a logits cotangent ``seed``.

        ``grad`` mode returns the input gradient (plan-owned buffer);
        ``train`` mode accumulates into parameter ``.grad`` slots and
        returns ``None``.  The caller's seed is copied before any in-place
        transform, so reused seed arrays (the Jacobian loop) stay intact.
        """
        if generation != self.generation:
            guards.stale_context(
                f"CompiledPlan[{self.mode}].run_backward",
                f"context generation {generation} != plan generation {self.generation}; "
                "a later forward overwrote the stashed activations",
            )
        np.copyto(self._seed, seed)
        grad = self._seed
        for op in reversed(self.steps):
            grad = op.back_step(grad)
            if grad is None:
                return None
        return grad

    def layer_outputs(self, x: np.ndarray) -> list[np.ndarray]:
        """Per-layer activations as fresh copies, aligned with ``network.layers``.

        Fused stages are applied one at a time with a snapshot between, so
        the differential verifier can compare every layer — including ones
        whose intermediate buffer the fused execution overwrites in place.
        """
        outs: list[np.ndarray] = []
        buf = x
        for op in self.steps:
            if self.mode != "infer":
                self.generation += 1  # stashes are being overwritten
            buf = op.step(buf, outs)
        return outs


def compile_plan(network, batch_shape, dtype, mode, cast, accumulate=None) -> CompiledPlan:
    """Compile ``network`` for one exact batch shape, dtype and mode.

    ``cast`` maps a parameter :class:`~repro.nn.tensor.Tensor` to its
    engine-dtype array (pass the engine's staleness-checked cast cache);
    ``accumulate(param, grad)`` is required in ``train`` mode.  Raises
    :class:`ValueError` for a network with a layer :func:`unplannable`
    names.
    """
    return CompiledPlan(network, batch_shape, dtype, mode, cast, accumulate)


# -- the compiler ---------------------------------------------------------------


def _build(network, batch_shape, dtype, mode, cast, accumulate):
    n = batch_shape[0]
    shape = tuple(batch_shape[1:])
    steps: list[_Op] = []
    # Whether the current buffer is plan-owned and safe for in-place fusion.
    # False at the head (the caller's input must never be mutated) and after
    # a protected tanh output in grad/train mode.
    owned = False
    track_grad = mode != "infer"

    def attach(stage) -> None:
        """Fuse onto the current step, or give the stage its own buffer."""
        nonlocal owned
        if owned and steps:
            steps[-1].posts.append(stage)
        else:
            steps.append(_EltOp(stage.layer_index, stage, (n,) + shape, dtype))
            owned = True

    for index, layer in enumerate(network.layers):
        first = index == 0
        if isinstance(layer, Dense):
            (in_features,) = shape
            steps.append(
                _DenseOp(index, layer, n, in_features, dtype, mode, cast, accumulate, first)
            )
            shape = (layer.out_features,)
            owned = True
        elif isinstance(layer, Conv2D):
            steps.append(_ConvOp(index, layer, n, shape, dtype, mode, cast, accumulate, first))
            shape = layer.output_shape(shape)
            owned = True
        elif isinstance(layer, MaxPool2D):
            steps.append(_MaxPoolOp(index, layer, n, shape, dtype, mode))
            shape = layer.output_shape(shape)
            owned = True
        elif isinstance(layer, Flatten):
            features = 1
            for dim in shape:
                features *= int(dim)
            steps.append(_ReshapeOp(index, (n,) + shape, (n, features)))
            shape = (features,)
            # A view: ownership (and protection) of the underlying buffer
            # carries through unchanged.
        elif isinstance(layer, ReLU):
            # Fused onto a conv, the mask covers its whole row-padded buffer.
            onto_conv = owned and isinstance(steps[-1], _ConvOp)
            mask_shape = steps[-1].whole.shape if onto_conv else (n,) + shape
            attach(_ReluStage(index, mask_shape, track_grad))
        elif isinstance(layer, Tanh):
            stage = _TanhStage(index, track_grad)
            if mode == "infer":
                attach(stage)
            else:
                # Protected: the backward reads these output values, so the
                # stage gets a buffer of its own (never fused onto the
                # producer) and nothing may fuse over it afterwards.
                steps.append(_EltOp(index, stage, (n,) + shape, dtype))
                owned = False
        elif isinstance(layer, Dropout):
            if mode == "train" and layer.rate > 0.0:
                attach(_DropoutTrainStage(index, layer))
            else:
                steps.append(_PassOp(index))
        else:
            raise ValueError(f"cannot compile a plan for layer type {type(layer).__name__}")

    return steps
