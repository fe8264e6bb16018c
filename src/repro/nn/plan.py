"""Compiled execution plans: the layer stack lowered once, executed many times.

The serving-shaped hot path of this reproduction is *repeated same-shape*
work: the detector-gated fast path pays one forward per request, the
corrector fans flagged inputs into staged sample batches on the bucket
ladder, and
every attack inner loop pushes identically-shaped batches through the same
network thousands of times.  Before this module, each of the three engines
re-decided shapes, re-derived im2col geometry and re-allocated every
activation on every call.

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
    ReLU / tanh / sigmoid / eval-mode batch norm / training dropout fold
    in place onto their producer's buffer (conv→bn→relu is one step, one
    buffer), except where the backward pass needs the producer's values
    intact: in ``grad``/``train`` mode a tanh/sigmoid output is *protected*
    — it is needed to form its own gradient, so nothing may fuse over it
    and the chain restarts on a fresh buffer.  ReLU stays fusable in every
    mode by stashing its sign mask in a preallocated boolean buffer.  One
    method, ``_Op.step``, runs an op and its fused stages, and decides which
    buffer they cover: a conv's whole row-padded buffer, junk columns
    included, except for training dropout, whose mask draws exactly the
    layer's output shape.

Geometry bound once
    Each conv owns a flat per-channel padded frame (``hp·wp`` plus a
    ``k − 1`` tail) and a window view of it, both built at compile time.
    At stride 1 column positions run over whole padded rows, ``oh·wp`` of
    them with ``wp − ow`` junk columns per row, so per call the conv
    refreshes the frame interior and copies, per image, a ``(C·k·k,
    oh·wp)`` column block in which every row is one contiguous run of the
    frame.  One batched ``W @ cols`` then writes a ``(n, c_out, oh, wp)``
    buffer whose ``[..., :ow]`` view is the layer's output: no index
    gather, no layout transpose, and the bias is a broadcast add.  The
    backward scatters the output gradient into a buffer whose junk columns
    stay zero, so its ``col2im`` is ``k·k`` contiguous-run adds.  Pool
    argmax buffers and flatten shapes are likewise resolved at compile
    time, keyed by the concrete batch shape.

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
bitwise ``x @ w + b``; avg-pool backward keeps the legacy fill-then-divide;
max pooling is an exact selection.  The row-padded ``W @ cols`` hands BLAS
the legacy ``cols @ w_mat.T`` product with its operand roles swapped and,
at stride 1, junk columns appended; junk never feeds a valid output, and
the backward adds only zeros from it.  On the zoo architectures
(``cnn-fast``, ``cnn-fast-wide``, ``cnn-paper``) it rounds identically, so
for ``n >= 2`` float32 and float64 logits are bitwise equal to the
per-call reference, and on the ``-fast`` ones the float64 plan is
bit-exact with the autograd forward.  Float64 stride-2 convs with
``C·k·k = 27`` can still differ in the last bit (measured with OpenBLAS's
Haswell kernels; see ``tests/nn/test_plan.py``).  A single-row Dense runs
on a two-row buffer, since a one-row matmul takes BLAS's gemv path, so on
the ``-fast`` architectures a row's float32 logits do not depend on its
batch.  Conv
weight and bias gradients come from a different contraction order than the
legacy ``grad_matᵀ @ cols`` and differ in the last bits; the differential
verifier's budgets cover them.
"""

from __future__ import annotations

import numpy as np

from ..verify import guards
from .kernels import bn_eval_scale_shift, col2im, conv_output_size, window_view
from .layers import AvgPool2D, Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU, Sigmoid, Tanh
from .norm import _BatchNormBase
from .ops import stable_sigmoid

__all__ = ["CompiledPlan", "compile_plan", "supports", "unplannable", "MODES", "DEFAULT_PLAN_ENTRIES"]

MODES = ("infer", "grad", "train")

# Default capacity of the per-engine compiled-plan LRU (keyed by exact batch
# shape).  An experiment run touches a handful of shapes per engine: the full
# batch, the trailing remainder batch and single-example probes, plus the
# region votes' seven ladder spans (1, 2, 4, … 64 rows).  Eight entries
# thrashed once the votes used the whole ladder.
DEFAULT_PLAN_ENTRIES = 16

_PLANNABLE = (
    Dense,
    Conv2D,
    MaxPool2D,
    AvgPool2D,
    Flatten,
    ReLU,
    Tanh,
    Sigmoid,
    Dropout,
    _BatchNormBase,
)


def unplannable(network) -> list[str]:
    """Type names of the layers of ``network`` that have no compiled-plan op."""
    return [type(layer).__name__ for layer in network.layers if not isinstance(layer, _PLANNABLE)]


def supports(network) -> bool:
    """Whether every layer of ``network`` lowers to a compiled-plan op."""
    return not unplannable(network)


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
    protects_output = True  # backward reads the output values

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


class _SigmoidStage(_Stage):
    protects_output = True

    def __init__(self, layer_index: int, track_grad: bool):
        self.layer_index = layer_index
        self.track_grad = track_grad
        self._out = None

    def apply(self, src: np.ndarray, dst: np.ndarray) -> None:
        np.copyto(dst, stable_sigmoid(src))
        if self.track_grad:
            self._out = dst

    def backward(self, grad: np.ndarray) -> None:
        out = self._out
        grad *= out
        grad *= 1.0 - out


class _BnEvalStage(_Stage):
    """Eval-mode batch norm as an in-place affine; gradients flow through
    the scale only (running statistics are constants, as in autograd)."""

    def __init__(self, layer_index: int, layer: _BatchNormBase, dtype, track_grad: bool):
        self.layer_index = layer_index
        self.layer = layer
        self.dtype = dtype
        self.track_grad = track_grad
        self._scale = None

    def apply(self, src: np.ndarray, dst: np.ndarray) -> None:
        # Recomputed per call from the live running statistics (the vectors
        # are tiny); a fit that updates them is picked up immediately.
        scale64, shift64 = bn_eval_scale_shift(self.layer)
        shape = self.layer._shape
        scale = scale64.reshape(shape).astype(self.dtype)
        np.multiply(src, scale, out=dst)
        dst += shift64.reshape(shape).astype(self.dtype)
        if self.track_grad:
            self._scale = scale

    def backward(self, grad: np.ndarray) -> None:
        grad *= self._scale


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
        # A one-row matmul takes BLAS's gemv path, whose reduction order is
        # not gemm's: a single-row plan runs its matmul on a two-row buffer
        # so a row's logits never depend on the batch it arrives in.
        self.pair = self.pair_out = None
        if n == 1:
            self.pair = np.zeros((2, in_features), dtype=dtype)
            self.pair_out = np.empty((2, layer.out_features), dtype=dtype)
            self.out = self.pair_out[:1]
        else:
            self.out = np.empty((n, layer.out_features), dtype=dtype)
        skip_input_grad = mode == "train" and first
        self.gin = None
        if mode != "infer" and not skip_input_grad:
            self.gin = np.empty((n, in_features), dtype=dtype)
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.pair is None:
            np.matmul(x, self.cast(self.weight), out=self.out)
        else:
            self.pair[0] = x[0]
            np.matmul(self.pair, self.cast(self.weight), out=self.pair_out)
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
    """Row-padded conv lowering, shared by all three modes.

    Each input channel lives in a flat frame: the zero-padded ``hp × wp``
    image, row-major, plus a ``k − 1`` tail.  At stride 1, column positions
    run over whole padded rows (``oh·wp``, the last ``wp − ow`` of each row
    junk), so every ``(c, i, j)`` row of the ``(C·k·k, oh·wp)`` column
    block is one contiguous run of the frame starting at ``i·wp + j``.  One
    batched ``W @ cols`` writes a ``(n, c_out, oh, wp)`` buffer, the bias
    is a broadcast add, and the layer's output is the ``[..., :ow]`` view.
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
        self.c_out = layer.out_channels
        hp, wp = h + 2 * p, w + 2 * p
        self.oh = conv_output_size(hp, k, s)
        self.ow = conv_output_size(wp, k, s)
        span = wp if s == 1 else self.ow

        def interior(frame):
            return frame[:, :, : hp * wp].reshape(n, c, hp, wp)[:, :, p : p + h, p : p + w]

        # The frame's zeroed border and tail are written once, here; only
        # the interior is refreshed per call.  The last junk column of the
        # last (i, j) run reads k - 1 elements past the padded image.
        frame_shape = (n, c, hp * wp + k - 1)
        self.frame = np.zeros(frame_shape, dtype=dtype)
        self.interior = interior(self.frame)
        self.windows = window_view(self.frame, k, s, self.oh, span, wp)
        positions = self.oh * span
        self.cols = np.empty((n, c * k * k, positions), dtype=dtype)
        self.whole = np.empty((n, self.c_out, self.oh, span), dtype=dtype)
        self.out3 = self.whole.reshape(n, self.c_out, positions)
        self.gwhole = self.gcols = self.gframe = self.gwindows = self.gin = None
        if mode != "infer":
            # Only the [..., :ow] view is ever written, so the junk columns
            # of the output gradient stay zero and add nothing below.
            self.gwhole = np.zeros_like(self.whole)
            if not (mode == "train" and first):
                self.gcols = np.empty_like(self.cols)
                self.gframe = np.empty(frame_shape, dtype=dtype)
                self.gwindows = window_view(self.gframe, k, s, self.oh, span, wp, writeable=True)
                self.gin = interior(self.gframe)

    def forward(self, x: np.ndarray) -> np.ndarray:
        np.copyto(self.interior, x)
        np.copyto(self.cols.reshape(self.windows.shape), self.windows)
        np.matmul(self.cast(self.weight).reshape(self.c_out, -1), self.cols, out=self.out3)
        self.out3 += self.cast(self.bias)[:, None]
        return self.whole

    def valid(self, buf: np.ndarray) -> np.ndarray:
        return buf[..., : self.ow]

    def widen(self, grad: np.ndarray) -> np.ndarray:
        np.copyto(self.gwhole[..., : self.ow], grad)
        return self.gwhole

    def backward(self, gwhole: np.ndarray):
        g3 = gwhole.reshape(self.out3.shape)
        if self.mode == "train":
            # Fresh arrays (see _DenseOp.backward).  The weight gradient
            # contracts over (images, positions): one batched per-image
            # product, then a sum over images — no copy of the columns.
            dw = np.matmul(g3, self.cols.transpose(0, 2, 1)).sum(axis=0)
            self.accumulate(self.weight, dw.reshape(self.weight.shape))
            self.accumulate(self.bias, g3.sum(axis=(0, 2)))
            if self.first:
                return None
        w_mat = self.cast(self.weight).reshape(self.c_out, -1)
        np.matmul(w_mat.T, g3, out=self.gcols)
        col2im(self.gcols, self.gwindows, self.gframe)
        return self.gin


class _MaxPoolOp(_Op):
    def __init__(self, layer_index, layer, n, in_shape, dtype, mode):
        super().__init__(layer_index)
        c, h, w = in_shape
        size, stride = layer.size, layer.stride
        self.size, self.stride = size, stride
        self.fast = stride == size and h % size == 0 and w % size == 0
        self.track_grad = mode != "infer"
        oh = conv_output_size(h, size, stride)
        ow = conv_output_size(w, size, stride)
        self.oh, self.ow = oh, ow
        self.in_full = (n, c, h, w)
        # One (rows, cols) slice per window position: each selects that
        # position of every window across the whole batch.
        self.slices = [
            (slice(i, i + oh * stride, stride), slice(j, j + ow * stride, stride))
            for i in range(size)
            for j in range(size)
        ]
        self.blocks_shape = (n, c, oh, size, ow, size)  # fast path only
        self.out = np.empty((n, c, oh, ow), dtype=dtype)
        self.flat = self.flat6 = self.arg = self.gflat = self.gin = self.gwindows = None
        if self.track_grad:
            self.flat = np.empty((n, c, oh, ow, size * size), dtype=dtype)
            self.flat6 = self.flat.reshape(n, c, oh, ow, size, size)
            self.arg = np.empty((n, c, oh, ow), dtype=np.intp)
            self.gflat = np.empty((n, c, oh, ow, size * size), dtype=dtype)
            self.gin = np.empty((n, c, h, w), dtype=dtype)
            self.gwindows = window_view(self.gin, size, stride, oh, ow, w, writeable=True)

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Unrolled strided maximum over window positions.  Max is an exact
        # selection, so this is bitwise identical to the axis reduction —
        # and an order of magnitude faster than np.max over split axes.
        blocks = [x[:, :, rows, cols] for rows, cols in self.slices]
        if len(blocks) == 1:
            np.copyto(self.out, blocks[0])
        else:
            np.maximum(blocks[0], blocks[1], out=self.out)
            for block in blocks[2:]:
                np.maximum(self.out, block, out=self.out)
        if self.track_grad:
            # Window positions in (kh, kw) order, so argmax picks the same
            # first maximal element as a reduction over the window would.
            for (i, j), block in zip(np.ndindex(self.size, self.size), blocks):
                self.flat6[..., i, j] = block
            np.argmax(self.flat, axis=-1, out=self.arg)
        return self.out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, c, h, w = self.in_full
        size = self.size
        self.gflat.fill(0.0)
        np.put_along_axis(self.gflat, self.arg[..., None], grad[..., None], axis=-1)
        gsrc = self.gflat.reshape(n, c, self.oh, self.ow, size, size)
        if self.fast:
            np.copyto(self.gin.reshape(self.blocks_shape), gsrc.transpose(0, 1, 2, 4, 3, 5))
            return self.gin
        # Overlapping windows: scatter-add, one (kh, kw) slab at a time.
        return col2im(gsrc.transpose(0, 1, 4, 5, 2, 3), self.gwindows, self.gin)


class _AvgPoolOp(_Op):
    def __init__(self, layer_index, layer, n, in_shape, dtype, mode):
        super().__init__(layer_index)
        c, h, w = in_shape
        size = layer.size
        self.blocks_shape = (n, c, h // size, size, w // size, size)
        self.out = np.empty((n, c, h // size, w // size), dtype=dtype)
        self.divisor = np.dtype(dtype).type(size * size)
        self.gin = np.empty((n, c, h, w), dtype=dtype) if mode != "infer" else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        blocks = x.reshape(self.blocks_shape)
        np.mean(blocks, axis=(3, 5), dtype=self.out.dtype, out=self.out)
        return self.out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        gin6 = self.gin.reshape(self.blocks_shape)
        # Fill then divide (not a reciprocal multiply): the per-element op
        # sequence of the legacy kernel, preserved for bitwise parity.
        gin6[:] = grad[:, :, :, None, :, None]
        self.gin /= self.divisor
        return self.gin


class _BnTrainOp(_Op):
    """Training-mode batch norm: batch statistics, float64 running updates."""

    def __init__(self, layer_index, layer, n, in_shape, dtype, cast, accumulate):
        super().__init__(layer_index)
        self.layer = layer
        self.gamma, self.beta = layer.params["gamma"], layer.params["beta"]
        self.cast = cast
        self.accumulate = accumulate
        full = (n,) + tuple(in_shape)
        self.xhat = np.empty(full, dtype=dtype)
        self.out = np.empty(full, dtype=dtype)
        self._inv_std = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        layer = self.layer
        axes, shape = layer._axes, layer._shape
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        momentum = layer.momentum
        layer.running_mean = momentum * layer.running_mean + (1 - momentum) * mean.astype(
            np.float64
        )
        layer.running_var = momentum * layer.running_var + (1 - momentum) * var.astype(np.float64)
        inv_std = (1.0 / np.sqrt(var + layer.eps)).reshape(shape).astype(x.dtype)
        np.subtract(x, mean.reshape(shape), out=self.xhat)
        self.xhat *= inv_std
        np.multiply(self.xhat, self.cast(self.gamma).reshape(shape), out=self.out)
        self.out += self.cast(self.beta).reshape(shape)
        self._inv_std = inv_std
        return self.out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        layer = self.layer
        axes, shape = layer._axes, layer._shape
        self.accumulate(self.gamma, (grad * self.xhat).sum(axis=axes))
        self.accumulate(self.beta, grad.sum(axis=axes))
        grad *= self.cast(self.gamma).reshape(shape) * self._inv_std
        return grad


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
    :class:`ValueError` for networks :func:`supports` rejects.
    """
    return CompiledPlan(network, batch_shape, dtype, mode, cast, accumulate)


# -- the compiler ---------------------------------------------------------------


def _build(network, batch_shape, dtype, mode, cast, accumulate):
    n = batch_shape[0]
    shape = tuple(batch_shape[1:])
    steps: list[_Op] = []
    # Whether the current buffer is plan-owned and safe for in-place fusion.
    # False at the head (the caller's input must never be mutated) and after
    # a protected tanh/sigmoid output in grad/train mode.
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
        elif isinstance(layer, AvgPool2D):
            steps.append(_AvgPoolOp(index, layer, n, shape, dtype, mode))
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
        elif isinstance(layer, (Tanh, Sigmoid)):
            stage_cls = _TanhStage if isinstance(layer, Tanh) else _SigmoidStage
            stage = stage_cls(index, track_grad)
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
        elif isinstance(layer, _BatchNormBase):
            if mode == "train":
                steps.append(_BnTrainOp(index, layer, n, shape, dtype, cast, accumulate))
                owned = True
            else:
                attach(_BnEvalStage(index, layer, dtype, track_grad))
        else:
            raise ValueError(
                f"cannot compile a plan for layer type {type(layer).__name__}; "
                "check plan.supports(network) first"
            )

    return steps
