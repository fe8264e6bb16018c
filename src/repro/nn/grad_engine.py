"""The gradient engine: fused forward+backward kernels for the attack hot path.

Where :class:`~repro.nn.engine.InferenceEngine` (PR 1) gave every
*prediction* a raw-NumPy fast path, this module does the same for the
evaluation's true cost centre: the input gradients ``∂loss/∂x`` that every
gradient-based attack (FGSM/IGSM/PGD, L-BFGS, DeepFool, JSMA, the CW suite
and the adaptive detector-aware CW) recomputes thousands of times.  The
legacy path builds a full float64 autograd graph per iteration — one Python
closure per op, one float64 temporary per edge.  The engine instead runs
hand-written, dtype-configurable (float32 by default) forward and backward
kernels with no :class:`~repro.nn.tensor.Tensor` wrappers at all:

Compiled plans with stashed activations
    :meth:`forward` executes a :class:`~repro.nn.plan.CompiledPlan` in
    ``grad`` mode — the layer stack lowered once per batch shape into
    buffer-bound ops that stash exactly what each backward needs (ReLU
    masks, pool argmaxes, conv geometries) — and returns ``(logits, ctx)``.
    :meth:`backward` seeds the logits with an arbitrary cotangent and
    replays the stack in reverse.  Because the context is reusable,
    :meth:`jacobian` does **one** forward followed by ``C`` seeded
    backwards instead of the legacy ``C`` full forward+backward passes.
    Contexts are generation-stamped: a backward against a context that a
    later same-shape forward has overwritten raises
    :class:`~repro.verify.guards.GuardViolation` (``kind="stale-context"``)
    instead of silently reading the newer activations.

Image-major convolution
    Convolution copies each image's ``(C·k·k, oh·ow)`` window columns out
    of a padded frame bound at compile time; the input gradient is the
    per-image ``Wᵀ @ grad`` followed by a slab col2im, so steady-state
    attack iterations spend their time inside BLAS matmuls, not index
    arithmetic.

Counters and an autograd fallback
    ``engine.counters`` (:class:`GradientCounters`) tracks backward batches,
    examples, wall-clock seconds and fallback passes in the same style as
    the PR-1 inference counters.  Networks containing unknown layer types
    transparently fall back to the float64 autograd path (recorded in
    ``counters.fallbacks``), so the public API never changes behaviour —
    only speed.

Dtype policy: attacks default to float32 through this engine; training
(:mod:`repro.nn.train`) stays on the float64 autograd path.  See DESIGN.md.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ..verify import guards
from .plan import DEFAULT_PLAN_ENTRIES, CompiledPlan
from .plan import supports as plan_supports
from .tensor import Tensor

if TYPE_CHECKING:  # pragma: no cover - circular import avoided at runtime
    from .network import Network

__all__ = ["GradientEngine", "GradientCounters", "margin_seed"]

DEFAULT_BATCH_SIZE = 256

# Offset excluding the target class from max_{i != t} Z_i (matches attacks.cw).
_EXCLUDE = 1e6

@dataclass
class GradientCounters:
    """Cumulative backward-pass work counters of one gradient engine."""

    requests: int = 0  # public gradient calls answered
    backward_batches: int = 0  # seeded backward executions
    examples: int = 0  # rows pushed through a backward pass
    seconds: float = 0.0  # wall clock inside forward/backward kernels
    fallbacks: int = 0  # backward passes served by float64 autograd
    plan_hits: int = 0  # forwards served by a cached compiled plan
    plan_misses: int = 0  # plan compilations (new batch shape, or cache off)

    def as_dict(self) -> dict[str, float]:
        return asdict(self)

    def snapshot(self) -> "GradientCounters":
        return replace(self)


def margin_seed(
    logits: np.ndarray, target_labels: np.ndarray, confidence: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangent of the CW objective ``f = max(max_{i≠t} Z_i − Z_t + κ, 0)``.

    Returns ``(seed, margin)`` where ``seed`` is the float64 ``∂Σf/∂Z``
    matrix (rows zero once the hinge is inactive) and ``margin`` is the raw
    per-example margin (without the hinge).  Shared by
    :meth:`GradientEngine.margin_input_grad` and the detector-aware
    adaptive attack, which needs the seed alone to compose losses across
    two networks before a single backward pass.
    """
    target_labels = np.asarray(target_labels)
    z = np.asarray(logits, dtype=np.float64)
    n = len(z)
    rows = np.arange(n)
    z_target = z[rows, target_labels]
    masked = z.copy()
    masked[rows, target_labels] -= _EXCLUDE
    other = masked.argmax(axis=-1)
    margin = masked[rows, other] - z_target + confidence
    active = (margin >= 0.0).astype(np.float64)
    seed = np.zeros_like(z)
    seed[rows, other] += active
    seed[rows, target_labels] -= active
    return seed, margin


class _NativeContext:
    """Handle onto a compiled plan's stashed activations (reusable).

    Generation-stamped: :meth:`GradientEngine.backward` may seed it any
    number of times (the Jacobian loop), but once a *newer* same-shape
    forward has run on the same plan, using it raises a stale-context
    :class:`~repro.verify.guards.GuardViolation`.
    """

    __slots__ = ("plan", "generation", "batch_len")

    def __init__(self, plan: CompiledPlan, generation: int, batch_len: int):
        self.plan = plan
        self.generation = generation
        self.batch_len = batch_len


class _FallbackContext:
    """Autograd-backed context for networks with unknown layers.

    The first backward consumes the graph recorded during
    :meth:`GradientEngine.forward`; later backwards (the Jacobian's
    per-class seeds) re-run the float64 forward, reproducing the legacy
    cost exactly.
    """

    __slots__ = ("network", "x", "inp", "logits", "batch_len")

    def __init__(self, network: "Network", x: np.ndarray):
        self.network = network
        self.x = np.asarray(x, dtype=np.float64)
        self.inp = Tensor(self.x, requires_grad=True)
        self.logits = network.forward(self.inp)
        self.batch_len = len(self.x)

    def run(self, seed: np.ndarray) -> np.ndarray:
        if self.inp is None:  # graph already consumed: re-forward
            inp = Tensor(self.x, requires_grad=True)
            logits = self.network.forward(inp)
        else:
            inp, logits = self.inp, self.logits
            self.inp = self.logits = None
        logits.backward(np.asarray(seed, dtype=np.float64))
        assert inp.grad is not None
        return inp.grad


class GradientEngine:
    """Batched, instrumented, dtype-configurable input gradients for one network.

    Parameters
    ----------
    network:
        The :class:`~repro.nn.network.Network` to differentiate through.
        Parameters are read live: rebinding them (optimiser step,
        ``load_state``) invalidates the cast cache automatically.
    dtype:
        Compute dtype of the fused kernels.  ``float32`` (default) roughly
        doubles BLAS throughput; ``float64`` tracks the autograd reference
        to ~1e-10.
    batch_size:
        Default batch plan of the public gradient methods; per-call
        ``batch_size`` overrides it.
    native:
        ``False`` skips plan compilation, forcing every pass onto the
        float64 autograd fallback — the degradation ladder's reference
        rung (see :mod:`repro.runner.policy`).
    plan_entries:
        Capacity of the compiled-plan LRU (keyed by exact batch shape).
        ``0`` keeps the plan layer but recompiles per call.
    """

    def __init__(
        self,
        network: "Network",
        dtype: np.dtype | type = np.float32,
        batch_size: int = DEFAULT_BATCH_SIZE,
        native: bool = True,
        plan_entries: int = DEFAULT_PLAN_ENTRIES,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if plan_entries < 0:
            raise ValueError("plan_entries must be >= 0")
        self.network = network
        self.dtype = np.dtype(dtype)
        self.batch_size = batch_size
        self.plan_entries = plan_entries
        self.counters = GradientCounters()
        # param-id -> (source array ref, version, cast copy); checked by
        # identity (rebinding) and version (in-place optimiser updates).
        self._casts: dict[int, tuple[np.ndarray, int, np.ndarray]] = {}
        # batch shape -> CompiledPlan (grad mode, LRU); plans depend only
        # on shapes — parameter changes flow through the cast cache.
        self._plans: "OrderedDict[tuple[int, ...], CompiledPlan]" = OrderedDict()
        self._native = bool(native) and plan_supports(network)

    # -- public API -----------------------------------------------------------

    @property
    def supports_native(self) -> bool:
        """Whether every layer runs on the compiled raw-NumPy plans."""
        return self._native

    def reset_counters(self) -> None:
        self.counters = GradientCounters()

    def invalidate(self) -> None:
        """Drop every cached parameter cast and compiled plan."""
        self._casts.clear()
        self._plans.clear()

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        """One unbatched forward pass returning ``(logits, context)``.

        The context stashes every activation the backward needs and — on
        the native path — may be seeded repeatedly (:meth:`jacobian` runs
        ``C`` backwards against one context).  This is the advanced API;
        most callers want the loss-specific helpers below, which batch.
        """
        x = np.ascontiguousarray(np.asarray(x), dtype=self.dtype)
        start = time.perf_counter()
        if not self._native:
            ctx: object = _FallbackContext(self.network, x)
            out = ctx.logits.data.astype(self.dtype)
        else:
            plan = self._plan_for(x.shape)
            buffer, generation = plan.run_forward(x)
            # Boundary copy: the plan reuses the logits buffer on the next
            # same-shape forward; callers own what they are handed.
            out = buffer.copy()
            ctx = _NativeContext(plan, generation, len(x))
        self.counters.seconds += time.perf_counter() - start
        guards.check_output("GradientEngine.forward", out, self.dtype)
        return out, ctx

    def backward(self, ctx: object, seed: np.ndarray) -> np.ndarray:
        """Input gradient for the cotangent ``seed`` (``∂Σ(seed·Z)/∂x``).

        ``seed`` has the logits' shape; the result is in the engine dtype.
        """
        start = time.perf_counter()
        self.counters.backward_batches += 1
        if isinstance(ctx, _FallbackContext):
            self.counters.fallbacks += 1
            self.counters.examples += ctx.batch_len
            grad = ctx.run(seed).astype(self.dtype)
        else:
            assert isinstance(ctx, _NativeContext)
            self.counters.examples += ctx.batch_len
            # The plan copies the seed before any in-place transform and
            # hands back its own gradient buffer; copy at the boundary.
            grad = ctx.plan.run_backward(seed, ctx.generation).copy()
        self.counters.seconds += time.perf_counter() - start
        guards.check_output("GradientEngine.backward", grad, self.dtype)
        return grad

    def cross_entropy_input_grad(
        self, x: np.ndarray, labels: np.ndarray, batch_size: int | None = None
    ) -> np.ndarray:
        """``∂ CE(H(x), labels) / ∂x`` summed over the batch (per-example rows).

        The softmax seed is computed in float64 for stability, the network
        passes in the engine dtype; the result is in the engine dtype.
        """
        self.counters.requests += 1
        x, labels = np.asarray(x), np.asarray(labels)
        out = np.empty(x.shape, dtype=self.dtype)
        for begin, end in self._plan(len(x), batch_size):
            logits, ctx = self.forward(x[begin:end])
            z = logits.astype(np.float64)
            shifted = z - z.max(axis=-1, keepdims=True)
            exps = np.exp(shifted)
            seed = exps / exps.sum(axis=-1, keepdims=True)
            seed[np.arange(end - begin), labels[begin:end]] -= 1.0
            out[begin:end] = self.backward(ctx, seed)
        return out

    def logit_input_grad(
        self, x: np.ndarray, class_index: np.ndarray, batch_size: int | None = None
    ) -> np.ndarray:
        """``∂ H(x)_{class_index} / ∂x`` for a per-example class index."""
        self.counters.requests += 1
        x, class_index = np.asarray(x), np.asarray(class_index)
        num_classes = self.network.num_classes
        out = np.empty(x.shape, dtype=self.dtype)
        for begin, end in self._plan(len(x), batch_size):
            logits, ctx = self.forward(x[begin:end])
            seed = np.zeros((end - begin, num_classes), dtype=self.dtype)
            seed[np.arange(end - begin), class_index[begin:end]] = 1.0
            out[begin:end] = self.backward(ctx, seed)
        return out

    def margin_input_grad(
        self,
        x: np.ndarray,
        target_labels: np.ndarray,
        confidence: float = 0.0,
        batch_size: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gradient of the CW objective ``f(x) = max(max_{i≠t} Z_i − Z_t + κ, 0)``.

        Returns ``(grad, logits, margin)``: the per-example ``∂f/∂x`` rows
        (engine dtype), the logits (engine dtype) and the raw, un-hinged
        margin (float64) — everything the CW L2/L0/L∞ inner loops need from
        one fused pass.
        """
        self.counters.requests += 1
        x, target_labels = np.asarray(x), np.asarray(target_labels)
        num_classes = self.network.num_classes
        grad = np.empty(x.shape, dtype=self.dtype)
        logits_out = np.empty((len(x), num_classes), dtype=self.dtype)
        margin_out = np.empty(len(x), dtype=np.float64)
        for begin, end in self._plan(len(x), batch_size):
            logits, ctx = self.forward(x[begin:end])
            seed, margin = margin_seed(logits, target_labels[begin:end], confidence)
            grad[begin:end] = self.backward(ctx, seed)
            logits_out[begin:end] = logits
            margin_out[begin:end] = margin
        return grad, logits_out, margin_out

    def jacobian(
        self, x: np.ndarray, batch_size: int | None = None, with_logits: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Full logits Jacobian ``∂H(x)_c / ∂x``, shape ``(N, C, *input_shape)``.

        On the native path this is one forward followed by ``C`` seeded
        backwards against the *same* stashed activations — the legacy path
        re-ran the whole forward once per class.  The result (and, with
        ``with_logits=True``, the accompanying logits) is in the engine
        dtype.
        """
        self.counters.requests += 1
        x = np.asarray(x)
        num_classes = self.network.num_classes
        rows = np.empty((len(x), num_classes) + x.shape[1:], dtype=self.dtype)
        logits_out = np.empty((len(x), num_classes), dtype=self.dtype)
        for begin, end in self._plan(len(x), batch_size):
            logits, ctx = self.forward(x[begin:end])
            logits_out[begin:end] = logits
            seed = np.zeros((end - begin, num_classes), dtype=self.dtype)
            for c in range(num_classes):
                seed[:, c] = 1.0
                rows[begin:end, c] = self.backward(ctx, seed)
                seed[:, c] = 0.0
        return (rows, logits_out) if with_logits else rows

    # -- batching -------------------------------------------------------------

    def _plan(self, n: int, batch_size: int | None):
        step = batch_size or self.batch_size
        return ((begin, min(begin + step, n)) for begin in range(0, n, step))

    # -- plan cache ------------------------------------------------------------

    def _plan_for(self, shape: tuple[int, ...]) -> CompiledPlan:
        key = tuple(shape)
        plan = self._plans.get(key)
        if plan is not None:
            self.counters.plan_hits += 1
            self._plans.move_to_end(key)
            return plan
        self.counters.plan_misses += 1
        plan = CompiledPlan(self.network, key, self.dtype, "grad", self._cast)
        if self.plan_entries > 0:
            self._plans[key] = plan
            while len(self._plans) > self.plan_entries:
                self._plans.popitem(last=False)
        return plan

    # -- parameter casts -------------------------------------------------------

    def _cast(self, param: Tensor) -> np.ndarray:
        """Cached dtype cast of a parameter, identity+version-checked for staleness."""
        source = param.data
        entry = self._casts.get(id(param))
        if entry is None or entry[0] is not source or entry[1] != param.version:
            entry = (source, param.version, np.ascontiguousarray(source, dtype=self.dtype))
            self._casts[id(param)] = entry
        return entry[2]
