"""The training engine: fused parameter-gradient kernels for every training loop.

This module completes the repo's engine trilogy.  PR 1's
:class:`~repro.nn.engine.InferenceEngine` fused *prediction*, PR 2's
:class:`~repro.nn.grad_engine.GradientEngine` fused the attacks' *input*
gradients, and this engine fuses the last float64-autograd hot path:
the **parameter** gradients behind :func:`repro.nn.train.fit` — the zoo
models, defensive distillation, adversarial training, the MagNet
autoencoder, the detector MLP and the black-box substitute fits.

The legacy path rebuilds a full autograd :class:`~repro.nn.tensor.Tensor`
graph per mini-batch (one Python closure per op, one float64 temporary per
edge).  The engine instead executes train-mode
:class:`~repro.nn.plan.CompiledPlan` objects — the layer stack lowered
once per batch shape into dtype-configurable (float32 by default) raw-NumPy
ops with arena-preallocated buffers — that accumulate ``∂loss/∂θ``
straight into each parameter's ``.grad`` buffer:

Training-mode plans
    Unlike the sibling engines, plans here run the *training* semantics:
    dropout draws its inverted mask from the layer's own generator (so the
    engine is seed-for-seed comparable with the autograd path), and batch
    norm computes batch statistics and updates the float64 running
    estimates in place.  Plans live in a bounded per-engine LRU keyed by
    the exact batch shape (``plan_entries``).

Image-major convolution with one weight contraction
    Convolutions share the compiled image-major lowering of the sibling
    engines: each image's ``(C·k·k, oh·ow)`` window columns stay stashed
    from the forward, so the weight gradient is one contraction of the
    output gradient with them over ``(images, positions)``.

Native losses
    A :class:`TrainLoss` bundles the float64 ``(value, ∂loss/∂logits)``
    seed computation with its autograd twin for the fallback path.
    :data:`CROSS_ENTROPY`, :func:`soft_cross_entropy_loss` (defensive
    distillation's temperature-scaled soft targets) and :data:`MSE`
    (the MagNet autoencoder) cover every loss the repo trains with.

Counters and an autograd fallback
    ``engine.counters`` (:class:`TrainingCounters`) tracks trained
    batches, examples, wall-clock seconds and fallback passes.  Networks
    containing unknown layer types transparently fall back to a float64
    ``training=True`` autograd graph, so behaviour never changes — only
    speed.

Parameter binding
    :meth:`parameters_bound` rebinds every parameter array to the engine
    dtype for the duration of a fit, so optimiser updates, parameter
    reads, and gradient math all stay in float32 with zero cast copies,
    then restores float64 on exit (serialisation stays float64 — see
    ``zoo``'s cache-key policy).  In-place optimiser updates are made
    visible to the identity-checked engine caches via
    :meth:`repro.nn.tensor.Tensor.bump_version`.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..verify import guards
from .losses import cross_entropy, mse, one_hot, soft_cross_entropy
from .plan import DEFAULT_PLAN_ENTRIES, CompiledPlan
from .plan import supports as plan_supports
from .tensor import Tensor

if TYPE_CHECKING:  # pragma: no cover - circular import avoided at runtime
    from .network import Network

__all__ = [
    "TrainingEngine",
    "TrainingCounters",
    "TrainLoss",
    "CROSS_ENTROPY",
    "MSE",
    "soft_cross_entropy_loss",
]


@dataclass
class TrainingCounters:
    """Cumulative work counters of one training engine."""

    batches: int = 0  # train_batch calls answered
    examples: int = 0  # rows pushed through a fused train step
    plan_hits: int = 0  # batches served by a cached compiled plan
    plan_misses: int = 0  # plan compilations (new batch shape, or cache off)
    seconds: float = 0.0  # wall clock inside forward/backward kernels
    fallbacks: int = 0  # batches served by the float64 autograd path

    def as_dict(self) -> dict[str, float]:
        return asdict(self)

    def snapshot(self) -> "TrainingCounters":
        return replace(self)


@dataclass(frozen=True)
class TrainLoss:
    """A loss the engine can seed natively.

    ``value_and_seed`` maps float64 ``(logits, targets)`` to the scalar
    loss value and the float64 cotangent ``∂loss/∂logits``; ``tensor_fn``
    is the equivalent autograd loss used by the fallback path (and by the
    legacy loop when the engine is disabled).
    """

    name: str
    value_and_seed: Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]
    tensor_fn: Callable[[Tensor, np.ndarray], Tensor]


def _cross_entropy_seed(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE over integer labels: seed is ``(softmax − onehot) / N``."""
    n = len(logits)
    rows = np.arange(n)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    total = exps.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(total)
    value = -float(log_probs[rows, labels].mean())
    seed = exps / total
    seed[rows, labels] -= 1.0
    seed /= n
    return value, seed


CROSS_ENTROPY = TrainLoss("cross_entropy", _cross_entropy_seed, cross_entropy)


def soft_cross_entropy_loss(temperature: float = 1.0) -> TrainLoss:
    """Temperature-scaled soft-target CE (defensive distillation's objective)."""

    def value_and_seed(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
        n = len(logits)
        scaled = logits / temperature
        shifted = scaled - scaled.max(axis=-1, keepdims=True)
        exps = np.exp(shifted)
        total = exps.sum(axis=-1, keepdims=True)
        log_probs = shifted - np.log(total)
        value = -float((log_probs * targets).sum(axis=-1).mean())
        mass = targets.sum(axis=-1, keepdims=True)
        seed = (exps / total * mass - targets) / (n * temperature)
        return value, seed

    def tensor_fn(logits: Tensor, targets: np.ndarray) -> Tensor:
        return soft_cross_entropy(logits, targets, temperature=temperature)

    return TrainLoss(f"soft_cross_entropy@T={temperature}", value_and_seed, tensor_fn)


def _mse_seed(predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over every element: seed is ``2·diff / size``."""
    diff = predictions - targets
    value = float(np.mean(diff * diff))
    return value, diff * (2.0 / diff.size)


MSE = TrainLoss("mse", _mse_seed, mse)


class _FallbackTrainContext:
    """Autograd-backed training step for networks with unknown layers."""

    __slots__ = ("network", "logits", "batch_len")

    def __init__(self, network: "Network", x: np.ndarray):
        self.network = network
        self.logits = network.forward(Tensor(np.asarray(x, dtype=np.float64)), training=True)
        self.batch_len = len(x)

    def run(self, loss: TrainLoss, targets: np.ndarray, scale: float) -> float:
        loss_t = loss.tensor_fn(self.logits, targets)
        loss_t.backward(np.full(loss_t.data.shape, scale))
        return float(loss_t.data)


class _NativeTrainContext:
    """Handle onto one compiled train-mode forward, consumable by backward.

    Carries the plan plus the generation stamp of the forward that filled
    its buffers; a newer forward through the same plan makes the context
    stale (the plan raises on use — see :func:`repro.verify.guards.stale_context`).
    """

    __slots__ = ("plan", "generation", "batch_len")

    def __init__(self, plan: CompiledPlan, generation: int, batch_len: int):
        self.plan = plan
        self.generation = generation
        self.batch_len = batch_len


class TrainingEngine:
    """Fused, instrumented, dtype-configurable parameter gradients for one network.

    Parameters
    ----------
    network:
        The :class:`~repro.nn.network.Network` to train.  Parameters are
        read live; rebinding (``load_state``, :meth:`parameters_bound`) or
        version-bumped in-place optimiser updates invalidate the cast
        cache automatically.
    dtype:
        Compute dtype of the fused kernels.  ``float32`` (default) roughly
        doubles BLAS throughput; ``float64`` tracks the autograd reference
        to ~1e-10.
    native:
        ``False`` skips plan compilation, forcing every batch onto the
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
        native: bool = True,
        plan_entries: int = DEFAULT_PLAN_ENTRIES,
    ):
        if plan_entries < 0:
            raise ValueError("plan_entries must be >= 0")
        self.network = network
        self.dtype = np.dtype(dtype)
        self.forced_fallback = not native
        self.plan_entries = plan_entries
        self.counters = TrainingCounters()
        # param-id -> (source array ref, version, cast copy).  When the
        # parameters are bound to the engine dtype the "cast" is the live
        # array itself, so optimiser updates need no copy at all.
        self._casts: dict[int, tuple[np.ndarray, int, np.ndarray]] = {}
        # batch shape -> CompiledPlan (train mode, LRU); plans depend only
        # on shapes — parameter changes flow through the cast cache.
        self._plans: "OrderedDict[tuple[int, ...], CompiledPlan]" = OrderedDict()
        self._native = bool(native) and plan_supports(network)

    # -- public API -----------------------------------------------------------

    @property
    def supports_native(self) -> bool:
        """Whether every layer runs on the compiled raw-NumPy plans."""
        return self._native

    def reset_counters(self) -> None:
        self.counters = TrainingCounters()

    def invalidate(self) -> None:
        """Drop every cached parameter cast and compiled plan."""
        self._casts.clear()
        self._plans.clear()

    @contextmanager
    def parameters_bound(self):
        """Rebind parameters to the engine dtype for a training run.

        Inside the context every ``p.data`` *is* the engine-dtype array —
        optimiser updates, kernel reads and gradient accumulation share it
        with zero casts.  On exit parameters are restored to float64 (the
        serialisation dtype), so ``network.state()`` after training is
        float64 exactly as before.  A no-op for float64 engines and for
        fallback (non-native) networks, which train in float64 anyway.
        """
        params = self.network.parameters()
        rebind = self.supports_native and self.dtype != np.float64
        if rebind:
            for p in params:
                p.data = np.ascontiguousarray(p.data, dtype=self.dtype)
        try:
            yield
        finally:
            if rebind:
                for p in params:
                    p.data = p.data.astype(np.float64)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        """One training-mode forward pass returning ``(logits, context)``.

        Dropout masks are drawn and batch-norm running statistics are
        updated, exactly as ``network.forward(..., training=True)`` would.
        This is the advanced API; most callers want :meth:`train_batch`.
        """
        x = np.ascontiguousarray(np.asarray(x), dtype=self.dtype)
        start = time.perf_counter()
        if not self._native:
            ctx: object = _FallbackTrainContext(self.network, x)
            out = ctx.logits.data.astype(self.dtype)
        else:
            plan = self._plan_for(x.shape)
            buffer, generation = plan.run_forward(x)
            # Boundary copy: the plan reuses the logits buffer on the next
            # same-shape forward; callers own what they are handed.
            out = buffer.copy()
            ctx = _NativeTrainContext(plan, generation, len(x))
        self.counters.seconds += time.perf_counter() - start
        return out, ctx

    def backward(self, ctx: object, seed: np.ndarray) -> None:
        """Accumulate ``∂Σ(seed·Z)/∂θ`` into every parameter's ``.grad``.

        Native contexts replay the compiled plan in reverse; the input
        gradient is discarded (training needs only parameter gradients).
        """
        assert isinstance(ctx, _NativeTrainContext)
        start = time.perf_counter()
        seed = np.ascontiguousarray(np.asarray(seed), dtype=self.dtype)
        ctx.plan.run_backward(seed, ctx.generation)
        self.counters.seconds += time.perf_counter() - start

    def train_batch(
        self,
        x: np.ndarray,
        targets: np.ndarray,
        loss: TrainLoss = CROSS_ENTROPY,
        scale: float = 1.0,
    ) -> tuple[float, np.ndarray]:
        """One fused forward + loss + parameter-gradient pass.

        Accumulates ``scale · ∂loss/∂θ`` into each parameter's ``.grad``
        (callers zero grads and step the optimiser) and returns the
        *unscaled* loss value together with the logits (engine dtype) so
        the training loop can track accuracy without a second forward.
        ``scale`` lets adversarial training mix weighted clean and
        adversarial terms into one accumulated gradient.
        """
        if len(x) == 0:
            # Loss means over the batch; an empty batch would nan-propagate
            # into every parameter gradient.  No examples → no loss, no grads.
            shape = (0,) + tuple(self.network.output_shape)
            return 0.0, np.zeros(shape, dtype=self.dtype)
        self.counters.batches += 1
        self.counters.examples += len(x)
        targets = np.asarray(targets)
        logits, ctx = self.forward(x)
        if isinstance(ctx, _FallbackTrainContext):
            start = time.perf_counter()
            self.counters.fallbacks += 1
            value = ctx.run(loss, targets, scale)
            self.counters.seconds += time.perf_counter() - start
            self._check_guards(value, logits)
            return value, logits
        value, seed = loss.value_and_seed(logits.astype(np.float64), targets)
        if scale != 1.0:
            seed = seed * scale
        self.backward(ctx, seed)
        self._check_guards(value, logits)
        return value, logits

    def _check_guards(self, value: float, logits: np.ndarray) -> None:
        """Boundary guards on everything a training step hands back."""
        if not guards.active():
            return
        guards.check_finite("TrainingEngine.train_batch loss", np.asarray(value))
        guards.check_output("TrainingEngine.train_batch logits", logits, self.dtype)
        for param in self.network.parameters():
            if param.grad is not None:
                guards.check_finite("TrainingEngine.train_batch grad", param.grad)
                guards.check_update_safe("TrainingEngine.train_batch", param)

    # -- plan cache ------------------------------------------------------------

    def _plan_for(self, shape: tuple[int, ...]) -> CompiledPlan:
        key = tuple(shape)
        plan = self._plans.get(key)
        if plan is not None:
            self.counters.plan_hits += 1
            self._plans.move_to_end(key)
            return plan
        self.counters.plan_misses += 1
        plan = CompiledPlan(
            self.network, key, self.dtype, "train", self._param, accumulate=self._accumulate
        )
        if self.plan_entries > 0:
            self._plans[key] = plan
            while len(self._plans) > self.plan_entries:
                self._plans.popitem(last=False)
        return plan

    # -- parameter reads and gradient accumulation -----------------------------

    def _param(self, param: Tensor) -> np.ndarray:
        """Live engine-dtype view of a parameter (identity+version-checked).

        When :meth:`parameters_bound` is active the stored array already
        has the engine dtype, so this returns it without copying.
        """
        source = param.data
        entry = self._casts.get(id(param))
        if entry is None or entry[0] is not source or entry[1] != param.version:
            entry = (source, param.version, np.ascontiguousarray(source, dtype=self.dtype))
            self._casts[id(param)] = entry
        return entry[2]

    @staticmethod
    def _accumulate(param: Tensor, grad: np.ndarray) -> None:
        if param.grad is None:
            param.grad = grad
        else:
            param.grad += grad
