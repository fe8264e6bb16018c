"""The training engine: fused parameter gradients for every training loop.

:class:`TrainingEngine` is the :class:`~repro.nn.engine.PlanEngine` in
``train`` mode.  It serves the parameter gradients behind
:func:`repro.nn.train.fit`: the zoo models, defensive distillation,
adversarial training, the MagNet autoencoder, the detector MLP and the
black-box substitute fits.  Each step runs a train-mode
:class:`~repro.nn.plan.CompiledPlan` that accumulates ``∂loss/∂θ``
straight into each parameter's ``.grad`` buffer:

Training-mode plans
    Dropout draws its inverted mask from the layer's own generator, so the
    engine is seed-for-seed comparable with the autograd path.

Image-blocked weight gradients
    A convolution's weight gradient lowers each image block's
    ``(C·k·k, positions)`` window columns again from the frame the forward
    left intact and adds the per-image products in image order; the
    gradient's junk columns are zero, so the row-padded positions add
    nothing.

Native losses
    A :class:`TrainLoss` names the float64 ``(value, ∂loss/∂logits)``
    seed computation the engine backpropagates.  :data:`CROSS_ENTROPY`,
    :func:`soft_cross_entropy_loss` (defensive distillation's
    temperature-scaled soft targets) and :data:`MSE` (the MagNet
    autoencoder) cover every loss the repo trains with.

Parameter binding
    :meth:`TrainingEngine.parameters_bound` rebinds every parameter array
    to the engine dtype for the duration of a fit, so optimiser updates,
    parameter reads and gradient math all stay in float32 with zero cast
    copies, then restores float64 on exit (serialisation stays float64 —
    see ``zoo``'s cache-key policy).  In-place optimiser updates are made
    visible to the identity-checked cast cache via
    :meth:`repro.nn.tensor.Tensor.bump_version`.

``engine.counters`` counts ``train_batch`` calls as ``requests`` and
``batches``.  :func:`train_engine_for` is the one place that decides
whether a fit may swap a network's engine for another dtype.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..verify import guards
from .engine import PlanEngine
from .plan import DEFAULT_PLAN_ENTRIES
from .tensor import Tensor

if TYPE_CHECKING:  # pragma: no cover - circular import avoided at runtime
    from .network import Network

__all__ = [
    "TrainingEngine",
    "TrainLoss",
    "CROSS_ENTROPY",
    "MSE",
    "soft_cross_entropy_loss",
    "train_engine_for",
]


@dataclass(frozen=True)
class TrainLoss:
    """A loss the engine can seed natively.

    ``value_and_seed`` maps float64 ``(logits, targets)`` to the scalar
    loss value and the float64 cotangent ``∂loss/∂logits``.
    """

    name: str
    value_and_seed: Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]


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


CROSS_ENTROPY = TrainLoss("cross_entropy", _cross_entropy_seed)


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

    return TrainLoss(f"soft_cross_entropy@T={temperature}", value_and_seed)


def _mse_seed(predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over every element: seed is ``2·diff / size``."""
    diff = predictions - targets
    value = float(np.mean(diff * diff))
    return value, diff * (2.0 / diff.size)


MSE = TrainLoss("mse", _mse_seed)


class TrainingEngine(PlanEngine):
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
    plan_entries:
        Capacity of the compiled-plan LRU (keyed by exact batch shape).
        ``0`` keeps the plan layer but recompiles per call.
    """

    mode = "train"
    # Set on the degradation ladder's float64 rung: train_engine_for keeps a
    # pinned engine whatever dtype a fit asks for.
    pinned = False

    def __init__(
        self,
        network: "Network",
        dtype: np.dtype | type = np.float32,
        plan_entries: int = DEFAULT_PLAN_ENTRIES,
    ):
        super().__init__(network, dtype, None, plan_entries)

    # -- public API -----------------------------------------------------------

    @contextmanager
    def parameters_bound(self):
        """Rebind parameters to the engine dtype for a training run.

        Inside the context every ``p.data`` *is* the engine-dtype array —
        optimiser updates, kernel reads and gradient accumulation share it
        with zero casts.  On exit parameters are restored to float64 (the
        serialisation dtype), so ``network.state()`` after training is
        float64 exactly as before.  A no-op for float64 engines.
        """
        params = self.network.parameters()
        rebind = self.dtype != np.float64
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

        Dropout masks are drawn exactly as ``network.forward(...,
        training=True)`` would.  This is the advanced API; most callers
        want :meth:`train_batch`.
        """
        return self._run_forward(x)

    def backward(self, ctx: object, seed: np.ndarray) -> None:
        """Accumulate ``∂Σ(seed·Z)/∂θ`` into every parameter's ``.grad``.

        The compiled plan replays in reverse; the input gradient is
        discarded (training needs only parameter gradients).
        """
        self._run_backward(ctx, seed)

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
        self.counters.requests += 1
        self.counters.batches += 1
        self.counters.examples += len(x)
        targets = np.asarray(targets)
        logits, ctx = self.forward(x)
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

    # -- gradient accumulation ------------------------------------------------

    @staticmethod
    def _accumulate(param: Tensor, grad: np.ndarray) -> None:
        if param.grad is None:
            param.grad = grad
        else:
            param.grad += grad


def train_engine_for(network: "Network", dtype) -> TrainingEngine:
    """The network's training engine in ``dtype``, re-attached if it differs.

    A :attr:`~TrainingEngine.pinned` engine (the degradation ladder's
    float64 rung, see :func:`repro.runner.policy.degraded_engines`) is kept
    as-is: replacing it would silently revert the downgrade mid-recovery.
    """
    engine = network.train_engine
    if not engine.pinned and engine.dtype != np.dtype(dtype):
        engine = TrainingEngine(network, dtype=dtype)
        network.attach_train_engine(engine)
    return engine
