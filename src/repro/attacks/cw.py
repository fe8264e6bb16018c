"""The Carlini & Wagner attacks under the L2, L0 and L∞ metrics.

Faithful reimplementations of the three attacks of "Towards Evaluating the
Robustness of Neural Networks" (S&P 2017), which the paper uses for its
entire evaluation (Sec. 5.1):

* **L2** — change of variable ``x' = tanh(w)/2`` (box-safe for the paper's
  ``[-0.5, 0.5]`` data), objective ``‖x'-x‖² + c·f(x')`` with
  ``f(x') = max(max_{i≠t} Z(x')_i − Z(x')_t, −κ)``, Adam optimisation and
  binary search over ``c``.
* **L0** — iterative: run the L2 attack restricted to an allowed pixel set,
  then use ``∇f`` to freeze the least important pixels until the L2 attack
  can no longer succeed.
* **L∞** — penalty formulation ``c·f(x+δ) + Σᵢ max(|δᵢ|−τ, 0)`` with τ
  shrinking geometrically while the attack keeps succeeding.

All three are batched: one forward/backward pass drives every example (and
every target) simultaneously, which is what makes the paper's 100-seed ×
9-target evaluation feasible on this NumPy substrate.

The inner loops run on the network's :class:`~repro.nn.grad_engine.GradientEngine`
(float32 fused kernels by default): the engine supplies ``∂f/∂x'``, the
logits and the raw margin in one pass, while the change-of-variable algebra
(tanh transform, distance terms, Adam state) stays in float64 NumPy here so
box arithmetic — e.g. frozen L0 pixels — remains exact.  No attack builds
an autograd graph; the float64 margin reference the parity tests check the
engine against lives with them (``tests/nn/test_grad_engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.grad_engine import margin_seed
from ..nn.network import Network
from .base import AttackResult

__all__ = ["CarliniWagnerL2", "CarliniWagnerL0", "CarliniWagnerLinf", "AdamState"]

# Keep arctanh finite at the box boundary.
_ATANH_SCALE = 1.0 - 1e-6


class AdamState:
    """Standalone Adam optimiser over a raw array (the attack variable)."""

    def __init__(self, shape: tuple[int, ...], lr: float, beta1: float = 0.9, beta2: float = 0.999):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.shape = tuple(shape)
        # m/v are allocated lazily in the dtype of the first gradient so a
        # float32 attack keeps float32 optimiser state end-to-end.
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.t = 0

    def update(self, values: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Return ``values`` after one Adam step against ``grad``."""
        grad = np.asarray(grad)
        if self.m is None:
            self.m = np.zeros(self.shape, dtype=grad.dtype)
            self.v = np.zeros(self.shape, dtype=grad.dtype)
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad**2
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        return values - self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def _feature_axes(x: np.ndarray) -> tuple[int, ...]:
    return tuple(range(1, x.ndim))


def _to_w(x: np.ndarray) -> np.ndarray:
    """Inverse of the tanh box transform: ``w = arctanh(2x)``."""
    return np.arctanh(np.clip(2.0 * x, -_ATANH_SCALE, _ATANH_SCALE))


@dataclass
class _L2State:
    """Best-so-far tracker for the L2 inner loop."""

    best_adv: np.ndarray
    best_l2: np.ndarray
    found: np.ndarray


class CarliniWagnerL2:
    """CW attack under the L2 metric (targeted).

    Parameters
    ----------
    confidence:
        κ — required margin of the target logit over the runner-up.
    binary_search_steps / initial_c:
        Search schedule for the fidelity/attack trade-off constant ``c``.
    max_iterations / learning_rate:
        Adam schedule of the inner optimisation.
    abort_early:
        Stop an inner loop that has plateaued (Carlini's 0.9999 rule).
    """

    norm = "l2"

    def __init__(
        self,
        confidence: float = 0.0,
        binary_search_steps: int = 5,
        max_iterations: int = 200,
        learning_rate: float = 0.1,
        initial_c: float = 0.1,
        abort_early: bool = True,
    ):
        self.confidence = confidence
        self.binary_search_steps = binary_search_steps
        self.max_iterations = max_iterations
        self.learning_rate = learning_rate
        self.initial_c = initial_c
        self.abort_early = abort_early

    def perturb(
        self,
        network: Network,
        x: np.ndarray,
        source_labels: np.ndarray,
        target_labels: np.ndarray,
        mask: np.ndarray | None = None,
        initial_guess: np.ndarray | None = None,
    ) -> AttackResult:
        """Craft targeted L2 adversarial examples.

        Parameters
        ----------
        mask:
            Optional per-example 0/1 array; zero entries are frozen at their
            original values (used by the L0 attack).
        initial_guess:
            Optional warm-start images (used by the L0 attack's rounds).
        """
        x = np.asarray(x, dtype=np.float64)
        source_labels = np.asarray(source_labels)
        target_labels = np.asarray(target_labels)
        n = len(x)

        c = np.full(n, self.initial_c)
        c_low = np.zeros(n)
        c_high = np.full(n, 1e10)
        state = _L2State(best_adv=x.copy(), best_l2=np.full(n, np.inf), found=np.zeros(n, dtype=bool))
        w_start = _to_w(x if initial_guess is None else np.asarray(initial_guess))

        for _ in range(self.binary_search_steps):
            w = w_start.copy()
            adam = AdamState(w.shape, self.learning_rate)
            previous_loss = np.inf
            check_every = max(1, self.max_iterations // 10)
            for iteration in range(self.max_iterations):
                loss_total, adv, l2, margin, grad = self._objective(network, w, x, target_labels, c, mask)
                self._record_best(state, adv, l2, margin, target_labels)
                w = adam.update(w, grad)
                if self.abort_early and (iteration + 1) % check_every == 0:
                    if loss_total > previous_loss * 0.9999:
                        break
                    previous_loss = loss_total
            # Evaluate the final iterate too.
            _, adv, l2, margin, _ = self._objective(
                network, w, x, target_labels, c, mask, compute_grad=False
            )
            self._record_best(state, adv, l2, margin, target_labels)
            succeeded_now = margin <= 0.0
            c_high = np.where(succeeded_now, np.minimum(c_high, c), c_high)
            c_low = np.where(succeeded_now, c_low, np.maximum(c_low, c))
            unbounded = c_high >= 1e9
            c = np.where(unbounded, c * 10.0, (c_low + c_high) / 2.0)

        return AttackResult(x, state.best_adv, state.found.copy(), source_labels, target_labels)

    def _objective(
        self,
        network: Network,
        w: np.ndarray,
        x: np.ndarray,
        target_labels: np.ndarray,
        c: np.ndarray,
        mask: np.ndarray | None,
        compute_grad: bool = True,
    ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """One forward (and optionally backward) pass of the CW-L2 objective.

        The network pass runs on the gradient engine (float32 kernels by
        default); the tanh transform, distance terms and chain rule back to
        ``w`` stay in float64 here.  Returns ``(total_loss, adversarial,
        l2_sq, margin, grad_w)``.
        """
        tanh_w = np.tanh(w)
        candidate = tanh_w * 0.5
        if mask is not None:
            candidate = x * (1.0 - mask) + candidate * mask
        delta = candidate - x
        axes = _feature_axes(x)
        c_cols = c.reshape((-1,) + (1,) * len(axes))
        l2_sq = (delta * delta).sum(axis=axes)
        grad = None
        if compute_grad:
            grad_f, _, margin = network.grad_engine.margin_input_grad(
                candidate, target_labels, self.confidence
            )
            grad_candidate = 2.0 * delta + c_cols * grad_f
            if mask is not None:
                grad_candidate = grad_candidate * mask
            grad = grad_candidate * (0.5 * (1.0 - tanh_w * tanh_w))
        else:
            logits = network.engine.logits(candidate, memo=False)
            _, margin = margin_seed(logits, target_labels, self.confidence)
        # Raw margin (without the hinge) tells us about actual success.
        loss_total = float((l2_sq + c * np.maximum(margin, 0.0)).sum())
        return loss_total, candidate, l2_sq, margin, grad

    @staticmethod
    def _record_best(
        state: _L2State, adv: np.ndarray, l2_sq: np.ndarray, margin: np.ndarray, targets: np.ndarray
    ) -> None:
        success = margin <= 0.0
        better = success & (l2_sq < state.best_l2)
        if better.any():
            state.best_adv[better] = adv[better]
            state.best_l2[better] = l2_sq[better]
            state.found[better] = True


class CarliniWagnerL0:
    """CW attack under the L0 metric (targeted).

    Repeatedly runs the (masked) L2 attack and freezes the pixels whose
    product of ``∇f`` and achieved change is smallest — those contribute the
    least to reaching the target class — until the L2 attack fails.  The
    last successful iterate gives the minimal pixel set.

    Parameters
    ----------
    freeze_fraction:
        Fraction of the still-free pixels frozen after each successful
        round (at least one pixel is always frozen).
    max_rounds:
        Upper bound on shrink rounds.
    """

    norm = "l0"

    def __init__(
        self,
        confidence: float = 0.0,
        max_rounds: int = 12,
        freeze_fraction: float = 0.3,
        inner: CarliniWagnerL2 | None = None,
    ):
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if not 0.0 < freeze_fraction < 1.0:
            raise ValueError("freeze_fraction must be in (0, 1)")
        self.confidence = confidence
        self.max_rounds = max_rounds
        self.freeze_fraction = freeze_fraction
        self.inner = inner or CarliniWagnerL2(
            confidence=confidence, binary_search_steps=3, max_iterations=120, initial_c=1.0
        )

    def perturb(
        self,
        network: Network,
        x: np.ndarray,
        source_labels: np.ndarray,
        target_labels: np.ndarray,
    ) -> AttackResult:
        x = np.asarray(x, dtype=np.float64)
        source_labels = np.asarray(source_labels)
        target_labels = np.asarray(target_labels)
        n = len(x)

        mask = np.ones_like(x)
        best_adv = x.copy()
        found = np.zeros(n, dtype=bool)
        active = np.ones(n, dtype=bool)
        guess: np.ndarray | None = None

        for _ in range(self.max_rounds):
            if not active.any():
                break
            idx = np.flatnonzero(active)
            result = self.inner.perturb(
                network,
                x[idx],
                source_labels[idx],
                target_labels[idx],
                mask=mask[idx],
                initial_guess=None if guess is None else guess[idx],
            )
            succeeded = result.success
            # Examples whose restricted attack failed are finished.
            active[idx[~succeeded]] = False
            if not succeeded.any():
                break
            ok = idx[succeeded]
            best_adv[ok] = result.adversarial[succeeded]
            found[ok] = True
            if guess is None:
                guess = x.copy()
            guess[ok] = result.adversarial[succeeded]
            self._shrink_masks(network, x, best_adv, mask, target_labels, ok, active)

        return AttackResult(x, best_adv, found, source_labels, target_labels)

    def _shrink_masks(
        self,
        network: Network,
        x: np.ndarray,
        adv: np.ndarray,
        mask: np.ndarray,
        target_labels: np.ndarray,
        indices: np.ndarray,
        active: np.ndarray,
    ) -> None:
        """Freeze the least-important free pixels of each example in ``indices``."""
        # ∇f = ∇(Z_other − Z_target); the dominant term near success is the
        # target-logit gradient, which Carlini's code also uses.
        grad_target = network.grad_engine.logit_input_grad(adv[indices], target_labels[indices])
        importance = np.abs(grad_target) * np.abs(adv[indices] - x[indices])
        for row, example in enumerate(indices):
            free = mask[example] > 0.5
            free_count = int(free.sum())
            if free_count <= 1:
                active[example] = False
                continue
            scores = np.where(free, importance[row], np.inf)
            freeze_count = max(1, int(free_count * self.freeze_fraction))
            freeze_count = min(freeze_count, free_count - 1)
            flat = scores.reshape(-1)
            to_freeze = np.argpartition(flat, freeze_count - 1)[:freeze_count]
            mask[example].reshape(-1)[to_freeze] = 0.0


class CarliniWagnerLinf:
    """CW attack under the L∞ metric (targeted).

    Minimises ``c·f(x') + Σᵢ max(|x'_i − x_i| − τ, 0)`` with the tanh box
    transform; whenever the attack succeeds with ``max|δ| < τ`` the
    threshold shrinks (τ ← 0.9·max|δ|), and when it fails ``c`` doubles.
    """

    norm = "linf"

    def __init__(
        self,
        confidence: float = 0.0,
        max_rounds: int = 10,
        max_iterations: int = 150,
        learning_rate: float = 0.01,
        initial_c: float = 1.0,
        max_c: float = 200.0,
        tau_decay: float = 0.9,
    ):
        if max_rounds < 1 or max_iterations < 1:
            raise ValueError("max_rounds and max_iterations must be >= 1")
        if not 0.0 < tau_decay < 1.0:
            raise ValueError("tau_decay must be in (0, 1)")
        self.confidence = confidence
        self.max_rounds = max_rounds
        self.max_iterations = max_iterations
        self.learning_rate = learning_rate
        self.initial_c = initial_c
        self.max_c = max_c
        self.tau_decay = tau_decay

    def perturb(
        self,
        network: Network,
        x: np.ndarray,
        source_labels: np.ndarray,
        target_labels: np.ndarray,
    ) -> AttackResult:
        x = np.asarray(x, dtype=np.float64)
        source_labels = np.asarray(source_labels)
        target_labels = np.asarray(target_labels)
        n = len(x)
        axes = _feature_axes(x)

        tau = np.full(n, 1.0)
        c = np.full(n, self.initial_c)
        best_adv = x.copy()
        best_linf = np.full(n, np.inf)
        found = np.zeros(n, dtype=bool)
        active = np.ones(n, dtype=bool)
        w = _to_w(x)

        for _ in range(self.max_rounds):
            if not active.any():
                break
            adam = AdamState(w.shape, self.learning_rate)
            tau_cols = tau.reshape((-1,) + (1,) * len(axes))
            c_cols = c.reshape((-1,) + (1,) * len(axes))
            for _ in range(self.max_iterations):
                tanh_w = np.tanh(w)
                candidate = tanh_w * 0.5
                delta = candidate - x
                grad_f, _, _ = network.grad_engine.margin_input_grad(
                    candidate, target_labels, self.confidence
                )
                # ∂ Σ max(|δ|−τ, 0) / ∂ candidate: sign(δ) where the excess
                # hinge is active (boundary follows the autograd convention).
                penalty_grad = np.sign(delta) * (np.abs(delta) - tau_cols >= 0.0)
                grad_candidate = c_cols * grad_f + penalty_grad
                w = adam.update(w, grad_candidate * (0.5 * (1.0 - tanh_w * tanh_w)))

            candidate = np.tanh(w) * 0.5
            logits = network.engine.logits(candidate, memo=False)
            _, margin = margin_seed(logits, target_labels, self.confidence)
            linf = np.abs(candidate - x).reshape(n, -1).max(axis=1)
            succeeded = (margin <= 0.0) & active
            improved = succeeded & (linf < best_linf)
            best_adv[improved] = candidate[improved]
            best_linf[improved] = linf[improved]
            found |= succeeded
            # Success: tighten tau below what was achieved.  Failure: raise c.
            tau = np.where(succeeded, np.minimum(tau, linf) * self.tau_decay, tau)
            c = np.where(succeeded, c, c * 2.0)
            active &= (c <= self.max_c) & (tau > 1.0 / 256.0)

        return AttackResult(x, best_adv, found, source_labels, target_labels)
