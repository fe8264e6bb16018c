"""Box-constrained L-BFGS attack (Szegedy et al., 2014).

The original formulation of Eq. 1: minimise
``c · CE(H(x'), t) + ‖x' − x‖²`` subject to the pixel box, solved with
scipy's L-BFGS-B, with a doubling line search over ``c`` until the first
adversarial solution appears.
"""

from __future__ import annotations

import numpy as np

from ..datasets.dataset import PIXEL_MAX, PIXEL_MIN
from ..nn.network import Network
from .base import AttackResult

__all__ = ["LBFGSAttack"]


class LBFGSAttack:
    """Targeted L2 attack using box-constrained L-BFGS.

    Parameters
    ----------
    initial_c / c_search_steps:
        Doubling schedule for the loss constant.
    max_iterations:
        L-BFGS-B iteration cap per solve.
    """

    norm = "l2"

    def __init__(self, initial_c: float = 0.1, c_search_steps: int = 6, max_iterations: int = 60):
        self.initial_c = initial_c
        self.c_search_steps = c_search_steps
        self.max_iterations = max_iterations

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
        adversarial = np.stack(
            [self._attack_one(network, x[i], int(target_labels[i])) for i in range(len(x))]
        )
        success = network.engine.predict(adversarial, memo=False) == target_labels
        return AttackResult(x, adversarial, success, source_labels, target_labels)

    def _attack_one(self, network: Network, image: np.ndarray, target: int) -> np.ndarray:
        from scipy import optimize  # deferred: SciPy costs ~0.5 s of process start-up

        shape = image.shape
        bounds = [(PIXEL_MIN, PIXEL_MAX)] * image.size
        c = self.initial_c
        best = image

        engine = network.grad_engine

        for _ in range(self.c_search_steps):
            def objective(flat: np.ndarray, c=c) -> tuple[float, np.ndarray]:
                candidate = flat.reshape(shape)
                logits, ctx = engine.forward(candidate[None])
                # CE and its softmax seed in float64 (scipy wants float64
                # gradients anyway); the network pass ran in engine dtype.
                z = logits[0].astype(np.float64)
                shifted = z - z.max()
                log_norm = np.log(np.exp(shifted).sum())
                ce = log_norm - shifted[target]
                seed = np.exp(shifted - log_norm)[None, :]
                seed[0, target] -= 1.0
                grad_ce = engine.backward(ctx, c * seed)[0].astype(np.float64)
                diff = candidate - image
                loss = c * ce + (diff * diff).sum()
                return float(loss), (grad_ce + 2.0 * diff).reshape(-1)

            result = optimize.minimize(
                objective,
                image.reshape(-1),
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": self.max_iterations},
            )
            candidate = result.x.reshape(shape)
            if network.engine.predict(candidate[None], memo=False)[0] == target:
                return candidate
            c *= 2.0
        return best
