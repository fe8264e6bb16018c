"""The DCN corrector: cheap region-based label recovery (paper Sec. 4).

The corrector is the paper's improvement over Cao & Gong's region-based
classifier: the same hypercube-sampling majority vote, but with only
``m = 50`` samples (Fig. 4 shows accuracy is nearly flat in ``m`` while
runtime is linear), and — crucially — run only on the inputs the detector
flags, not on everything.
"""

from __future__ import annotations

import numpy as np

from ..defenses.region import region_vote_fused
from ..nn.network import Network

__all__ = ["Corrector"]


class Corrector:
    """Hypercube-vote label recovery around a (suspected adversarial) input.

    Parameters
    ----------
    radius:
        Hypercube half-width ``r`` (paper: 0.3 for MNIST, 0.02 for CIFAR).
    samples:
        Votes per input ``m`` (paper: 50).
    """

    def __init__(self, network: Network, radius: float, samples: int = 50, seed: int = 0):
        if samples < 1:
            raise ValueError("samples must be >= 1")
        self.network = network
        self.radius = radius
        self.samples = samples
        self.seed = seed

    def correct(self, x: np.ndarray) -> np.ndarray:
        """Recover labels for a batch of flagged inputs.

        Deterministic in ``(seed, row)``: every input's vote noise comes
        from its own :func:`~repro.defenses.region.input_rng` stream, so a
        recovered label depends neither on how many corrections preceded
        this one nor on which other inputs share its batch.  That makes
        :meth:`correct` and :meth:`correct_fused` bitwise-interchangeable.
        """
        return region_vote_fused(self.network, x, self.radius, self.samples, self.seed)

    def correct_fused(self, x: np.ndarray) -> np.ndarray:
        """Recover labels for flagged rows fused from *many* requests.

        One noise draw, one engine pass, one vectorised vote over the
        stacked ``(n_flagged, *input_shape)`` rows — instead of one
        region vote per originating request.  Labels are bitwise-identical
        to per-request :meth:`correct` on the same rows.
        """
        return region_vote_fused(self.network, x, self.radius, self.samples, self.seed)
