"""The Detector-Corrector Network (paper Sec. 4, Figs. 2-3).

DCN wraps an unmodified protected DNN with two stages:

1. The model predicts; the detector inspects the resulting logits.
2. Inputs flagged adversarial are re-labelled by the corrector's hypercube
   vote; benign-looking inputs keep the model's label (one extra tiny
   forward pass of overhead — the detector has ~400 parameters).

Because false negatives (benign flagged adversarial) are also corrected by
the region vote, which agrees with the model on benign inputs, DCN keeps
the standard model's benign accuracy (Table 3).
"""

from __future__ import annotations

import numpy as np

from ..datasets import Dataset
from ..nn.network import Network
from .corrector import Corrector
from .detector import LogitDetector, train_detector
from .radius import select_radius

__all__ = ["DCN"]


class DCN:
    """Detector-Corrector Network around a protected model."""

    name = "dcn"

    def __init__(self, network: Network, detector: LogitDetector, corrector: Corrector):
        self.network = network
        self.detector = detector
        self.corrector = corrector

    @classmethod
    def build(
        cls,
        network: Network,
        dataset: Dataset,
        radius: float | None = None,
        samples: int = 50,
        detector_seeds: int = 60,
        seed: int = 101,
        cache: bool = True,
    ) -> "DCN":
        """Train a detector and assemble a DCN with the paper's parameters.

        ``radius`` defaults to the calibrated value from
        :func:`repro.core.radius.select_radius`, which reuses the detector's
        CW-L2 training pool as the validation set.
        """
        detector = train_detector(network, dataset, num_seeds=detector_seeds, seed=seed, cache=cache)
        if radius is None:
            radius = select_radius(network, dataset, num_seeds=detector_seeds, seed=seed, cache=cache)
        corrector = Corrector(network, radius=radius, samples=samples)
        return cls(network, detector, corrector)

    def classify(self, x: np.ndarray) -> np.ndarray:
        labels, _ = self.classify_detailed(x)
        return labels

    def classify_detailed(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Classify and also report which inputs activated the corrector.

        Returns ``(labels, flagged)``.
        """
        # No dtype coercion: a float32 batch flows straight into the engine
        # (which computes in float32 anyway) without an intermediate float64
        # copy; the corrector canonicalises its own noise streams, so the
        # labels are identical either way.
        x = np.asarray(x)
        # One engine pass classifies everything; only flagged inputs pay
        # the corrector's extra forward passes — at most m each, fewer once
        # a row's vote is decided (the paper's Table 6 win).
        logits = self.network.engine.logits(x)
        labels = logits.argmax(axis=-1)
        flagged = self.detector.is_adversarial(logits)
        if flagged.any():
            labels = labels.copy()
            labels[flagged] = self.corrector.correct(x[flagged])
        return labels, flagged
