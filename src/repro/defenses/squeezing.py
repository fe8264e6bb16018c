"""Feature squeezing (Xu, Evans, Qi — NDSS 2018).

Detection-only related work the paper discusses (Sec. 2.3): squeeze the
input (bit-depth reduction, median smoothing), and flag it as adversarial
when the model's softmax prediction moves too far between the original and
squeezed versions.  Included as a comparison detector for the ablation
benches; like the paper notes, it cannot recover the right label by itself.
"""

from __future__ import annotations

import numpy as np

from ..datasets.dataset import PIXEL_MIN
from ..nn.network import Network

__all__ = ["reduce_bit_depth", "median_smooth", "FeatureSqueezingDetector"]


def reduce_bit_depth(x: np.ndarray, bits: int) -> np.ndarray:
    """Quantise pixel values to ``2**bits`` levels (box-aware)."""
    if not 1 <= bits <= 8:
        raise ValueError("bits must be in 1..8")
    levels = 2**bits - 1
    unit = np.clip(np.asarray(x) - PIXEL_MIN, 0.0, 1.0)  # -> [0, 1]
    squeezed = np.round(unit * levels) / levels
    return squeezed + PIXEL_MIN


def median_smooth(x: np.ndarray, size: int = 2) -> np.ndarray:
    """Median filter over the spatial axes of an NCHW batch."""
    from scipy import ndimage  # deferred: SciPy costs ~0.5 s of process start-up

    x = np.asarray(x)
    return ndimage.median_filter(x, size=(1, 1, size, size))


class FeatureSqueezingDetector:
    """Joint detector over bit-depth and median-smoothing squeezers.

    The detection score is the maximum L1 distance between the softmax of
    the original input and of any squeezed version; inputs scoring above
    ``threshold`` are flagged adversarial.
    """

    name = "feature-squeezing"

    def __init__(self, network: Network, bits: int = 4, smooth_size: int = 2, threshold: float = 0.5):
        self.network = network
        self.bits = bits
        self.smooth_size = smooth_size
        self.threshold = threshold

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Maximum softmax-L1 displacement across the squeezers."""
        x = np.asarray(x, dtype=np.float64)
        engine = self.network.engine
        reference = engine.softmax(x)
        distances = []
        for squeezed in (reduce_bit_depth(x, self.bits), median_smooth(x, self.smooth_size)):
            probs = engine.softmax(squeezed)
            distances.append(np.abs(probs - reference).sum(axis=-1))
        return np.maximum.reduce(distances)

    def is_adversarial(self, x: np.ndarray) -> np.ndarray:
        return self.scores(x) > self.threshold

    def calibrate(self, benign: np.ndarray, false_positive_rate: float = 0.05) -> float:
        """Set ``threshold`` so at most this fraction of benign inputs is flagged."""
        scores = self.scores(benign)
        self.threshold = float(np.quantile(scores, 1.0 - false_positive_rate))
        return self.threshold
