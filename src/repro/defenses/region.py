"""Region-based classification (Cao & Gong, ACSAC 2017).

The paper's strongest prior defense and the mechanism its corrector reuses:
instead of classifying the input point, sample ``m`` points uniformly from
the hypercube of radius ``r`` centred on it, classify each with the
underlying DNN, and take the majority vote.  The paper runs RC with the
original parameters (``m = 1000``; ``r = 0.3`` MNIST / ``0.02`` CIFAR) and
shows its corrector achieves the same recovery with ``m = 50``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..datasets.dataset import PIXEL_MAX, PIXEL_MIN
from ..nn.network import Network

__all__ = ["region_vote", "region_vote_fused", "call_rng", "input_rng", "RegionClassifier"]

#: Sub-batch both votes run their flat sample chunks at.  Per-row logits
#: are invariant to batch splitting, and the engine's kernels are faster in
#: cache-sized batches than in one large pass, so a vote keeps a large
#: chunk (amortising Python glue) while the kernels run at this size.
KERNEL_BATCH = 64


def call_rng(seed: int, x: np.ndarray) -> np.random.Generator:
    """Per-call generator derived from a base seed and the input's content.

    A classifier holding one mutable generator answers differently
    depending on how many calls preceded this one — evaluating defenses in
    a different order silently changes their reported accuracy.  Folding a
    digest of the input bytes (and shape) into the seed makes every call a
    pure function of ``(seed, x)``: same input, same vote, in any order.
    """
    x = np.ascontiguousarray(x)
    digest = hashlib.sha256(repr((x.shape, str(x.dtype))).encode())
    digest.update(x.tobytes())
    words = np.frombuffer(digest.digest()[:16], dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence([seed, *map(int, words)]))


def input_rng(seed: int, x: np.ndarray) -> np.random.Generator:
    """Per-*input* generator: a pure function of ``(seed, one example)``.

    Where :func:`call_rng` digests a whole batch (so an input's noise
    depends on which other inputs share its batch), this digests a single
    example's canonical ``float64`` bytes.  Two consequences the serving
    layer depends on:

    * **composition independence** — an input gets the same noise whether
      it is corrected alone, inside its original request, or fused into a
      cross-request corrector batch;
    * **dtype canonicalisation** — a ``float32`` view of the same values
      hashes identically to its exact ``float64`` widening, so the
      engine-dtype fast path and the legacy ``float64`` path vote the
      same way.
    """
    row = np.ascontiguousarray(x, dtype=np.float64)
    digest = hashlib.sha256(repr(row.shape).encode())
    digest.update(row.tobytes())
    words = np.frombuffer(digest.digest()[:16], dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence([seed, *map(int, words)]))


def region_vote(
    network: Network,
    x: np.ndarray,
    radius: float,
    samples: int,
    rng: np.random.Generator,
    batch_size: int = 512,
) -> np.ndarray:
    """Majority-vote labels over hypercube samples around each input.

    Parameters
    ----------
    x:
        Batch of images, shape ``(N, *input_shape)``.
    radius:
        Hypercube half-width ``r``; samples are clipped to the pixel box.
    samples:
        Number of points ``m`` drawn per input.
    batch_size:
        Rows of sampled points drawn per chunk (bounds noise-buffer memory
        and fixes the order the generator is consumed in).  The engine runs
        each chunk in :data:`KERNEL_BATCH`-row sub-batches.

    Returns
    -------
    Labels of shape ``(N,)`` — the mode of the ``m`` sampled predictions.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    num_classes = network.num_classes
    engine = network.engine
    votes = np.zeros((n, num_classes), dtype=np.int64)

    # Sample per input, processed in flat batches to bound memory.  The
    # sampled points are fresh noise, so the engine memo is bypassed.
    per_chunk = max(1, batch_size // max(1, samples))
    for start in range(0, n, per_chunk):
        chunk = x[start : start + per_chunk]
        noise = rng.uniform(-radius, radius, size=(len(chunk), samples) + chunk.shape[1:])
        points = np.clip(chunk[:, None] + noise, PIXEL_MIN, PIXEL_MAX)
        flat = points.reshape((-1,) + chunk.shape[1:])
        labels = engine.predict(flat, batch_size=KERNEL_BATCH, memo=False)
        # One scatter-add replaces the per-row bincount loop: O(1) Python
        # overhead per chunk instead of O(rows).
        rows = np.repeat(np.arange(start, start + len(chunk)), samples)
        np.add.at(votes, (rows, labels), 1)
    return votes.argmax(axis=1)


def region_vote_fused(
    network: Network,
    x: np.ndarray,
    radius: float,
    samples: int,
    seed: int,
    batch_size: int = 512,
) -> np.ndarray:
    """Majority vote with per-input noise streams — safe to fuse across batches.

    Each input's ``m`` hypercube samples are drawn from :func:`input_rng`,
    so the returned label for a row is a pure function of ``(seed, row)``
    alone: stacking flagged rows from many concurrent requests into one
    fused batch votes bitwise-identically to correcting each request on
    its own.  This is the corrector kernel behind ``Corrector.correct``
    and the serving layer's cross-request fusion.

    Parameters
    ----------
    batch_size:
        Rows of sampled points assembled per chunk (bounds noise-buffer
        memory; ``per_chunk = batch_size // samples`` inputs per chunk).
        The engine runs each chunk in :data:`KERNEL_BATCH`-row sub-batches.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    # Canonical float64: exact for engine-dtype (float32) inputs, and the
    # dtype the noise arithmetic has always used.
    x = np.ascontiguousarray(np.asarray(x), dtype=np.float64)
    n = len(x)
    if n == 0:
        return np.array([], dtype=int)
    num_classes = network.num_classes
    engine = network.engine
    votes = np.zeros((n, num_classes), dtype=np.int64)

    per_chunk = max(1, batch_size // max(1, samples))
    noise = np.empty((per_chunk, samples) + x.shape[1:])
    for start in range(0, n, per_chunk):
        chunk = x[start : start + per_chunk]
        for j in range(len(chunk)):
            noise[j] = input_rng(seed, chunk[j]).uniform(
                -radius, radius, size=(samples,) + x.shape[1:]
            )
        points = np.clip(chunk[:, None] + noise[: len(chunk)], PIXEL_MIN, PIXEL_MAX)
        flat = points.reshape((-1,) + x.shape[1:])
        labels = engine.predict(flat, batch_size=KERNEL_BATCH, memo=False)
        rows = np.repeat(np.arange(start, start + len(chunk)), samples)
        np.add.at(votes, (rows, labels), 1)
    return votes.argmax(axis=1)


class RegionClassifier:
    """Cao & Gong's RC with the paper's parameters (``m = 1000``).

    Every input — benign or not — pays the full ``m`` predictions; this is
    exactly the inefficiency the paper's Table 6 / Fig. 5 measure.
    """

    name = "rc"

    def __init__(self, network: Network, radius: float, samples: int = 1000, seed: int = 0):
        self.network = network
        self.radius = radius
        self.samples = samples
        self.seed = seed

    def classify(self, x: np.ndarray) -> np.ndarray:
        # Fresh generator per call (seed ⊕ input digest): labels depend
        # only on the input, never on how many calls came before.
        x = np.asarray(x, dtype=np.float64)
        return region_vote(self.network, x, self.radius, self.samples, call_rng(self.seed, x))
