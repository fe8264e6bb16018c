"""Region-based classification (Cao & Gong, ACSAC 2017).

The paper's strongest prior defense and the mechanism its corrector reuses:
instead of classifying the input point, sample ``m`` points uniformly from
the hypercube of radius ``r`` centred on it, classify each with the
underlying DNN, and take the majority vote.  The paper runs RC with the
original parameters (``m = 1000``; ``r = 0.3`` MNIST / ``0.02`` CIFAR) and
shows its corrector achieves the same recovery with ``m = 50``.

RC and the corrector share one kernel, :func:`region_vote_fused`.  It
stops sampling a row once its majority is decided, so a row pays
``decided_at`` forwards, between ``m // 2 + 1`` and ``m``, for exactly the
label the full ``m``-sample vote returns.  :func:`region_vote` keeps the
explicit-generator full vote for radius calibration.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..datasets.dataset import PIXEL_MAX, PIXEL_MIN
from ..nn.network import Network

__all__ = ["region_vote", "region_vote_fused", "call_rng", "input_rng", "RegionClassifier"]

#: Largest engine call of both votes.  Per-row logits are invariant to
#: batch splitting, and the engine's kernels are faster in cache-sized
#: batches than in one large pass, so a vote keeps a large chunk
#: (amortising Python glue) while the kernels run at this size.  It equals
#: the serving bucket cap, so the early-exit vote's ladder of call sizes
#: (:func:`ladder_spans`) is the serving bucket ladder.
KERNEL_BATCH = 64

#: Sample points the early-exit vote assembles per chunk of a stage: bounds
#: its noise buffer (``CHUNK_POINTS // k`` rows for a stage of ``k``).
CHUNK_POINTS = 512


def check_vote_params(radius: float, samples: int) -> None:
    """Reject a negative hypercube radius or fewer than one sample."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if samples < 1:
        raise ValueError("samples must be >= 1")


def call_rng(seed: int, x: np.ndarray) -> np.random.Generator:
    """Per-call generator derived from a base seed and the input's content.

    No vote in ``src/`` uses it any more (RC moved to :func:`input_rng`
    streams); it is kept only because the end-to-end benchmark's tracer
    wraps it by name, until that tracer stops requiring it (ROADMAP item 1).

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

    The full ``m``-sample vote on one explicit generator, with no early
    exit.  Radius calibration (:func:`repro.core.radius.select_radius`)
    uses it, so calibrated radii do not depend on the serving kernel.

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
    check_vote_params(radius, samples)
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


def vote_stages(samples: int) -> tuple[int, ...]:
    """Cumulative sample counts after which an early-exit vote checks its rows.

    No class holds a strict majority of ``m`` votes before ``m // 2 + 1``
    samples are in, so the first check comes there; later checks follow
    every ``m // 16`` samples, and the last, at ``m``, decides every row
    still open.  Derived from ``m`` alone, so a row's exit point is a pure
    function of its own vote stream.  (The step was chosen by measurement;
    see DESIGN.md, "Early-exit region vote".)
    """
    step = max(1, samples // 16)
    return (*range(samples // 2 + 1, samples, step), samples)


def decided(votes: np.ndarray, left: int) -> np.ndarray:
    """Rows of ``votes`` whose full vote is fixed with ``left`` samples to come.

    A row is decided when no other class ``j`` can overtake its leader even
    if every remaining sample goes to ``j``: ``lead - j > left``, or
    ``lead - j == left`` and the leader has the lower index (``argmax``
    keeps the first of tied classes).  The leader is then the label the
    full ``m``-sample vote would return.
    """
    classes = np.arange(votes.shape[1])
    lead = votes.argmax(axis=1)
    gap = votes[np.arange(len(votes)), lead][:, None] - votes
    need = left + (classes < lead[:, None])
    return ((gap >= need) | (classes == lead[:, None])).all(axis=1)


def ladder_spans(n: int):
    """``(begin, end)`` spans of ``n`` rows on the ``KERNEL_BATCH`` ladder.

    Full :data:`KERNEL_BATCH` spans first, then the remainder split by its
    binary digits — every span is a power of two or ``KERNEL_BATCH`` (the
    serving bucket ladder), so no span is padded and no call compiles a
    plan shape the serving warm-up does not.
    """
    begin = 0
    while begin < n:
        size = min(KERNEL_BATCH, 1 << ((n - begin).bit_length() - 1))
        yield begin, begin + size
        begin += size


def _staged_vote(
    network: Network,
    x: np.ndarray,
    radius: float,
    samples: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`region_vote_fused` plus each row's exit point.

    Returns ``(labels, decided_at)``: ``decided_at[i]`` is the number of
    samples row ``i`` drew (and the engine classified) before its vote was
    decided — between ``m // 2 + 1`` and ``m``.
    """
    check_vote_params(radius, samples)
    # Canonical float64: exact for engine-dtype (float32) inputs, and the
    # dtype the noise arithmetic has always used.
    x = np.ascontiguousarray(np.asarray(x), dtype=np.float64)
    n = len(x)
    shape = x.shape[1:]
    engine = network.engine
    votes = np.zeros((n, network.num_classes), dtype=np.int64)
    decided_at = np.full(n, samples, dtype=np.int64)
    streams = [input_rng(seed, row) for row in x]
    active = np.arange(n)
    drawn = 0
    for stage in vote_stages(samples):
        if not len(active):
            break
        k, drawn = stage - drawn, stage
        per_chunk = max(1, CHUNK_POINTS // k)
        for start in range(0, len(active), per_chunk):
            rows = active[start : start + per_chunk]
            # Consecutive draws from one stream reproduce a single
            # m-sample draw bit for bit, so staging never moves the noise.
            noise = np.stack([streams[i].uniform(-radius, radius, size=(k,) + shape) for i in rows])
            points = np.clip(x[rows][:, None] + noise, PIXEL_MIN, PIXEL_MAX)
            flat = points.reshape((-1,) + shape)
            # Sampled points are fresh noise, so the engine memo is bypassed.
            labels = np.concatenate(
                [engine.predict(flat[b:e], memo=False) for b, e in ladder_spans(len(flat))]
            )
            np.add.at(votes, (np.repeat(rows, k), labels), 1)
        done = decided(votes[active], samples - stage)
        decided_at[active[done]] = stage
        active = active[~done]
    return votes.argmax(axis=1), decided_at


def region_vote_fused(
    network: Network,
    x: np.ndarray,
    radius: float,
    samples: int,
    seed: int,
) -> np.ndarray:
    """Early-exit majority vote with per-input noise streams.

    Each input's hypercube samples are drawn from its own :func:`input_rng`
    stream, so the returned label for a row is a pure function of
    ``(seed, row)`` alone: stacking flagged rows from many concurrent
    requests into one fused batch votes bitwise-identically to correcting
    each request on its own.  The kernel behind ``Corrector.correct``,
    the serving layer's cross-request fusion and :class:`RegionClassifier`.

    Rows draw their samples in stages (:func:`vote_stages`) and stop once
    :func:`decided`, so a label is exactly the full ``m``-sample vote's
    while its row pays only the forwards up to its exit point.  Every
    engine call runs a :func:`ladder_spans` row count.
    """
    return _staged_vote(network, x, radius, samples, seed)[0]


class RegionClassifier:
    """Cao & Gong's RC with the paper's parameters (``m = 1000``).

    Every input — benign or not — pays an ``m``-sample vote; this is
    exactly the inefficiency the paper's Table 6 / Fig. 5 measure.  The
    paper's model charges ``m`` forwards per input; the early-exit kernel
    stops at ``decided_at ≤ m`` (about ``m / 2`` on clean inputs) with the
    same label.
    """

    name = "rc"

    def __init__(self, network: Network, radius: float, samples: int = 1000, seed: int = 0):
        check_vote_params(radius, samples)
        self.network = network
        self.radius = radius
        self.samples = samples
        self.seed = seed

    def classify(self, x: np.ndarray) -> np.ndarray:
        # Per-input streams (seed ⊕ row digest): a label depends only on
        # its row, never on the call order or the rest of the batch.
        return region_vote_fused(self.network, x, self.radius, self.samples, self.seed)
