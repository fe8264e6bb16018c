"""Wall-clock and forward-pass measurement helpers (paper Tables 3/6, Figs. 4/5).

Wall-clock numbers depend on the host; the engine counters do not.  The
paper's Table 6 argument — DCN runs the expensive region corrector only on
the flagged fraction, so its cost scales with the adversarial fraction
while RC's stays flat — is a statement about *forward passes*, which
:func:`profile_defense` measures exactly via the protected model's
:class:`~repro.nn.engine.InferenceEngine` counters.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..defenses.base import Defense
from ..nn.engine import InferenceEngine, counter_delta
from ..nn.grad_engine import GradientEngine

__all__ = ["monotonic", "stopwatch", "time_defense", "DefenseProfile", "profile_defense"]


def monotonic() -> float:
    """The single monotonic clock every timing path reads.

    ``time.time()`` can jump backwards under NTP slew, turning an elapsed
    measurement negative mid-run; everything that measures durations —
    report generation, defense timing, the resilient runner's unit budgets
    and ledger timestamps — goes through this one helper instead.
    """
    return time.perf_counter()


@contextmanager
def stopwatch() -> Iterator[list[float]]:
    """Context manager yielding a single-element list filled with seconds."""
    holder = [0.0]
    start = monotonic()
    try:
        yield holder
    finally:
        holder[0] = monotonic() - start


def time_defense(defense: Defense, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Classify ``x`` and return ``(labels, elapsed_seconds)``."""
    start = monotonic()
    labels = defense.classify(x)
    return labels, monotonic() - start


@dataclass
class DefenseProfile:
    """Labels plus the cost of producing them.

    ``forward_examples`` is the number of examples pushed through the
    underlying network while classifying — e.g. RC with ``m`` votes on
    ``n`` inputs costs ``n * m``, DCN costs ``n + flagged * m``.

    When a gradient engine was profiled too, its counter deltas appear
    under a ``grad_`` prefix (``grad_batches``, ``grad_examples``,
    …); the ``backward_*`` properties read them.  Plain classification
    reports zero backwards — nonzero counts flag defenses (or adaptive
    attackers) that differentiate through the protected model.
    """

    labels: np.ndarray
    seconds: float
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def forward_examples(self) -> int:
        return int(self.counters.get("examples", 0))

    @property
    def forward_batches(self) -> int:
        return int(self.counters.get("batches", 0))

    @property
    def backward_examples(self) -> int:
        return int(self.counters.get("grad_examples", 0))

    @property
    def backward_batches(self) -> int:
        return int(self.counters.get("grad_batches", 0))


def profile_defense(
    defense: Defense,
    x: np.ndarray,
    engine: InferenceEngine,
    grad_engine: GradientEngine | None = None,
) -> DefenseProfile:
    """Classify ``x`` while measuring wall clock *and* engine counters.

    ``engine`` should be the engine of the network the defense queries
    (usually ``defense.network.engine``); the returned profile carries the
    counter deltas attributable to this call.  Pass the network's
    ``grad_engine`` as well to also capture backward-pass deltas (prefixed
    ``grad_`` in :attr:`DefenseProfile.counters`).
    """
    before = engine.counters.snapshot()
    grad_before = grad_engine.counters.snapshot() if grad_engine is not None else None
    start = monotonic()
    labels = defense.classify(x)
    seconds = monotonic() - start
    counters = counter_delta(before, engine.counters)
    if grad_engine is not None:
        grad_delta = counter_delta(grad_before, grad_engine.counters)
        counters.update({f"grad_{key}": value for key, value in grad_delta.items()})
    return DefenseProfile(labels=labels, seconds=seconds, counters=counters)
