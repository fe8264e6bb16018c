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
from ..nn.engine import InferenceEngine
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

    ``forward`` is the inference engine's counter delta over the call and
    ``backward`` the gradient engine's (empty when none was profiled).
    ``forward_examples`` is the number of examples pushed through the
    underlying network while classifying — e.g. RC with ``m`` votes on
    ``n`` inputs costs ``n * m``, DCN costs ``n + flagged * m``.  Plain
    classification reports zero backwards — nonzero counts flag defenses
    (or adaptive attackers) that differentiate through the protected model.
    """

    labels: np.ndarray
    seconds: float
    forward: dict[str, float] = field(default_factory=dict)
    backward: dict[str, float] = field(default_factory=dict)

    @property
    def forward_examples(self) -> int:
        return int(self.forward.get("examples", 0))

    @property
    def forward_batches(self) -> int:
        return int(self.forward.get("batches", 0))

    @property
    def backward_examples(self) -> int:
        return int(self.backward.get("examples", 0))

    @property
    def backward_batches(self) -> int:
        return int(self.backward.get("batches", 0))


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
    ``grad_engine`` as well to also capture backward-pass deltas.
    """
    engines = (engine,) if grad_engine is None else (engine, grad_engine)
    before = [e.counters.snapshot() for e in engines]
    start = monotonic()
    labels = defense.classify(x)
    seconds = monotonic() - start
    deltas = [e.counters.delta(then) for e, then in zip(engines, before)]
    return DefenseProfile(labels, seconds, *deltas)
