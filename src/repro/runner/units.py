"""Addressable work units: the runner's unit of journaling and recovery.

Every experiment the harness runs is decomposed into :class:`WorkUnit`\\ s —
one per ``experiment × dataset × defense × attack × seed-chunk`` — whose
:attr:`~WorkUnit.key` is stable across processes.  The ledger journals
completed units under that key, so a resumed run can replay finished work
instead of recomputing it.

A unit's ``fn`` must be **deterministic given its key** (seeds derived from
the experiment spec, never from global state) and must return a JSON-able
dict: the payload is journaled verbatim and replayed on resume, so anything
non-deterministic in it (wall-clock seconds are the accepted exception)
breaks resume-identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

__all__ = ["WorkUnit", "cell_key"]


@dataclass(frozen=True)
class WorkUnit:
    """One journaled step of an experiment.

    The identity fields (``experiment``/``dataset``/``defense``/``attack``/
    ``chunk``) form the ledger key; ``-`` marks a dimension that does not
    apply.  ``fn`` computes the unit's JSON-able payload.  ``networks``
    (a tuple, or a zero-argument callable returning one, for networks that
    are themselves expensive to build) names the networks whose engines the
    degradation ladder swaps for fresh float64 engines when a numerical
    guard trips.  ``digest`` carries an input/RNG fingerprint
    that failure records preserve for post-mortems.
    """

    experiment: str
    dataset: str = "-"
    defense: str = "-"
    attack: str = "-"
    chunk: str = "-"
    fn: Callable[[], dict] | None = field(default=None, compare=False, repr=False)
    networks: Sequence | Callable[[], Sequence] = field(default=(), compare=False, repr=False)
    digest: str = field(default="", compare=False)

    @property
    def key(self) -> str:
        """Stable ledger key (``/``-joined identity fields)."""
        return "/".join((self.experiment, self.dataset, self.defense, self.attack, self.chunk))

    @property
    def cell(self) -> str:
        """The table cell this unit contributes to (key minus the chunk)."""
        return "/".join((self.experiment, self.dataset, self.defense, self.attack))

    def resolve_networks(self) -> tuple:
        """Materialise :attr:`networks` (invoking a lazy provider if given)."""
        nets = self.networks() if callable(self.networks) else self.networks
        return tuple(nets)

    def run(self) -> dict:
        if self.fn is None:
            raise ValueError(f"work unit {self.key} has no executable fn")
        payload = self.fn()
        if not isinstance(payload, dict):
            raise TypeError(f"work unit {self.key} returned {type(payload).__name__}, expected dict")
        return payload


def cell_key(experiment: str, dataset: str, defense: str = "-", attack: str = "-") -> str:
    """The cell key a :class:`WorkUnit` with these fields would report under."""
    return "/".join((experiment, dataset, defense, attack))
