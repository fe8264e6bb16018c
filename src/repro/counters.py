"""One counters model: snapshot, delta and merge written once.

Every cumulative counter in the system — an engine's work
(:class:`~repro.nn.engine.EngineCounters`), a service's admission and
dispatch counts (:class:`~repro.serve.telemetry.ServeCounters`), a remote
client's outcomes (:class:`~repro.serve.client.ClientCounters`) — is a
flat dataclass of numeric fields declared on :class:`Counters`.  The
subclasses are field declarations only; this base owns the operations:

``as_dict`` / ``snapshot``
    A JSON-able wire dict, and a detached copy to diff against later.
``delta(before)``
    Per-field ``self − before``: the work attributable to a window (the
    paper's Table 6 forward counts come from engine deltas).
``merged(snapshots)``
    Fold live instances or wire dicts from many sources (pool workers,
    the transport edge) into one.  Fields sum, except the declared
    :attr:`Counters.HIGH_WATER` fields, which take the max.  Unknown keys
    are ignored, so a snapshot from a newer peer never breaks an older
    reader.

Increments stay plain attribute adds on the hot path: the base adds no
properties, ``__setattr__`` hooks or locks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import ClassVar, Iterable, TypeVar

__all__ = ["Counters"]

C = TypeVar("C", bound="Counters")


@dataclass
class Counters:
    """Base of every counters dataclass (numeric fields, zero defaults)."""

    #: Fields that merge by max (high-water marks) rather than by sum.
    HIGH_WATER: ClassVar[frozenset[str]] = frozenset()

    def as_dict(self) -> dict[str, float]:
        return asdict(self)

    def snapshot(self: C) -> C:
        return replace(self)

    def delta(self, before: "Counters") -> dict[str, float]:
        """Per-field difference ``self − before`` (an earlier snapshot)."""
        then = before.as_dict()
        return {key: value - then[key] for key, value in self.as_dict().items()}

    @classmethod
    def merged(cls: type[C], snapshots: "Iterable[Counters | dict]") -> C:
        """Fold snapshots (instances or wire dicts) into one instance."""
        total = cls()
        known = {f.name for f in fields(cls)}
        for snap in snapshots:
            data = snap.as_dict() if isinstance(snap, Counters) else snap
            for key, value in data.items():
                if key not in known:
                    continue
                current = getattr(total, key)
                value = type(current)(value)
                setattr(
                    total, key,
                    max(current, value) if key in cls.HIGH_WATER else current + value,
                )
        return total
