"""The shared counters base: snapshot, delta and merge for every counter type."""

from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.counters import Counters
from repro.nn import EngineCounters
from repro.serve import ClientCounters, ServeCounters


@dataclass
class _Demo(Counters):
    HIGH_WATER: ClassVar[frozenset[str]] = frozenset({"peak"})

    hits: int = 0
    peak: int = 0
    seconds: float = 0.0


class TestCounters:
    def test_every_counter_type_shares_the_base(self):
        for cls in (EngineCounters, ServeCounters, ClientCounters):
            assert issubclass(cls, Counters)
            assert "as_dict" not in vars(cls) and "merged" not in vars(cls)

    def test_delta_against_snapshot(self):
        live = _Demo(hits=2, seconds=0.5)
        before = live.snapshot()
        live.hits += 3
        live.seconds += 0.25
        assert live.delta(before) == {"hits": 3, "peak": 0, "seconds": pytest.approx(0.25)}
        assert before.hits == 2  # the snapshot is detached from the live counters

    def test_merge_sums_and_keeps_high_water_max(self):
        merged = _Demo.merged([
            _Demo(hits=2, peak=5, seconds=0.5),
            {"hits": 1, "peak": 9, "seconds": 0.25, "from_the_future": 1},
        ])
        assert merged == _Demo(hits=3, peak=9, seconds=0.75)
        assert type(merged.hits) is int and type(merged.seconds) is float

    def test_engine_and_client_counters_merge_too(self):
        engines = EngineCounters.merged([EngineCounters(examples=4), EngineCounters(examples=6)])
        assert engines.examples == 10
        clients = ClientCounters.merged([ClientCounters(retries=1), {"retries": 2}])
        assert clients.retries == 3
