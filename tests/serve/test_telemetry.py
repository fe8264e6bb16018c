"""Telemetry: mergeable counters, latency sketch, streaming JSONL export."""

import json
import math

import numpy as np
import pytest

from repro.serve import (
    DCNService,
    LatencySketch,
    ServeCounters,
    TelemetryExporter,
    read_telemetry,
)


class TestServeCountersMerged:
    def test_sums_counts_maxes_gauge_high_water(self):
        a = ServeCounters(requests=3, examples=9, shed=1, max_queue_depth=4,
                          seconds=0.5)
        b = ServeCounters(requests=5, examples=10, shed=0, max_queue_depth=7,
                          seconds=0.25)
        merged = ServeCounters.merged([a, b])
        assert merged.requests == 8
        assert merged.examples == 19
        assert merged.shed == 1
        assert merged.max_queue_depth == 7  # high-water mark: max, not sum
        assert merged.seconds == pytest.approx(0.75)

    def test_accepts_wire_dicts_and_ignores_unknown_keys(self):
        wire = ServeCounters(requests=2).as_dict()
        wire["from_the_future"] = 99
        merged = ServeCounters.merged([wire, ServeCounters(requests=1)])
        assert merged.requests == 3
        assert not hasattr(merged, "from_the_future")

    def test_empty_merge_is_zero(self):
        assert ServeCounters.merged([]) == ServeCounters()


class TestLatencySketch:
    def test_percentiles_within_relative_error(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(mean=-6.0, sigma=1.0, size=4000)
        sketch = LatencySketch(alpha=0.01)
        for v in values:
            sketch.record(float(v))
        for q in (50, 95, 99):
            true = float(np.percentile(values, q))
            got = sketch.percentile(q)
            assert abs(got - true) <= 0.02 * true  # 2*alpha headroom

    def test_merge_equals_single_sketch_exactly(self):
        rng = np.random.default_rng(1)
        values = rng.exponential(scale=0.01, size=1000)
        whole = LatencySketch()
        left, right = LatencySketch(), LatencySketch()
        for i, v in enumerate(values):
            whole.record(float(v))
            (left if i % 2 else right).record(float(v))
        left.merge(right)
        # Same bucket counts -> identical percentile output, not just close.
        assert left.percentile(50) == whole.percentile(50)
        assert left.percentile(95) == whole.percentile(95)
        assert left.count == whole.count

    def test_state_round_trips_through_json(self):
        sketch = LatencySketch()
        for v in (0.001, 0.02, 0.3):
            sketch.record(v)
        state = json.loads(json.dumps(sketch.state()))
        clone = LatencySketch.from_state(state)
        assert clone.summary() == sketch.summary()

    def test_drops_non_finite_and_negative(self):
        sketch = LatencySketch()
        sketch.record(float("nan"))
        sketch.record(float("inf"))
        sketch.record(-1.0)
        assert sketch.count == 0
        assert math.isnan(sketch.percentile(50))

    def test_underflow_bucket_and_clamping(self):
        sketch = LatencySketch()
        sketch.record(0.0)  # below MIN_VALUE -> underflow bucket
        sketch.record(0.01)
        assert sketch.count == 2
        assert sketch.percentile(0) == 0.0
        assert sketch.percentile(100) <= sketch.max

    def test_alpha_mismatch_refuses_merge(self):
        with pytest.raises(ValueError, match="alpha"):
            LatencySketch(alpha=0.01).merge(LatencySketch(alpha=0.02))

    def test_empty_merge_is_noop(self):
        sketch = LatencySketch()
        sketch.record(0.01)
        before = sketch.summary()
        sketch.merge(LatencySketch())
        assert sketch.summary() == before


class TestTelemetryExporter:
    def test_journals_snapshots_and_final_record(self, tiny_correct, tiny_dcn,
                                                 tmp_path):
        _, x, _ = tiny_correct
        service = DCNService(tiny_dcn, max_batch=8, max_queue=64, slo_target_s=30.0)
        journal = tmp_path / "telemetry.jsonl"
        with TelemetryExporter(service, journal, interval_s=0.05) as exporter:
            service.serve_batch([x[:2], x[2:5]])
            exporter.snapshot_now()
        records = read_telemetry(journal)
        assert len(records) >= 2
        assert [r["seq"] for r in records] == sorted(r["seq"] for r in records)
        assert records[-1]["final"] is True
        assert all(not r["final"] for r in records[:-1])
        last = records[-1]
        # Counters, sketch percentiles, the sketch state and the SLO cost
        # model all stream through the journal.
        assert last["counters"]["requests"] == 2
        assert last["counters"]["examples"] == 5
        assert last["latency"]["count"] == 2.0
        assert last["sketch"]["count"] == 2
        # One latency record: the summary is the journaled sketch's own.
        assert last["latency"] == LatencySketch.from_state(last["sketch"]).summary()
        assert last["cost"]["observations"] >= 1
        # The journal is plain JSONL: every line parses standalone.
        for line in journal.read_text().splitlines():
            json.loads(line)

    def test_sketch_in_journal_reconstructs_percentiles(self, tiny_correct,
                                                        tiny_dcn, tmp_path):
        _, x, _ = tiny_correct
        service = DCNService(tiny_dcn, max_batch=8, max_queue=64)
        journal = tmp_path / "telemetry.jsonl"
        exporter = TelemetryExporter(service, journal, interval_s=60.0)
        service.serve_batch([x[i : i + 1] for i in range(6)])
        exporter.snapshot_now(final=True)
        exporter.stop()
        state = read_telemetry(journal)[0]["sketch"]
        sketch = LatencySketch.from_state(state)
        assert sketch.count == 6
        assert np.isfinite(sketch.percentile(95))

    def test_validates_interval(self, tiny_dcn, tmp_path):
        service = DCNService(tiny_dcn)
        with pytest.raises(ValueError):
            TelemetryExporter(service, tmp_path / "t.jsonl", interval_s=0.0)


class _CountingSource:
    """Minimal telemetry source: numbered snapshots of a fixed size."""

    def __init__(self):
        self.calls = 0

    def telemetry_snapshot(self):
        self.calls += 1
        return {"counters": {"requests": self.calls}, "pad": "x" * 64}


class TestJournalRotation:
    def test_rotates_at_max_bytes_and_reads_across_segments(self, tmp_path):
        from repro.serve import rotated_segment

        journal = tmp_path / "telemetry.jsonl"
        exporter = TelemetryExporter(
            _CountingSource(), journal, interval_s=60.0, fsync_every=1,
            max_bytes=400, keep=3,
        )
        for _ in range(20):
            exporter.snapshot_now()
        exporter.stop()
        assert exporter.rotations > 0
        assert rotated_segment(journal, 1).exists()
        records = read_telemetry(journal)
        # Oldest-first across segments: seq strictly increasing and
        # contiguous, ending at the final record.
        seqs = [rec["seq"] for rec in records]
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        assert records[-1]["final"] is True
        assert records[-1]["seq"] == 20

    def test_keep_bounds_the_segment_count(self, tmp_path):
        from repro.serve import rotated_segment

        journal = tmp_path / "telemetry.jsonl"
        exporter = TelemetryExporter(
            _CountingSource(), journal, interval_s=60.0, fsync_every=1,
            max_bytes=150, keep=2,
        )
        for _ in range(30):
            exporter.snapshot_now()
        exporter.stop()
        assert exporter.rotations > 3  # rotated more times than we keep
        assert rotated_segment(journal, 1).exists()
        assert rotated_segment(journal, 2).exists()
        assert not rotated_segment(journal, 3).exists()
        # Replay still works; the dropped history is simply absent.
        records = read_telemetry(journal)
        assert records[-1]["seq"] == 30
        assert len(records) < 31

    def test_no_rotation_without_max_bytes(self, tmp_path):
        journal = tmp_path / "telemetry.jsonl"
        exporter = TelemetryExporter(
            _CountingSource(), journal, interval_s=60.0, fsync_every=1,
        )
        for _ in range(10):
            exporter.snapshot_now()
        exporter.stop()
        assert exporter.rotations == 0
        assert len(read_telemetry(journal)) == 11

    def test_validates_rotation_params(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            TelemetryExporter(_CountingSource(), tmp_path / "t.jsonl", max_bytes=0)
        with pytest.raises(ValueError, match="keep"):
            TelemetryExporter(_CountingSource(), tmp_path / "t.jsonl", keep=0)
