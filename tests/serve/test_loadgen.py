"""The deterministic load generator and its offline/coalesced drivers."""

import time

import numpy as np
import pytest

from repro.serve import (
    DCNService,
    LatencySketch,
    RemoteProtocolError,
    StreamSpec,
    build_stream,
    ServeResult,
    run_coalesced,
    run_offline,
    run_remote,
)


@pytest.fixture()
def pools(tiny_correct):
    network, x, _ = tiny_correct
    benign = x[:24]
    adv = x[24:32] + 0.01  # stand-in payloads; content is irrelevant here
    return benign, adv


class TestStreamSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamSpec(requests=0)
        with pytest.raises(ValueError):
            StreamSpec(adv_fraction=1.5)
        with pytest.raises(ValueError):
            StreamSpec(min_size=0)
        with pytest.raises(ValueError):
            StreamSpec(min_size=3, max_size=2)


class TestBuildStream:
    def test_deterministic_in_seed(self, pools):
        benign, adv = pools
        spec = StreamSpec(requests=20, adv_fraction=0.3, max_size=3, seed=5)
        a = build_stream(benign, adv, spec)
        b = build_stream(benign, adv, spec)
        assert len(a) == len(b) == 20
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.x, rb.x)
            np.testing.assert_array_equal(ra.adv_rows, rb.adv_rows)
        c = build_stream(benign, adv, StreamSpec(requests=20, adv_fraction=0.3, max_size=3, seed=6))
        assert any(not np.array_equal(ra.x, rc.x) for ra, rc in zip(a, c))

    def test_sizes_within_spec(self, pools):
        benign, adv = pools
        stream = build_stream(benign, adv, StreamSpec(requests=30, min_size=2, max_size=5, seed=1))
        assert all(2 <= len(r.x) <= 5 for r in stream)
        assert {len(r.x) for r in stream} > {2}  # sizes actually vary

    def test_benign_drawn_without_replacement_until_wrap(self, pools):
        benign, _ = pools
        spec = StreamSpec(requests=2 * len(benign), adv_fraction=0.0, max_size=1, seed=2)
        rows = np.concatenate([r.x for r in build_stream(benign, None, spec)])
        # Each pool row appears exactly once per pool pass: the first
        # len(pool) draws are a permutation, then the pool reshuffles.
        pool_keys = {row.tobytes() for row in benign}
        for half in (rows[: len(benign)], rows[len(benign) :]):
            keys = [row.tobytes() for row in half]
            assert len(set(keys)) == len(benign)
            assert set(keys) == pool_keys

    def test_adv_rows_come_from_adv_pool(self, pools):
        benign, adv = pools
        stream = build_stream(benign, adv, StreamSpec(requests=10, adv_fraction=1.0, max_size=2, seed=0))
        adv_keys = {row.tobytes() for row in adv}
        for request in stream:
            assert request.adv_rows.all()
            assert all(row.tobytes() in adv_keys for row in request.x)

    def test_zero_fraction_needs_no_adv_pool(self, pools):
        benign, _ = pools
        stream = build_stream(benign, None, StreamSpec(requests=5, adv_fraction=0.0))
        assert not any(r.adv_rows.any() for r in stream)

    def test_pool_errors(self, pools):
        benign, adv = pools
        with pytest.raises(ValueError):
            build_stream(benign[:0], adv, StreamSpec(requests=5))
        with pytest.raises(ValueError):
            build_stream(benign, None, StreamSpec(requests=5, adv_fraction=0.5))
        with pytest.raises(ValueError):
            build_stream(benign, adv[:0], StreamSpec(requests=5, adv_fraction=0.5))


class TestRunners:
    def test_offline_and_coalesced_agree_bitwise(self, tiny_dcn, pools):
        dcn = tiny_dcn
        benign, adv = pools
        stream = build_stream(benign, adv, StreamSpec(requests=12, adv_fraction=0.25, max_size=3, seed=4))
        off = run_offline(dcn, stream)
        co = run_coalesced(DCNService(dcn, max_batch=16, max_queue=64), stream, window=6)
        assert off.statuses == co.statuses == ["ok"] * 12
        for a, b in zip(off.labels, co.labels):
            np.testing.assert_array_equal(a, b)
        assert off.seconds > 0 and co.seconds > 0
        assert co.latencies.count == 12
        assert off.requests_per_sec > 0 and co.examples_per_sec > 0

    def test_coalesced_window_validation(self, tiny_dcn):
        with pytest.raises(ValueError):
            run_coalesced(DCNService(tiny_dcn), [], window=0)


def _sketch(values):
    sketch = LatencySketch()
    for value in values:
        sketch.record(value)
    return sketch


class TestSketchSummary:
    """``RunStats.latencies`` reports through ``LatencySketch.summary()``."""

    def test_percentiles_in_milliseconds(self):
        # Odd count: the sketch reads the lower neighbouring rank where
        # np.percentile interpolates, so p50 of [1, 2, 3] ms is 2 ms on both.
        summary = _sketch([0.001, 0.002, 0.003]).summary()
        assert summary["count"] == 3.0
        assert summary["p50_ms"] == pytest.approx(2.0, rel=0.01)
        assert summary["mean_ms"] == pytest.approx(2.0)
        assert summary["p95_ms"] <= 3.0

    def test_empty_is_nan_not_crash(self):
        summary = LatencySketch().summary()
        assert summary["count"] == 0.0
        assert np.isnan(summary["p50_ms"])


class TestShedAccounting:
    """Regression: sheds used to inflate req/s and NaN-poison percentiles."""

    def test_requests_per_sec_excludes_shed(self):
        from repro.serve import RunStats

        stats = RunStats(
            labels=[np.zeros(1, dtype=np.int64), None, None],
            statuses=["ok", "shed", "shed"],
            seconds=2.0,
            latencies=_sketch([0.001]),
        )
        assert stats.served == 1
        assert stats.shed == 2
        assert stats.requests_per_sec == pytest.approx(0.5)  # 1 served / 2s

    def test_sketch_summary_drops_nan(self):
        summary = _sketch([0.001, float("nan"), 0.003, float("inf")]).summary()
        assert summary["count"] == 2.0
        assert np.isfinite(summary["p50_ms"])
        assert np.isfinite(summary["p95_ms"])
        assert summary["mean_ms"] == pytest.approx(2.0)

    def test_run_coalesced_under_shedding_keeps_finite_stats(self, tiny_dcn, pools):
        dcn = tiny_dcn
        benign, _ = pools
        stream = build_stream(
            benign, None, StreamSpec(requests=8, max_size=1, seed=9)
        )
        service = DCNService(dcn, max_batch=16, max_queue=2, overload="shed")
        stats = run_coalesced(service, stream, window=8)
        assert stats.statuses == ["ok"] * 2 + ["shed"] * 6
        assert stats.served == 2 and stats.shed == 6
        # Only served requests contribute latencies; every stat is finite.
        assert stats.latencies.count == 2
        summary = stats.latencies.summary()
        assert summary["count"] == 2.0
        assert np.isfinite(summary["p95_ms"])
        assert all(
            label is None for label, status in zip(stats.labels, stats.statuses)
            if status == "shed"
        )


class TestRunRemote:
    def test_latencies_are_timed_on_the_client(self, pools):
        benign, _ = pools
        stream = build_stream(benign, None, StreamSpec(requests=6, adv_fraction=0.0, seed=0))

        class SlowClient:
            """Spends 20 ms per call but reports the server's view: zero."""

            def classify(self, x):
                time.sleep(0.02)
                return ServeResult("ok", labels=np.zeros(len(x), dtype=np.int64), latency_s=0.0)

        stats = run_remote([SlowClient(), SlowClient()], stream)
        assert stats.statuses == ["ok"] * len(stream)
        assert stats.latencies.count == len(stream)
        assert stats.latencies.min >= 0.02

    def test_client_exception_reaches_the_caller(self, pools):
        benign, _ = pools
        stream = build_stream(benign, None, StreamSpec(requests=6, adv_fraction=0.0, seed=0))

        class GoodClient:
            def classify(self, x):
                return ServeResult("ok", labels=np.zeros(len(x), dtype=np.int64), latency_s=0.0)

        class WrongServerClient:
            """A server for another dataset refuses every payload."""

            def classify(self, x):
                raise RemoteProtocolError("bad-payload", "input shape mismatch")

        with pytest.raises(RemoteProtocolError) as exc:
            run_remote([GoodClient(), WrongServerClient()], stream)
        assert exc.value.code == "bad-payload"
