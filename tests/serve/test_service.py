"""DCNService: coalescing equivalence, admission control, telemetry.

These run on the in-session tiny model with deterministic detector
stand-ins so the full serving envelope — including the detector
false-negative path — is exercised without the cached artifact zoo.
The mnist-fast integration equivalents live in ``scripts/serve_smoke.py``
and ``benchmarks/bench_serve_latency.py``.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import DCN, Corrector
from repro.serve import DCNService
from repro.serve.service import PLAN_ENTRIES
from repro.verify import guards
from repro.zoo import MODEL_CONFIGS, build_network

from .conftest import RuleDetector, flag_even


def _requests(x, sizes):
    out, start = [], 0
    for size in sizes:
        out.append(x[start : start + size])
        start += size
    return out


class TestServeBatchEquivalence:
    def test_bitwise_identical_to_offline_classify(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        window = _requests(x, [1, 3, 2, 4, 1, 5])
        service = DCNService(tiny_dcn, max_batch=8, max_queue=64)
        results = service.serve_batch(window)
        assert [r.status for r in results] == ["ok"] * len(window)
        for result, request in zip(results, window):
            labels, flagged = tiny_dcn.classify_detailed(request)
            np.testing.assert_array_equal(result.labels, labels)
            np.testing.assert_array_equal(result.flagged, flagged)
        # The detector rule flags ~half the rows, so the fused corrector
        # path genuinely ran — this is not a gate-only equivalence.
        assert 0 < service.counters.flagged < service.counters.examples
        assert service.counters.corrected == service.counters.flagged

    def test_coalesces_across_requests_and_pads_to_buckets(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        window = _requests(x, [1] * 6)
        service = DCNService(tiny_dcn, max_batch=8, max_queue=64)
        service.serve_batch(window)
        # 6 single-row requests fuse into one dispatch, padded 6 -> 8.
        assert service.counters.batches == 1
        assert service.counters.coalesced_requests == 6
        assert service.counters.pad_rows == 2

    def test_detector_false_negative_rows_keep_model_label(self, tiny_correct):
        """Benign rows deliberately flagged are served the model's label.

        The paper's Sec. 5.2 harmlessness argument, on the serving path:
        a detector false positive routes a benign row into the corrector,
        whose vote agrees with the model on benign inputs.
        """
        network, x, _ = tiny_correct
        dcn = DCN(
            network,
            RuleDetector(network, lambda logits: np.ones(len(logits), dtype=bool)),
            Corrector(network, radius=0.05, samples=20, seed=0),
        )
        rows = x[:12]
        service = DCNService(dcn, max_batch=8, max_queue=64)
        results = service.serve_batch(_requests(rows, [4, 4, 4]))
        served = np.concatenate([r.labels for r in results])
        # Bitwise-equal to offline DCN (same pinned corrector seed) ...
        np.testing.assert_array_equal(served, dcn.classify(rows))
        # ... and the corrector vote recovers the model's own labels.
        assert (served == network.predict(rows)).mean() > 0.8
        assert service.counters.corrected == len(rows)


    def test_row_served_alone_matches_row_coalesced(self):
        # A bucket-1 dispatch and a coalesced one must hand the detector the
        # same logits bit for bit: otherwise a row sitting exactly on the
        # detector threshold is flagged or not depending on its neighbours.
        network = build_network(MODEL_CONFIGS["cnn-fast"], (1, 16, 16), 10, seed=0)
        x = np.random.default_rng(0).uniform(size=(8, 1, 16, 16))
        threshold = network.engine.logits(x[:8], memo=False)[0, 0]
        seen = []

        def on_threshold(logits):
            seen.append(logits[0].copy())
            return logits[:, 0] >= threshold

        detector = RuleDetector(network, on_threshold)
        dcn = DCN(network, detector, Corrector(network, radius=0.1, samples=20, seed=0))
        service = DCNService(dcn, max_batch=8, max_queue=64)
        alone = service.serve_batch([x[:1]])[0]
        coalesced = service.serve_batch(_requests(x, [1, 3, 4]))[0]
        np.testing.assert_array_equal(seen[0], seen[1])
        assert bool(coalesced.flagged[0]) and bool(alone.flagged[0])
        np.testing.assert_array_equal(alone.labels, coalesced.labels)


class TestAdmissionControl:
    def test_shed_policy_rejects_overflow_only(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        window = _requests(x, [1] * 10)
        service = DCNService(tiny_dcn, max_batch=8, max_queue=3, overload="shed")
        results = service.serve_batch(window)
        assert [r.status for r in results] == ["ok"] * 3 + ["shed"] * 7
        assert service.counters.shed == 7
        for result, request in zip(results[:3], window[:3]):
            np.testing.assert_array_equal(result.labels, tiny_dcn.classify(request))
        shed = results[-1]
        assert shed.labels is None and not shed.ok

    def test_degrade_policy_bounded_at_twice_max_queue(self, tiny_correct, tiny_dcn):
        network, x, _ = tiny_correct
        window = _requests(x, [1] * 10)
        service = DCNService(tiny_dcn, max_batch=8, max_queue=2, overload="degrade")
        results = service.serve_batch(window)
        # Depths [0, 2) full service, [2, 4) detector-only, >= 4 shed.
        assert [r.status for r in results] == ["ok"] * 2 + ["degraded"] * 2 + ["shed"] * 6
        for result, request in zip(results[2:4], window[2:4]):
            # Degraded rows carry the model's label even when flagged.
            np.testing.assert_array_equal(result.labels, network.predict(request))
            assert result.ok
        assert service.counters.degraded == 2 and service.counters.shed == 6

    def test_request_validation(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        service = DCNService(tiny_dcn, max_batch=4)
        with pytest.raises(ValueError):
            service.serve_batch([x[:0]])  # empty request
        with pytest.raises(ValueError):
            service.serve_batch([x[0, 0, 0]])  # not a batch of inputs
        with pytest.raises(ValueError):
            service.serve_batch([x[:5]])  # exceeds max_batch
        with pytest.raises(ValueError, match="network takes"):
            service.serve_batch([x[:1, :, :5]])  # rows shaped unlike the input

    def test_constructor_validation(self, tiny_dcn):
        for kwargs in (
            {"max_batch": 0},
            {"max_queue": 0},
            {"max_delay": -1.0},
            {"overload": "panic"},
        ):
            with pytest.raises(ValueError):
                DCNService(tiny_dcn, **kwargs)

    def test_plan_budget_floor_never_shrinks(self, tiny_dcn):
        engine = tiny_dcn.network.engine
        original = engine.plan_entries
        try:
            engine.plan_entries = 2
            DCNService(tiny_dcn)
            assert engine.plan_entries == PLAN_ENTRIES
            engine.plan_entries = PLAN_ENTRIES + 8
            DCNService(tiny_dcn)
            assert engine.plan_entries == PLAN_ENTRIES + 8  # floor, not a setter
        finally:
            engine.plan_entries = original


class TestThreadedMode:
    def test_concurrent_submit_matches_offline(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        window = _requests(x, [1, 2, 1, 3, 1, 2, 1, 1])
        results = [None] * len(window)
        with DCNService(tiny_dcn, max_batch=8, max_queue=64, max_delay=0.001) as service:
            def client(lane):
                for i in range(lane, len(window), 2):
                    results[i] = service.classify(window[i], timeout=30.0)

            threads = [threading.Thread(target=client, args=(lane,)) for lane in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert all(r is not None and r.status == "ok" for r in results)
        for result, request in zip(results, window):
            np.testing.assert_array_equal(result.labels, tiny_dcn.classify(request))
        assert result.latency_s >= 0

    def test_lifecycle_errors(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        service = DCNService(tiny_dcn)
        with pytest.raises(RuntimeError):
            service.submit(x[:1])  # not started
        with service:
            with pytest.raises(RuntimeError):
                service.start()  # already running
        with pytest.raises(RuntimeError):
            service.submit(x[:1])  # stopped again


class TestDispatchFailure:
    """A dispatch that raises (here a NaN row tripping the engine guard)
    sheds its own batch; it must never kill the dispatcher thread."""

    def _nan_row(self, x):
        row = x[:1].copy()
        row[0, 0, 0, 0] = np.nan
        return row

    def test_failed_dispatch_sheds_its_batch_and_service_keeps_serving(
        self, tiny_correct, tiny_dcn, monkeypatch
    ):
        _, x, _ = tiny_correct
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        with guards.enforce(), DCNService(tiny_dcn, max_batch=8) as service:
            bad = service.submit(self._nan_row(x)).wait(5.0)
            good = service.classify(x[:2], timeout=5.0)
        assert (bad.status, bad.reason, bad.labels) == ("shed", "error", None)
        assert good.status == "ok"
        np.testing.assert_array_equal(good.labels, tiny_dcn.classify(x[:2]))
        assert [(args.thread.name, args.exc_type) for args in errors] == []

    def test_serve_batch_still_raises(self, tiny_correct, tiny_dcn):
        # The pool worker journals this exception as serve-worker-error.
        _, x, _ = tiny_correct
        service = DCNService(tiny_dcn, max_batch=8)
        with guards.enforce(), pytest.raises(guards.GuardViolation):
            service.serve_batch([self._nan_row(x)])


class TestOneRequestPath:
    """``serve_batch`` runs ``submit``'s admission, the dispatcher's batch
    former and its failed-dispatch shedding."""

    _PINNED_COUNTERS = ("requests", "examples", "shed", "degraded", "slo_shed",
                        "batches", "max_queue_depth")

    @pytest.mark.parametrize("policy, kwargs, sizes, statuses, counters", [
        ("shed", {"max_queue": 4, "overload": "shed"}, [1, 2, 1, 3, 1, 2],
         ["ok"] * 4 + ["shed"] * 2, (4, 7, 2, 0, 0, 2, 4)),
        ("degrade", {"max_queue": 2, "overload": "degrade"}, [2, 1, 3, 1, 2, 1],
         ["ok", "ok", "degraded", "degraded", "shed", "shed"], (4, 7, 2, 2, 0, 2, 4)),
        # SLO admission behind a cost model warmed by one dispatch: only
        # the head of the window (zero rows ahead) makes a 1 ns target.
        ("slo", {"max_queue": 2, "slo_target_s": 1e-9}, [2, 1, 1, 2, 1],
         ["ok"] + ["shed"] * 4, (2, 4, 4, 0, 4, 2, 1)),
    ])
    def test_windows_pin_statuses_labels_and_counters(
        self, tiny_correct, tiny_dcn, policy, kwargs, sizes, statuses, counters
    ):
        network, x, _ = tiny_correct
        service = DCNService(tiny_dcn, max_batch=4, **kwargs)
        if policy == "slo":
            service.serve_batch([x[20:22]])
        window = _requests(x, sizes)
        results = service.serve_batch(window)
        assert [r.status for r in results] == statuses
        for result, request in zip(results, window):
            if result.status == "ok":
                np.testing.assert_array_equal(result.labels, tiny_dcn.classify(request))
            elif result.status == "degraded":
                np.testing.assert_array_equal(result.labels, network.predict(request))
            else:
                assert result.labels is None
        got = service.counters.as_dict()
        assert tuple(got[name] for name in self._PINNED_COUNTERS) == counters
        assert (service.counters.queue_depth, service.counters.queued_rows) == (0, 0)

    def test_malformed_request_admits_nothing_from_its_window(self, tiny_correct,
                                                              tiny_dcn):
        _, x, _ = tiny_correct
        service = DCNService(tiny_dcn, max_batch=4, max_queue=64)
        before = service.counters.as_dict()
        with pytest.raises(ValueError, match="network takes"):
            service.serve_batch([x[:1], x[1:3], x[3:4, :, :5]])
        assert service.counters.as_dict() == before

    def test_started_service_refuses_serve_batch(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        with DCNService(tiny_dcn, max_batch=4) as service:
            with pytest.raises(RuntimeError, match="started"):
                service.serve_batch([x[:1]])
            assert service.classify(x[:1], timeout=10.0).status == "ok"

    def test_failed_middle_dispatch_clears_the_window_and_reraises(
        self, tiny_correct, tiny_dcn
    ):
        _, x, _ = tiny_correct
        poisoned = x[2:4].copy()
        poisoned[0, 0, 0, 0] = np.nan
        service = DCNService(tiny_dcn, max_batch=2, max_queue=64)
        with guards.enforce(), pytest.raises(guards.GuardViolation):
            # One dispatch per request: the second one raises.
            service.serve_batch([x[:2], poisoned, x[4:6]])
        assert (service.counters.queue_depth, service.counters.queued_rows) == (0, 0)
        assert len(service._queue) == 0
        # The failed dispatch and the one still queued behind it shed.
        assert service.counters.error_shed == 2
        window = [x[6:8], x[8:10]]
        results = service.serve_batch(window)
        assert [r.status for r in results] == ["ok", "ok"]
        for result, request in zip(results, window):
            np.testing.assert_array_equal(result.labels, tiny_dcn.classify(request))


class TestTelemetry:
    def test_counters_and_latencies(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        window = _requests(x, [2, 3, 1, 2])
        service = DCNService(tiny_dcn, max_batch=8, max_queue=64)
        service.serve_batch(window)
        counters = service.counters
        assert counters.requests == 4
        assert counters.examples == 8
        assert counters.seconds > 0
        assert 0.0 <= counters.flagged_fraction <= 1.0
        assert counters.plan_hits + counters.plan_misses > 0
        as_dict = counters.as_dict()
        assert as_dict["requests"] == 4 and as_dict["examples"] == 8
        summary = service.latencies.summary()
        assert summary["count"] == 4
        assert summary["p95_ms"] >= summary["p50_ms"] > 0

    def test_snapshot_is_detached(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        service = DCNService(tiny_dcn, max_batch=8, max_queue=64)
        service.serve_batch([x[:2]])
        frozen = service.counters.snapshot()
        service.serve_batch([x[:2]])
        assert frozen.batches == 1
        assert service.counters.batches == 2


class TestQueueGauges:
    def test_serve_batch_updates_and_clears_gauges(self, tiny_correct, tiny_dcn):
        """Regression: sync mode used to never touch counters.queue_depth."""
        _, x, _ = tiny_correct
        service = DCNService(tiny_dcn, max_batch=4, max_queue=64)
        service.serve_batch(_requests(x, [1] * 6))
        # The drain saw the queue at its admitted size...
        assert service.counters.max_queue_depth == 6
        # ...and left both gauges at zero, not stale at the high-water mark.
        assert service.counters.queue_depth == 0
        assert service.counters.queued_rows == 0

    def test_threaded_gauges_track_queue_and_clear_on_stop(self, tiny_correct,
                                                           tiny_dcn):
        """Regression: gauges stayed stale after the stop() drain."""
        _, x, _ = tiny_correct
        # max_batch and max_delay both unreachable: everything queues
        # until stop() drains, making the gauge deterministic mid-run.
        service = DCNService(tiny_dcn, max_batch=64, max_queue=64, max_delay=30.0)
        with service:
            tickets = [service.submit(x[i : i + 1]) for i in range(4)]
            assert service.counters.queue_depth == 4
            assert service.counters.queued_rows == 4
        assert all(t.wait(10.0).status == "ok" for t in tickets)
        assert service.counters.queue_depth == 0
        assert service.counters.queued_rows == 0


class TestThreadedOverload:
    def test_degrade_to_shed_transition_and_immediate_shed_tickets(
        self, tiny_correct, tiny_dcn
    ):
        _, x, _ = tiny_correct
        # Dispatch is unreachable (huge max_batch, long max_delay), so the
        # queue builds exactly with the submissions: depths 0,1 admit,
        # 2,3 degrade, and 4 = 2*max_queue sheds.
        service = DCNService(
            tiny_dcn, max_batch=64, max_queue=2, max_delay=30.0, overload="degrade"
        )
        with service:
            tickets = [service.submit(x[i : i + 1]) for i in range(8)]
            # Shed tickets resolve immediately -- callers never block on
            # a rejected request.
            t0 = time.perf_counter()
            shed_now = [tickets[i].wait(0.05) for i in range(4, 8)]
            assert time.perf_counter() - t0 < 0.5
            assert [r.status for r in shed_now] == ["shed"] * 4
            assert service.counters.shed == 4
            assert service.counters.degraded == 2
        # stop() drains the four admitted requests.
        drained = [t.wait(10.0) for t in tickets[:4]]
        assert [r.status for r in drained] == ["ok", "ok", "degraded", "degraded"]
        for result, i in zip(drained[:2], range(2)):
            np.testing.assert_array_equal(result.labels, tiny_dcn.classify(x[i : i + 1]))
        assert service.counters.queue_depth == 0


class TestIdleDispatcher:
    def test_idle_service_makes_no_spurious_wakeups(self, tiny_correct, tiny_dcn):
        """Regression: the idle loop used to poll cond.wait(0.05) forever."""
        _, x, _ = tiny_correct
        with DCNService(tiny_dcn, max_batch=8, max_queue=64, max_delay=0.001) as service:
            service.classify(x[:2], timeout=10.0)
            # Idle long enough that the old polling loop would have
            # woken dozens of times.
            time.sleep(0.3)
            service.classify(x[2:4], timeout=10.0)
            time.sleep(0.3)
        assert service.idle_wakeups == 0
