"""ServePool: sharded serving equivalence, merged telemetry, worker death.

The chaos tests (SIGKILL, a wedged worker going silent on its socket) pin
the pool's core guarantee: a dead worker's in-flight tickets must resolve
as shed — never hang a caller — and the survivors must finish the stream.
"""

import json
import multiprocessing
import os
import signal
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import DCN, Corrector
from repro.serve import (
    LatencySketch,
    ServeCounters,
    ServePool,
    StreamSpec,
    TelemetryExporter,
    build_stream,
    read_telemetry,
    run_windowed,
)
from repro.verify import guards

from .conftest import RuleDetector


def _lease_records(journal):
    """Lease claim/heartbeat/release lines in ``journal`` (none if absent)."""
    if not journal.exists():
        return []
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    return [rec for rec in records if rec.get("kind") == "lease"]


class TestShardedServing:
    def test_labels_bitwise_identical_to_offline(self, tiny_correct, tiny_dcn,
                                                 tmp_path):
        _, x, _ = tiny_correct
        stream = build_stream(x, None, StreamSpec(requests=12, max_size=3, seed=7))
        with ServePool(tiny_dcn, workers=2, ledger_path=tmp_path / "pool.jsonl",
                       max_batch=8, max_queue=64) as pool:
            stats = run_windowed(pool, stream, window=6)
        assert stats.statuses == ["ok"] * len(stream)
        for labels, request in zip(stats.labels, stream):
            np.testing.assert_array_equal(labels, tiny_dcn.classify(request.x))

    def test_merged_counters_cover_all_workers(self, tiny_correct, tiny_dcn,
                                               tmp_path):
        _, x, _ = tiny_correct
        stream = build_stream(x, None, StreamSpec(requests=10, max_size=2, seed=3))
        rows = sum(len(r.x) for r in stream)
        with ServePool(tiny_dcn, workers=3, ledger_path=tmp_path / "pool.jsonl",
                       max_batch=8, max_queue=64) as pool:
            run_windowed(pool, stream, window=5)
            snapshot = pool.fleet_snapshot()
            # Deterministic sharding: every worker got traffic and
            # reported a snapshot.
            assert snapshot["workers"]["reporting"] == [0, 1, 2]
        merged = ServeCounters.merged([snapshot["counters"]])
        assert merged.requests == len(stream)
        assert merged.examples == rows
        assert merged.shed == 0
        # Fleet-wide percentiles come from merged sketches, finite and
        # covering every served request.
        assert snapshot["latency"]["count"] == float(len(stream))
        assert np.isfinite(snapshot["latency"]["p95_ms"])
        sketch = LatencySketch.from_state(snapshot["sketch"])
        assert sketch.count == len(stream)

    def test_counters_survive_stop(self, tiny_correct, tiny_dcn, tmp_path):
        _, x, _ = tiny_correct
        stream = build_stream(x, None, StreamSpec(requests=6, max_size=2, seed=1))
        pool = ServePool(tiny_dcn, workers=2, ledger_path=tmp_path / "pool.jsonl",
                         max_batch=8, max_queue=64)
        with pool:
            run_windowed(pool, stream, window=3)
        # stop() snapshots before shutdown; post-stop queries still work.
        assert pool.counters().requests == len(stream)

    def test_clean_stop_exits_zero_and_journals_no_leases(self, tiny_correct,
                                                          tiny_dcn, tmp_path):
        _, x, _ = tiny_correct
        ledger_path = tmp_path / "pool.jsonl"
        with ServePool(tiny_dcn, workers=2, ledger_path=ledger_path,
                       max_batch=8) as pool:
            pool.classify(x[:2])
        assert [proc.exitcode for proc in pool.processes] == [0, 0]
        assert _lease_records(ledger_path) == []

    def test_stop_serves_the_requests_already_sent(self, tiny_correct, tiny_dcn,
                                                   tmp_path, monkeypatch):
        """stop() ends each worker's request stream; a worker serves every
        request it was sent before the end of the stream, then exits."""
        _, x, _ = tiny_correct
        entered = tmp_path / "entered"

        # The first window stalls past the stop's bounded stats poll, so
        # the rest of the requests are still unread when the stream ends.
        def stall_first_window(worker_id, n_requests):
            if not entered.exists():
                entered.touch()
                time.sleep(1.0)

        monkeypatch.setattr(ServePool, "_STATS_TIMEOUT", 0.2)
        pool = ServePool(tiny_dcn, workers=1, max_batch=8,
                         dispatch_hook=stall_first_window)
        with pool:
            tickets = [pool.submit(x[:1])]
            deadline = time.monotonic() + 10.0
            while not entered.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            tickets += [pool.submit(x[i : i + 2]) for i in range(1, 9, 2)]
        results = [ticket.wait(10.0) for ticket in tickets]
        assert [r.status for r in results] == ["ok"] * len(tickets)
        requests = [x[:1]] + [x[i : i + 2] for i in range(1, 9, 2)]
        for result, request in zip(results, requests):
            np.testing.assert_array_equal(result.labels, tiny_dcn.classify(request))
        assert [proc.exitcode for proc in pool.processes] == [0]

    def test_pool_without_ledger_path_writes_no_file(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        scratch = Path(tempfile.gettempdir())
        before = set(scratch.glob("serve-pool-*.jsonl"))
        with ServePool(tiny_dcn, workers=2, max_batch=8) as pool:
            assert pool.classify(x[:2], timeout=10.0).status == "ok"
        assert set(scratch.glob("serve-pool-*.jsonl")) - before == set()
        assert pool.ledger_path is None

    def test_submit_requires_start_and_validates(self, tiny_dcn, tmp_path):
        pool = ServePool(tiny_dcn, workers=1, ledger_path=tmp_path / "pool.jsonl")
        with pytest.raises(RuntimeError, match="not started"):
            pool.submit(np.zeros((1, 1, 6, 6), dtype=np.float32))
        with pytest.raises(ValueError):
            ServePool(tiny_dcn, workers=0)

    def test_unsendable_dtype_is_refused_at_submit(self, tiny_correct, tiny_dcn):
        # Requests travel to workers as frames: a dtype outside the wire
        # table raises at the caller, and the pool keeps serving.
        _, x, _ = tiny_correct
        with ServePool(tiny_dcn, workers=1, max_batch=8) as pool:
            with pytest.raises(ValueError, match="cannot be sent"):
                pool.submit(x[:1].astype(">f4"))
            result = pool.classify(x[:1], timeout=10.0)
        assert result.status == "ok"
        np.testing.assert_array_equal(result.labels, tiny_dcn.classify(x[:1]))

    def test_telemetry_exporter_over_pool(self, tiny_correct, tiny_dcn, tmp_path):
        _, x, _ = tiny_correct
        journal = tmp_path / "fleet.jsonl"
        with ServePool(tiny_dcn, workers=2, ledger_path=tmp_path / "pool.jsonl",
                       max_batch=8) as pool:
            with TelemetryExporter(pool, journal, interval_s=60.0) as exporter:
                pool.classify(x[:2])
                pool.classify(x[2:4])
                exporter.snapshot_now()
        records = read_telemetry(journal)
        assert records[-1]["final"] is True
        assert records[-1]["counters"]["requests"] == 2
        assert records[-1]["workers"]["total"] == 2


class TestWorkerDeath:
    def test_sigkill_sheds_inflight_and_survivors_finish(self, tiny_correct,
                                                         tiny_dcn, tmp_path):
        _, x, _ = tiny_correct

        # Plain sleep, deliberately: sharing an mp.Event with a process
        # that gets SIGKILLed can wedge the parent's set() forever (the
        # dead sleeper never acks the notify).  The worker dies mid-nap.
        def stall_worker_zero(worker_id, n_requests):
            if worker_id == 0:
                time.sleep(45.0)

        pool = ServePool(
            tiny_dcn, workers=2, ledger_path=tmp_path / "pool.jsonl",
            max_batch=8, max_queue=64, dispatch_hook=stall_worker_zero,
        )
        with pool:
            # Even sequence numbers shard to worker 0 (stalled), odd to
            # worker 1 (healthy).
            tickets = [pool.submit(x[i : i + 1]) for i in range(6)]
            healthy = [tickets[i].wait(10.0) for i in (1, 3, 5)]
            assert [r.status for r in healthy] == ["ok"] * 3
            pool.processes[0].kill()
            # The dead worker's in-flight tickets resolve as shed --
            # promptly, via socket EOF, not via a timeout.
            doomed = [tickets[i].wait(5.0) for i in (0, 2, 4)]
            assert [r.status for r in doomed] == ["shed"] * 3
            assert [r.reason for r in doomed] == ["unavailable"] * 3
            assert pool.live_workers() == [1]
            assert pool.worker_deaths == 1
            # Later requests route around the corpse and the stream
            # finishes on the survivor, labels still offline-identical.
            after = [pool.submit(x[i : i + 1]) for i in range(6, 10)]
            results = [t.wait(10.0) for t in after]
            assert [r.status for r in results] == ["ok"] * 4
            for i, result in zip(range(6, 10), results):
                np.testing.assert_array_equal(
                    result.labels, tiny_dcn.classify(x[i : i + 1])
                )
            snapshot = pool.fleet_snapshot()
            assert snapshot["workers"]["dead"] == [0]
            assert snapshot["counters"]["shed"] >= 3

    def test_wedged_worker_dies_by_lease_expiry(self, tiny_correct, tiny_dcn,
                                                tmp_path):
        """Alive-but-stuck worker: socket stays open, so only its silence
        outlasting ``lease_ttl`` can unstick its callers."""
        _, x, _ = tiny_correct
        release = multiprocessing.get_context("fork").Event()

        def wedge(worker_id, n_requests):
            release.wait(30.0)

        pool = ServePool(
            tiny_dcn, workers=1, ledger_path=tmp_path / "pool.jsonl",
            max_batch=8, lease_ttl=0.4, heartbeat_interval=3600.0,
            dispatch_hook=wedge,
        )
        with pool:
            ticket = pool.submit(x[:1])
            # No message arrives for lease_ttl, so the monitor declares
            # the worker dead without any process exit.
            result = ticket.wait(5.0)
            assert result.status == "shed"
            assert pool.live_workers() == []
            assert pool.worker_deaths == 1
            # With every worker dead the pool sheds at the front door,
            # immediately, instead of blocking callers.
            t0 = time.perf_counter()
            walkup = pool.submit(x[1:2]).wait(0.1)
            assert walkup.status == "shed"
            assert time.perf_counter() - t0 < 0.1
            assert pool.front_shed >= 2
            release.set()


class TestSupervision:
    """Bounded worker respawn: SIGKILL -> respawn -> identical labels;
    crash loops exhaust the restart budget and give up with a record."""

    def test_sigkill_respawn_rejoins_ring_with_identical_labels(
        self, tiny_correct, tiny_dcn, tmp_path
    ):
        from repro.runner.ledger import Ledger

        _, x, _ = tiny_correct
        ledger_path = tmp_path / "pool.jsonl"
        with ServePool(
            tiny_dcn, workers=2, ledger_path=ledger_path, max_batch=8,
            max_queue=64, max_restarts=3, restart_window_s=60.0,
        ) as pool:
            before = pool.classify(x[:2], timeout=10.0)
            assert before.status == "ok"
            pool.processes[0].kill()
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and not (
                pool.respawns == 1 and pool.live_workers() == [0, 1]
            ):
                time.sleep(0.05)
            assert pool.live_workers() == [0, 1]
            assert pool.respawns == 1
            # The replacement serves the dead worker's shard with labels
            # still bitwise-identical to offline classify.
            for i in range(4, 10):
                result = pool.classify(x[i : i + 1], timeout=10.0)
                assert result.status == "ok"
                np.testing.assert_array_equal(
                    result.labels, tiny_dcn.classify(x[i : i + 1])
                )
            snapshot = pool.fleet_snapshot()
            assert snapshot["workers"]["respawns"] == 1
            assert snapshot["workers"]["crash_loops"] == 0
            assert snapshot["workers"]["generations"][0] >= 1
            assert snapshot["counters"]["respawns"] == 1
        events = [
            rec for rec in Ledger(ledger_path).replay().events
            if rec.get("event") == "serve-worker-respawn"
        ]
        assert len(events) == 1
        assert events[0]["worker"] == 0

    def test_fleet_counters_never_decrease_across_respawn(
        self, tiny_correct, tiny_dcn, tmp_path
    ):
        _, x, _ = tiny_correct
        with ServePool(
            tiny_dcn, workers=2, ledger_path=tmp_path / "pool.jsonl", max_batch=8,
            max_queue=64, max_restarts=3, restart_window_s=60.0,
        ) as pool:
            for i in range(6):
                assert pool.classify(x[i : i + 1], timeout=10.0).status == "ok"
            before = pool.fleet_snapshot()
            assert before["counters"]["requests"] == 6
            pool.processes[0].kill()
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and not (
                pool.respawns == 1 and pool.live_workers() == [0, 1]
            ):
                time.sleep(0.05)
            assert pool.respawns == 1
            after = pool.fleet_snapshot()
        # The replacement starts from zero; its predecessor's last
        # snapshot stays in the sum, so cumulative totals hold.
        assert after["workers"]["reporting"] == [0, 1]
        assert after["counters"]["requests"] == 6
        assert after["latency"]["count"] == 6.0
        gauges = {"queue_depth", "queued_rows"}
        for key, value in before["counters"].items():
            if key not in gauges:
                assert after["counters"][key] >= value, key

    def test_respawned_worker_outlives_its_predecessors_lease_ttl(
        self, tiny_correct, tiny_dcn, tmp_path
    ):
        _, x, _ = tiny_correct
        lease_ttl = 0.4
        with ServePool(
            tiny_dcn, workers=1, ledger_path=tmp_path / "pool.jsonl", max_batch=8,
            lease_ttl=lease_ttl, max_restarts=2, restart_window_s=60.0,
        ) as pool:
            assert pool.classify(x[:1], timeout=10.0).status == "ok"
            pool.processes[0].kill()
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and not (
                pool.respawns == 1 and pool.live_workers() == [0]
            ):
                time.sleep(0.05)
            assert pool.live_workers() == [0]
            # Nothing the corpse last sent can count for or against the
            # replacement: it stays live on its own heartbeats.
            time.sleep(2.5 * lease_ttl)
            assert pool.live_workers() == [0]
            assert pool.worker_deaths == 1
            assert pool.respawns == 1
            assert pool.classify(x[:1], timeout=10.0).status == "ok"

    def test_crash_loop_exhausts_budget_and_gives_up(
        self, tiny_correct, tiny_dcn, tmp_path
    ):
        import os as _os
        import signal as _signal

        from repro.runner.ledger import Ledger

        _, x, _ = tiny_correct

        def die_on_dispatch(worker_id, n_requests):
            _os.kill(_os.getpid(), _signal.SIGKILL)

        ledger_path = tmp_path / "pool.jsonl"
        with ServePool(
            tiny_dcn, workers=1, ledger_path=ledger_path, max_batch=8,
            max_restarts=1, restart_window_s=60.0,
            dispatch_hook=die_on_dispatch,
        ) as pool:
            # Every dispatch kills the worker: death -> respawn (budget 1)
            # -> death -> crash loop.  Each doomed ticket still resolves.
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and pool.crash_loops == 0:
                result = pool.submit(x[:1]).wait(10.0)
                assert result.status == "shed"
                time.sleep(0.05)
            assert pool.crash_loops == 1
            assert pool.respawns == 1
            assert pool.live_workers() == []
            # The slot is abandoned: callers shed at the front door
            # instead of waiting on another doomed fork.
            walkup = pool.submit(x[:1]).wait(1.0)
            assert walkup.status == "shed"
            assert walkup.reason == "unavailable"
            snapshot = pool.fleet_snapshot()
            assert snapshot["workers"]["crash_loops"] == 1
            assert snapshot["counters"]["crash_loops"] == 1
        events = [
            rec for rec in Ledger(ledger_path).replay().events
            if rec.get("event") == "serve-worker-crash-loop"
        ]
        assert len(events) == 1
        assert events[0]["worker"] == 0
        assert events[0]["restarts"] == 1

    def test_respawn_ends_a_stopped_corpse_before_its_replacement_forks(
        self, tiny_correct, tiny_dcn, tmp_path, monkeypatch
    ):
        """SIGSTOP -> lease expiry -> respawn -> SIGCONT.  The respawn kills
        and reaps the silent worker, so it can never wake up and reply on
        a socket the front end has let go of, and no receive thread dies."""
        _, x, _ = tiny_correct
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        with ServePool(
            tiny_dcn, workers=1, ledger_path=tmp_path / "pool.jsonl", max_batch=8,
            lease_ttl=0.4, max_restarts=1, restart_window_s=60.0,
        ) as pool:
            assert pool.classify(x[:1], timeout=10.0).status == "ok"
            corpse = pool.processes[0]
            os.kill(corpse.pid, signal.SIGSTOP)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and not (
                pool.respawns == 1 and pool.live_workers() == [0]
            ):
                time.sleep(0.05)
            assert pool.respawns == 1
            try:
                os.kill(corpse.pid, signal.SIGCONT)
            except ProcessLookupError:
                pass  # reaped by the respawn
            # A woken corpse would send a heartbeat within lease_ttl / 4.
            time.sleep(0.5)
            assert not corpse.is_alive()
            assert pool.processes[0] is not corpse
            for i in range(4):
                result = pool.classify(x[i : i + 1], timeout=10.0)
                assert result.status == "ok"
                np.testing.assert_array_equal(
                    result.labels, tiny_dcn.classify(x[i : i + 1])
                )
        assert [(args.thread.name, args.exc_type) for args in errors] == []

    def test_no_respawn_by_default(self, tiny_correct, tiny_dcn, tmp_path):
        _, x, _ = tiny_correct
        with ServePool(
            tiny_dcn, workers=2, ledger_path=tmp_path / "pool.jsonl", max_batch=8,
        ) as pool:
            pool.processes[0].kill()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and 0 in pool.live_workers():
                time.sleep(0.05)
            time.sleep(0.5)  # give a (buggy) supervisor time to act
            assert pool.live_workers() == [1]
            assert pool.respawns == 0

    def test_validation(self, tiny_dcn):
        with pytest.raises(ValueError, match="max_restarts"):
            ServePool(tiny_dcn, workers=1, max_restarts=-1)
        with pytest.raises(ValueError, match="restart_window_s"):
            ServePool(tiny_dcn, workers=1, restart_window_s=0.0)
        # A zero, negative or non-finite interval would spin the worker's
        # heartbeat thread (or crash it) instead of pacing it.
        for interval in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="heartbeat_interval"):
                ServePool(tiny_dcn, workers=1, heartbeat_interval=interval)
        with pytest.raises(ValueError, match="heartbeat_interval"):
            ServePool(tiny_dcn, workers=1, lease_ttl=float("inf"))

    def test_bad_service_kwargs_raise_at_construction(self, tiny_dcn):
        # The pool builds the one DCNService its workers inherit, so a
        # typo or an invalid value fails here, not in every forked worker.
        with pytest.raises(TypeError, match="max_queu"):
            ServePool(tiny_dcn, workers=1, max_queu=5)
        with pytest.raises(ValueError, match="overload"):
            ServePool(tiny_dcn, workers=1, overload="bogus")


class TestPipeLiveness:
    """Liveness rides the worker socket: heartbeats and replies are frames,
    and the journal only ever holds front-end events."""

    def test_fast_heartbeats_keep_a_busy_worker_live_and_journal_nothing(
        self, tiny_correct, tiny_dcn, tmp_path
    ):
        _, x, _ = tiny_correct

        # The dispatch outlasts lease_ttl; only the heartbeat thread's
        # messages keep the worker from being declared wedged.
        def nap(worker_id, n_requests):
            time.sleep(0.6)

        ledger_path = tmp_path / "pool.jsonl"
        with ServePool(
            tiny_dcn, workers=1, ledger_path=ledger_path, max_batch=8,
            lease_ttl=0.3, heartbeat_interval=0.01, dispatch_hook=nap,
        ) as pool:
            assert pool.classify(x[:1], timeout=10.0).status == "ok"
            time.sleep(0.4)
            assert pool.live_workers() == [0]
            assert pool.worker_deaths == 0
        # No lease or heartbeat records: with no respawn, crash loop or
        # dispatch error the journal is never even created.
        assert not ledger_path.exists()

    def test_dispatch_error_is_journaled_by_the_front_end(self, tiny_correct,
                                                          tmp_path):
        from repro.runner.ledger import Ledger

        network, x, _ = tiny_correct

        def explode(logits):
            raise RuntimeError("detector exploded")

        dcn = DCN(network, RuleDetector(network, explode),
                  Corrector(network, radius=0.1, samples=20, seed=0))
        ledger_path = tmp_path / "pool.jsonl"
        with ServePool(dcn, workers=1, ledger_path=ledger_path, max_batch=8) as pool:
            result = pool.classify(x[:1], timeout=10.0)
            assert result.status == "shed"
            assert pool.live_workers() == [0]
        events = Ledger(ledger_path).replay().events
        assert [(e["event"], e["worker"], e["error"], e["message"]) for e in events] == [
            ("serve-worker-error", 0, "RuntimeError", "detector exploded")
        ]

    def test_poisoned_row_resolves_shed_with_the_error_reason(
        self, tiny_correct, tiny_dcn, monkeypatch
    ):
        # The worker replies with the service's ServeResult, so the
        # reason crosses the socket.
        _, x, _ = tiny_correct
        poisoned = x[:1].copy()
        poisoned[0, 0, 0, 0] = np.nan
        monkeypatch.setenv("REPRO_VERIFY", "1")  # the forked worker inherits it
        with ServePool(tiny_dcn, workers=1, max_batch=8) as pool:
            result = pool.submit(poisoned).wait(10.0)
            assert pool.classify(x[:2], timeout=10.0).status == "ok"
        assert (result.status, result.reason, result.labels) == ("shed", "error", None)

    def test_good_request_sharing_a_window_with_a_poisoned_row_is_served(
        self, tiny_correct, tiny_dcn, tmp_path
    ):
        """Only the failed dispatch sheds: a request whose own dispatch
        succeeded keeps its result even when a later batch of the same
        window raises."""
        _, x, _ = tiny_correct
        entered, release = tmp_path / "entered", tmp_path / "release"

        # Hold the first window until the next two requests wait on the
        # worker's socket, so the worker reads them as one window.
        def hold_first_window(worker_id, n_requests):
            if not entered.exists():
                entered.touch()
                deadline = time.monotonic() + 10.0
                while not release.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)

        poisoned = x[3:4].copy()
        poisoned[0, 0, 0, 0] = np.nan
        ledger_path = tmp_path / "pool.jsonl"
        with guards.enforce(), ServePool(
            tiny_dcn, workers=1, max_batch=2, ledger_path=ledger_path,
            dispatch_hook=hold_first_window,
        ) as pool:
            first = pool.submit(x[:1])
            deadline = time.monotonic() + 10.0
            while not entered.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            good = pool.submit(x[1:3])
            bad = pool.submit(poisoned)
            release.touch()
            results = [ticket.wait(10.0) for ticket in (first, good, bad)]
            counters = pool.fleet_snapshot()["counters"]
        assert [r.status for r in results] == ["ok", "ok", "shed"]
        np.testing.assert_array_equal(results[1].labels, tiny_dcn.classify(x[1:3]))
        assert (results[2].reason, results[2].labels) == ("error", None)
        assert (counters["batches"], counters["error_shed"]) == (2, 1)
        events = [json.loads(line) for line in ledger_path.read_text().splitlines()]
        assert [(e["event"], e["error"]) for e in events] == [
            ("serve-worker-error", "GuardViolation")
        ]


class TestBoundedSnapshot:
    def test_wedged_worker_lands_in_stale_workers(self, tiny_correct, tiny_dcn,
                                                  tmp_path):
        _, x, _ = tiny_correct

        # The worker naps through the dispatch; its heartbeat thread keeps
        # the lease fresh, so only the snapshot timeout can bound the poll.
        def nap(worker_id, n_requests):
            time.sleep(2.0)

        with ServePool(
            tiny_dcn, workers=1, ledger_path=tmp_path / "pool.jsonl",
            max_batch=8, lease_ttl=30.0, dispatch_hook=nap,
        ) as pool:
            ticket = pool.submit(x[:1])
            time.sleep(0.2)  # let the dispatch enter the nap
            t0 = time.perf_counter()
            snapshot = pool.fleet_snapshot(timeout=0.3)
            elapsed = time.perf_counter() - t0
            assert elapsed < 1.5  # bounded, nowhere near the 2s nap
            assert snapshot["workers"]["stale_workers"] == [0]
            assert ticket.wait(10.0).status == "ok"
            # Once the worker wakes, the next poll is fresh again.
            assert pool.fleet_snapshot()["workers"]["stale_workers"] == []
