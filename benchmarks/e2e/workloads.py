"""The four workloads, each run inside its own child process.

A child builds its inputs from the seed, sets the system up through the
public API, prints ``READY`` (``run.py`` times set-up from process start to
that line), runs the timed phases, checks every output and prints one JSON
line.  The program under test receives only the generated inputs.

Load comes from this process alone and uses at most two threads and two
connections: the open loops run a scheduler (the main thread) and one
collector thread, the capacity phases run on the main thread alone, and
``remote-pool`` runs one client connection on each of two threads.

Every phase is bracketed by host probes (``measure.HostProbe``) taken while
the program is idle, and every time and rate is reported at the nominal
host speed: rates times the phase's host factor, latencies by
``measure.nominal_latencies``.  The unscaled values stay in each run's
details.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import queue
import shutil
import sys
import threading
import time
from collections import deque
from pathlib import Path

import numpy as np

import measure
from tracing import Tracer, instrument, layer_metrics

ROOT = Path(__file__).resolve().parents[2]

#: Open-loop rate (requests/s), adversarial share and latency limit.  The
#: rates are about a ninth (benign) and a sixteenth (adv10) of the capacity
#: the same runs measure, so a host twice as slow as usual still leaves the
#: open loop far from queueing.
SERVE = {
    "serve-benign": {"rate": 600.0, "adv_fraction": 0.0, "slo_ms": 25.0},
    "serve-adv10": {"rate": 100.0, "adv_fraction": 0.10, "slo_ms": 50.0},
}
#: The services' batching window: DCNService's default max_delay, passed
#: explicitly so that latency scaling uses the same value.
WINDOW_S = 0.002
OPEN_SHARE = 0.4  # share of --seconds in the open loop; the rest is capacity
BLOCKS = 4  # open-loop and capacity phases alternate this many times
SLICE_S = 0.5  # seconds of one capacity or closed-loop slice
IN_FLIGHT = 96  # requests kept in flight in the capacity phase
#: An open loop whose generator ran later than this at p99 is invalid.  Due
#: times already charge lateness to latency; this catches a generator that
#: stopped keeping its schedule at all.
LATE_LIMIT_MS = 50.0
REMOTE_CLIENTS = 2
POOL_WORKERS = 2
REMOTE_ROWS = (1, 16)  # request sizes, inclusive
REMOTE_SLO_MS = 100.0
WAIT_S = 60.0  # bound on any single wait for a reply
SETUP_PROBES = 5  # host probes after set-up; their median scales set-up time
#: One offline round: a CW-L2 attack on one image x ATTACK_TARGETS
#: targets, DCN_CALLS batches of DCN_BATCH rows (DCN_ADV adversarial), RC
#: on RC_ROWS rows and one epoch of fit over the 1500-row training split.
#: On the 2-vCPU Xeon host at nominal speed a round takes about 2.3 s,
#: roughly 0.6 s of each stage.
ATTACK_TARGETS = 3
DCN_CALLS, DCN_BATCH, DCN_ADV = 10, 100, 10
RC_ROWS = 7
MIN_ROUNDS = 2  # every run completes these, whatever the host's speed
MAX_ROUND_S = 1.0  # inputs are made for --seconds / MAX_ROUND_S rounds


def log(message: str) -> None:
    print(f"[e2e] {message}", file=sys.stderr, flush=True)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.shape, str(a.dtype))).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def warm_plans(dcn, benign: np.ndarray, adversarial: np.ndarray) -> None:
    """Compile every plan the serving paths use before the clock starts.

    One request per bucket of the ladder compiles the model's and the
    detector's bucket shapes; flagged requests of 1..10 rows compile the
    corrector's sample-chunk shapes (512 // m = 10 rows per chunk).
    """
    from repro.serve import DCNService

    service = DCNService(dcn, max_delay=WINDOW_S)
    for bucket in service.buckets:
        service.serve_batch([benign[:bucket]])
    for k in range(1, 11):
        service.serve_batch([adversarial[:k]])


def engine_counts(dcn) -> dict:
    counters = [dcn.network.engine.counters, dcn.detector.network.engine.counters]
    return {
        "plan_misses": sum(c.plan_misses for c in counters),
        "memo_hits": counters[0].memo_hits,
        "requests": counters[0].requests,
    }


def counter_delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def nominal_rates(rates, factors) -> dict:
    """Slice rates at the nominal host speed: the median of rate x factor."""
    rates, factors = np.asarray(rates, dtype=float), np.asarray(factors, dtype=float)
    return {
        "value": float(np.median(rates * factors)),
        "unscaled": float(np.median(rates)),
        "host_factor": float(np.median(factors)),
        "slices": len(rates),
        "slice_rates": [round(float(r), 1) for r in rates],
        "slice_factors": [round(float(f), 4) for f in factors],
    }


# ---------------------------------------------------------------------------
# serve-benign, serve-adv10: open loop into an in-process DCNService
# ---------------------------------------------------------------------------


class Outcomes:
    """Per-request outcomes of single-row requests, kept as arrays.

    The collector copies what it needs out of each result and drops it,
    so the load generator keeps no per-request Python objects alive for
    the garbage collector to walk while the service runs in this process.
    """

    def __init__(self, rows: np.ndarray):
        size = len(rows)
        self.rows = rows  # index of each request's row in the request pool
        self.ok = np.zeros(size, dtype=bool)
        self.labels = np.full(size, -1)
        self.service_s = np.full(size, np.nan)  # the service's own latency clock

    def record(self, i: int, ticket) -> None:
        try:
            result = ticket.wait(WAIT_S)
        except TimeoutError:
            result = None
        if result is not None and result.status == "ok":
            self.ok[i] = True
            self.labels[i] = result.labels[0]
            self.service_s[i] = result.latency_s

    def collect(self, tickets: queue.SimpleQueue) -> None:
        """Wait on tickets in FIFO order until the ``None`` sentinel."""
        i = 0
        while (ticket := tickets.get()) is not None:
            self.record(i, ticket)
            i += 1

    def truncate(self, count: int) -> "Outcomes":
        for name in ("rows", "ok", "labels", "service_s"):
            setattr(self, name, getattr(self, name)[:count])
        return self


def joined(parts: list[Outcomes], name: str) -> np.ndarray:
    return np.concatenate([getattr(part, name) for part in parts])


class ServeWorkload:
    """Open-loop and capacity phases, alternating BLOCKS times.

    Alternating spreads slow stretches of the host over both kinds of
    phase instead of letting one land on the end of the run.  Each
    capacity phase is a run of SLICE_S slices; a host probe sits between
    any two phases.
    """

    def __init__(self, name, ctx, seed, seconds, tracer):
        self.cfg = SERVE[name]
        self.ctx, self.seconds, self.tracer = ctx, seconds, tracer
        self.rng = np.random.default_rng(seed)
        self.service = None

    def setup(self) -> None:
        from repro.serve import DCNService

        self.dcn = self.ctx.dcn
        benign = self.ctx.dataset.x_test
        adversarial = self.ctx.pool("cw-l2").successful()[0]
        self.rows = np.concatenate([benign, adversarial])
        frac = self.cfg["adv_fraction"]
        open_s = OPEN_SHARE * self.seconds / BLOCKS
        self.slices = max(1, round((1.0 - OPEN_SHARE) * self.seconds / BLOCKS / SLICE_S))
        self.schedules = []
        for _ in range(BLOCKS):
            offsets = measure.poisson_schedule(self.cfg["rate"], open_s, self.rng)
            rows = measure.mixed_rows(len(offsets), len(benign), len(adversarial), frac, self.rng)
            self.schedules.append((offsets, rows))
        # The capacity phases end early if they ever send all of these.
        self.cap_rows = measure.mixed_rows(1 << 17, len(benign), len(adversarial), frac, self.rng)
        if self.tracer:
            instrument(self.tracer, self.dcn)
        warm_plans(self.dcn, benign, adversarial)
        self.service = DCNService(self.dcn, max_delay=WINDOW_S).start()

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()

    def _open_loop(self, offsets: np.ndarray, idx: np.ndarray) -> Outcomes:
        """Submit on the schedule; one collector waits on tickets in order."""
        service, rows = self.service, self.rows
        out = Outcomes(idx)
        sent = np.empty(len(idx))
        tickets: queue.SimpleQueue = queue.SimpleQueue()
        collector = threading.Thread(target=out.collect, args=(tickets,), name="e2e-collector")
        collector.start()
        due = time.perf_counter() + 0.005 + offsets
        for i in range(len(idx)):
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[i] = time.perf_counter()
            tickets.put(service.submit(rows[idx[i] : idx[i] + 1]))
        tickets.put(None)
        collector.join()
        out.due, out.sent = due, sent
        return out

    def _capacity(self, first: int) -> Outcomes:
        """One slice: keep IN_FLIGHT requests in flight for SLICE_S seconds,
        then drain.

        One thread: wait for the oldest request, then send the next.
        """
        service, rows = self.service, self.rows
        idx = self.cap_rows[first:]
        out = Outcomes(idx)
        inflight: deque = deque()
        out.start = time.perf_counter()
        stop = out.start + SLICE_S
        sent = done = 0
        while sent < len(idx) and (sent < IN_FLIGHT or time.perf_counter() < stop):
            if len(inflight) == IN_FLIGHT:
                out.record(done, inflight.popleft())
                done += 1
            inflight.append(service.submit(rows[idx[sent] : idx[sent] + 1]))
            sent += 1
        while inflight:
            out.record(done, inflight.popleft())
            done += 1
        out.stop = time.perf_counter()
        return out.truncate(sent)

    def run(self) -> dict:
        dcn, service = self.dcn, self.service
        probe = measure.HostProbe()
        before = service.counters.as_dict()
        engine_before = engine_counts(dcn)
        opened: list[Outcomes] = []
        capacity: list[Outcomes] = []
        open_marks: list[int] = []
        cap_marks: list[int] = []
        sent = 0
        t0 = time.perf_counter()
        for offsets, idx in self.schedules:
            open_marks.append(probe.mark())
            opened.append(self._open_loop(offsets, idx))
            for _ in range(self.slices):
                cap_marks.append(probe.mark())
                capacity.append(self._capacity(sent))
                sent += len(capacity[-1].rows)
        probe.probe()  # closes the last slice
        t1 = time.perf_counter()
        service.stop()
        delta = counter_delta(service.counters.as_dict(), before)

        # Outputs: every served label equals DCN.classify on the same
        # request.  Requests are single rows, so one call per distinct row
        # covers every request.
        parts = opened + capacity
        used, labels, ok = (joined(parts, name) for name in ("rows", "labels", "ok"))
        expected = np.full(len(self.rows), -1)
        for r in np.unique(used):
            expected[r] = dcn.classify(self.rows[r : r + 1])[0]
        mismatched = int(np.sum(ok & (labels != expected[used])))

        # A request completes when the dispatcher resolves its ticket: its
        # send time plus the service's own latency clock (same process,
        # same clock), which leaves out the collector's wake-up.
        due, sent_at = joined(opened, "due"), joined(opened, "sent")
        latency = measure.due_latencies(due, sent_at + joined(opened, "service_s"))
        factors = np.concatenate(
            [np.full(len(o.rows), probe.around(m)) for o, m in zip(opened, open_marks)]
        )
        nominal = measure.nominal_latencies(latency, factors, WINDOW_S)
        failed = ~joined(opened, "ok")
        latency[failed] = nominal[failed] = WAIT_S  # a failed request misses every limit
        late_p99_ms = 1e3 * measure.percentile(sent_at - due, 99)
        p50, _ = measure.windowed(nominal, 50)
        p99, window_p99s = measure.windowed(latency, 99)
        slo_frac = float(np.mean(latency <= self.cfg["slo_ms"] / 1e3))
        rates = nominal_rates(
            [c.ok.sum() / (c.stop - c.start) for c in capacity],
            [probe.around(m) for m in cap_marks],
        )
        checks = {
            "labels_equal": mismatched == 0,
            "generator_on_time": late_p99_ms <= LATE_LIMIT_MS,
            "zero_plan_misses": delta["plan_misses"] == 0,
        }
        out = {
            "metrics": {"p50_ms": 1e3 * p50, "rows_per_sec": rates["value"]},
            "attempted": len(ok),
            "failed": int(len(ok) - ok.sum()),
            "checks": checks,
            "details": {
                "open_requests": len(due), "capacity_requests": len(ok) - len(due),
                "p50_ms_unscaled": 1e3 * measure.windowed(latency, 50)[0],
                "rows_per_sec_unscaled": rates["unscaled"], "host_factor": rates["host_factor"],
                "slices": rates["slices"], "slice_rates": rates["slice_rates"],
                "slice_factors": rates["slice_factors"],
                "p99_ms": 1e3 * p99, "window_p99_ms": [round(1e3 * p, 3) for p in window_p99s],
                "late_p99_ms": late_p99_ms, "slo_frac": slo_frac, "mismatched": mismatched,
                "flagged_frac": delta["flagged"] / max(1, delta["examples"]),
            },
        }
        if self.tracer:
            served = joined(parts, "service_s")[ok]
            out["layers"] = layer_metrics(
                window_spans(self.tracer, t0, t1),
                service=delta, service_wall=t1 - t0,
                service_latency_ms=1e3 * float(served.mean()),
                engine=counter_delta(engine_counts(dcn), engine_before) | {"plan_misses": 0},
                loadgen={"p99_ms": 1e3 * p99, "late_p99_ms": late_p99_ms, "slo_frac": slo_frac},
            )
        return out


# ---------------------------------------------------------------------------
# remote-pool: closed loop over TCP into DCNServer -> ServePool(workers=2)
# ---------------------------------------------------------------------------


def _serve_remote(dcn, conn, ledger_path: str) -> None:
    """Forked server process: ServePool behind DCNServer until told to stop.

    It must not be a daemon: ServePool forks its workers from here, and a
    daemonic process may not have children.  ``DCNServer.stop()`` is not
    called: closing the listener does not wake the thread blocked in
    ``accept()``, so it would wait out its 5 s join timeout every run.  The
    clients have disconnected by now, and the accept thread is a daemon
    that ends with this process.
    """
    from repro.serve import DCNServer, ServePool

    pool = ServePool(
        dcn, workers=POOL_WORKERS, ledger_path=ledger_path, max_delay=WINDOW_S
    ).start()
    server = DCNServer(pool).start()
    conn.send(server.address)
    try:
        conn.recv()
    except EOFError:
        pass
    fleet = pool.fleet_snapshot()["counters"]
    pool.stop()
    conn.send(fleet)
    conn.close()


class RemoteWorkload:
    """Closed-loop slices: both clients call for SLICE_S seconds and wait
    for each other, and a host probe sits between any two slices."""

    def __init__(self, name, ctx, seed, seconds, tracer):
        self.ctx, self.seed, self.seconds, self.tracer = ctx, seed, seconds, tracer
        self.rng = np.random.default_rng(seed)
        self.proc = None
        self.clients = []

    def setup(self) -> None:
        from repro.serve import DCNClient

        dcn = self.dcn = self.ctx.dcn
        benign = self.ctx.dataset.x_test
        flagged = dcn.detector.is_adversarial(dcn.network.engine.logits(benign, memo=False))
        negatives = benign[~flagged]
        # Per client, a cycle of requests of 1..16 distinct detector-negative rows.
        self.streams = [
            [
                negatives[self.rng.choice(len(negatives), size=size, replace=False)]
                for size in self.rng.integers(REMOTE_ROWS[0], REMOTE_ROWS[1] + 1, size=1024)
            ]
            for _ in range(REMOTE_CLIENTS)
        ]
        if self.tracer:
            instrument(self.tracer, dcn)
        warm_plans(dcn, benign, self.ctx.pool("cw-l2").successful()[0])
        # Fork the server before this process starts any thread.
        mp = multiprocessing.get_context("fork")
        self.conn, child = mp.Pipe()
        self.ledger = ROOT / ".benchmarks" / "e2e" / f"pool-{os.getpid()}.jsonl"
        self.proc = mp.Process(
            target=_serve_remote, args=(dcn, child, str(self.ledger)), name="e2e-server",
            daemon=False,
        )
        self.proc.start()
        child.close()
        if not self.conn.poll(WAIT_S):
            raise RuntimeError("remote server did not report its address")
        address = tuple(self.conn.recv())
        self.clients = [
            DCNClient(address, backoff_seed=self.seed * 10 + c) for c in range(REMOTE_CLIENTS)
        ]
        for client in self.clients:
            if not client.ping():
                raise RuntimeError("remote server did not answer a ping")

    def close(self) -> dict | None:
        """Stop the server; returns its fleet counters the first time."""
        if self.proc is None:
            return None
        fleet = None
        for client in self.clients:
            client.close()
        try:
            self.conn.send("stop")
            if self.conn.poll(WAIT_S):
                fleet = self.conn.recv()
        except (OSError, EOFError):
            pass
        self.proc.join(WAIT_S)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()
        self.proc = None
        self.conn.close()
        self.ledger.unlink(missing_ok=True)
        return fleet

    def run(self) -> dict:
        probe = measure.HostProbe()
        slices = max(1, round(self.seconds / SLICE_S))
        barrier = threading.Barrier(len(self.clients), timeout=WAIT_S)
        # Per call: (slice, send, reply, client, stream index, labels or None).
        calls: list[list] = [[] for _ in self.clients]
        bounds: list[tuple[float, float]] = []
        marks: list[int] = []
        cursor = [0] * len(self.clients)
        stop_at = [0.0]

        def drive(c: int, s: int) -> None:
            client, stream, out = self.clients[c], self.streams[c], calls[c]
            k = cursor[c]
            while time.perf_counter() < stop_at[0]:
                start = time.perf_counter()
                result = client.classify(stream[k])
                end = time.perf_counter()
                out.append((s, start, end, c, k, result.labels if result.status == "ok" else None))
                k = (k + 1) % len(stream)
            cursor[c] = k

        def other(c: int) -> None:
            try:
                for s in range(slices):
                    barrier.wait()
                    drive(c, s)
                    barrier.wait()
            except BaseException:
                barrier.abort()  # wakes the main thread at once
                raise

        helpers = [
            threading.Thread(target=other, args=(c,), name=f"e2e-client-{c}")
            for c in range(1, len(self.clients))
        ]
        for helper in helpers:
            helper.start()
        t0 = time.perf_counter()
        try:
            for s in range(slices):
                marks.append(probe.mark())
                start = time.perf_counter()
                stop_at[0] = start + SLICE_S
                barrier.wait()
                drive(0, s)
                barrier.wait()
                bounds.append((start, time.perf_counter()))
            probe.probe()  # closes the last slice
        except BaseException:
            barrier.abort()
            raise
        finally:
            for helper in helpers:
                helper.join()
        t1 = time.perf_counter()
        fleet = self.close()

        records = sorted((rec for out in calls for rec in out), key=lambda rec: rec[1])
        ok = np.array([labels is not None for *_, labels in records])
        expected: dict = {}
        mismatched = 0
        for _, _, _, c, k, labels in records:
            if labels is not None:
                if (c, k) not in expected:
                    expected[(c, k)] = self.dcn.classify(self.streams[c][k])
                mismatched += not np.array_equal(labels, expected[(c, k)])
        slice_of = np.array([rec[0] for rec in records])
        latency = np.array([end - start for _, start, end, *_ in records])
        factors = np.array([probe.around(m) for m in marks])
        # Every hop of the remote path, the end of a worker's batching
        # window included, wakes a core that was idle, and the host's load
        # stretches those wake-ups as it stretches compute: scaling the
        # whole round trip tracked the host better than sparing the window.
        nominal = measure.nominal_latencies(latency, factors[slice_of], 0.0)
        latency[~ok] = nominal[~ok] = WAIT_S  # a failed request misses every limit
        p50, _ = measure.windowed(nominal, 50)
        p99, window_p99s = measure.windowed(latency, 99)
        rows = np.array([len(self.streams[c][k]) for _, _, _, c, k, _ in records]) * ok
        rates = nominal_rates(
            [rows[slice_of == s].sum() / (b - a) for s, (a, b) in enumerate(bounds)], factors
        )
        counters = [client.counters for client in self.clients]
        clients = {key: sum(getattr(c, key) for c in counters) for key in ("retries", "shed")}
        slo_frac = float(np.mean(latency <= REMOTE_SLO_MS / 1e3))
        out = {
            "metrics": {"p50_ms": 1e3 * p50, "rows_per_sec": rates["value"]},
            "attempted": len(records),
            "failed": int(len(records) - ok.sum()),
            "checks": {
                "labels_equal": mismatched == 0,
                "server_stopped": fleet is not None,
                "zero_plan_misses": fleet is not None and fleet["plan_misses"] == 0,
            },
            "details": {
                "requests": len(records), "mismatched": mismatched,
                "p50_ms_unscaled": 1e3 * measure.windowed(latency, 50)[0],
                "rows_per_sec_unscaled": rates["unscaled"], "host_factor": rates["host_factor"],
                "slices": rates["slices"], "slice_rates": rates["slice_rates"],
                "slice_factors": rates["slice_factors"],
                "p99_ms": 1e3 * p99, "window_p99_ms": [round(1e3 * p, 3) for p in window_p99s],
                "slo_frac": slo_frac, **clients,
            },
        }
        if self.tracer and fleet is not None:
            out["layers"] = layer_metrics(
                window_spans(self.tracer, t0, t1),
                service=fleet, service_wall=POOL_WORKERS * (t1 - t0),
                clients=clients,
                roundtrip_ms=1e3 * float(np.mean(latency[ok])),
                loadgen={"p99_ms": 1e3 * p99, "late_p99_ms": 0.0, "slo_frac": slo_frac},
            )
        return out


# ---------------------------------------------------------------------------
# offline-eval: the researcher's pipeline, single-threaded
# ---------------------------------------------------------------------------


class _Deadline(Exception):
    """Raised before a call once --seconds have passed."""


class OfflineWorkload:
    """Rounds of about 2.3 s, each running every stage once, until
    --seconds have passed.

    Interleaving the stages lets a slow stretch of the host touch every
    stage alike.  Every public call is timed on its own and scaled by a
    host probe at most 0.25 s old; each stage's rate is its median over
    calls.  The output digests cover the first MIN_ROUNDS rounds, which
    every run completes whatever the host's speed.
    """

    STAGES = ("attack", "dcn", "rc", "fit")

    def __init__(self, name, ctx, seed, seconds, tracer):
        self.ctx, self.seed, self.seconds, self.tracer = ctx, seed, seconds, tracer
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        from repro.attacks import make_attack
        from repro.nn import Adam
        from repro.zoo import MODEL_CONFIGS, build_network

        ctx, rng = self.ctx, self.rng
        self.dcn, self.rc, self.model = ctx.dcn, ctx.rc, ctx.model
        x, y = ctx.dataset.x_test, ctx.dataset.y_test
        adversarial, adv_labels, _ = ctx.pool("cw-l2").successful()
        # The full search schedule, so an attack's cost does not depend on
        # how early each seed's search happens to converge.
        self.attack = make_attack("cw-l2", abort_early=False)
        # Inputs for more rounds than even a host twice as fast as nominal
        # could run.
        rounds = max(MIN_ROUNDS, int(np.ceil(self.seconds / MAX_ROUND_S)))

        # Per round: one correctly classified image against ATTACK_TARGETS
        # of its nine wrong classes.
        correct = np.flatnonzero(self.model.engine.predict(x) == y)
        self.cw_inputs = []
        for i in rng.choice(correct, size=rounds, replace=False):
            wrong = np.array([t for t in range(10) if t != y[i]])
            targets = rng.choice(wrong, size=ATTACK_TARGETS, replace=False)
            self.cw_inputs.append(
                (np.repeat(x[i : i + 1], ATTACK_TARGETS, axis=0), np.full(ATTACK_TARGETS, y[i]),
                 targets)
            )

        # Distinct batches, so the engine memo never hits; 10% adversarial.
        self.dcn_inputs = []
        for _ in range(rounds * DCN_CALLS):
            b = rng.choice(len(x), size=DCN_BATCH - DCN_ADV, replace=False)
            a = rng.choice(len(adversarial), size=DCN_ADV, replace=False)
            order = rng.permutation(DCN_BATCH)
            batch = np.concatenate([x[b], adversarial[a]])[order]
            labels = np.concatenate([y[b], adv_labels[a]])[order]
            is_adv = np.concatenate([np.zeros(len(b), bool), np.ones(len(a), bool)])[order]
            self.dcn_inputs.append((batch, labels, is_adv))

        rc_rows = rng.choice(len(x), size=rounds * RC_ROWS, replace=False)
        self.rc_inputs = (x[rc_rows], y[rc_rows])

        order = rng.permutation(len(ctx.dataset.x_train))
        self.fit_inputs = (ctx.dataset.x_train[order], ctx.dataset.y_train[order])
        config = MODEL_CONFIGS["cnn-fast"]
        self.network = build_network(config, ctx.dataset.input_shape, 10, seed=self.seed)
        self.optimizer = Adam(self.network.parameters(), lr=config.learning_rate)
        self.batch_size = config.batch_size
        self.round_units = {
            "attack": ATTACK_TARGETS, "dcn": DCN_CALLS * DCN_BATCH, "rc": RC_ROWS,
            "fit": len(self.fit_inputs[0]),
        }

        if self.tracer:
            instrument(self.tracer, self.dcn, rc=self.rc, attack=self.attack)
        # Warm-up on mirrored images, which the timed stages never see.
        mirrored = np.flip(x, axis=-1).copy()
        self.dcn.classify(mirrored[:DCN_BATCH])
        self.rc.classify(mirrored[:1])
        make_attack("cw-l2", binary_search_steps=1, max_iterations=2).perturb(
            self.model, *self.cw_inputs[0]
        )

    def close(self) -> None:
        pass

    def run(self) -> dict:
        from repro.nn import TrainConfig, fit

        probe = measure.HostProbe()
        engine_before = engine_counts(self.dcn)
        # Per stage and call: (round, wall seconds, seconds at the nominal
        # host speed, units, output).
        timed = {stage: [] for stage in self.STAGES}
        t0 = time.perf_counter()
        deadline = t0 + self.seconds

        def call(r: int, stage: str, units: int, fn, *args) -> None:
            if r >= MIN_ROUNDS and time.perf_counter() >= deadline:
                raise _Deadline
            factor = probe.factor()
            start = time.perf_counter()
            result = fn(*args)
            seconds = time.perf_counter() - start
            timed[stage].append((r, seconds, seconds / factor, units, result))

        fit_rng = np.random.default_rng(self.seed)
        fit_config = TrainConfig(epochs=1, batch_size=self.batch_size)
        xs = self.rc_inputs[0]
        fit_digest = None
        try:
            for r in range(len(self.cw_inputs)):
                call(r, "attack", ATTACK_TARGETS, self.attack.perturb, self.model,
                     *self.cw_inputs[r])
                for batch, _, _ in self.dcn_inputs[r * DCN_CALLS : (r + 1) * DCN_CALLS]:
                    call(r, "dcn", DCN_BATCH, self.dcn.classify, batch)
                for i in range(r * RC_ROWS, (r + 1) * RC_ROWS):
                    call(r, "rc", 1, self.rc.classify, xs[i : i + 1])
                call(r, "fit", len(self.fit_inputs[0]), fit, self.network, self.optimizer,
                     *self.fit_inputs, fit_config, fit_rng)
                if r == MIN_ROUNDS - 1:
                    fit_digest = digest(
                        np.array([loss for c in timed["fit"] for loss in c[4].loss]),
                        *(p.data for p in self.network.parameters()),
                    )
        except _Deadline:
            pass
        t1 = time.perf_counter()

        def outputs(stage: str, rounds: int | None = None) -> list:
            return [c[4] for c in timed[stage] if rounds is None or c[0] < rounds]

        dcn_labels = outputs("dcn")
        truth = np.concatenate([t for _, t, _ in self.dcn_inputs[: len(dcn_labels)]])
        is_adv = np.concatenate([a for _, _, a in self.dcn_inputs[: len(dcn_labels)]])
        got = np.concatenate(dcn_labels)
        rc_labels = np.concatenate(outputs("rc"))
        losses = [loss for history in outputs("fit") for loss in history.loss]
        engine = counter_delta(engine_counts(self.dcn), engine_before)
        checks = {
            "attack_succeeds": float(np.mean([res.success_rate for res in outputs("attack")]))
            >= 0.5,
            "dcn_benign_accuracy": float(np.mean(got[~is_adv] == truth[~is_adv])) >= 0.9,
            "dcn_recovers": float(np.mean(got[is_adv] == truth[is_adv])) >= 0.5,
            "rc_accuracy": float(np.mean(rc_labels == self.rc_inputs[1][: len(rc_labels)]))
            >= 0.85,
            "fit_learns": losses[-1] < losses[0],
            "memo_unused": engine["memo_hits"] == 0,
        }
        digests = {
            "attack": digest(*(a for res in outputs("attack", MIN_ROUNDS)
                               for a in (res.adversarial, res.success))),
            "dcn": digest(*outputs("dcn", MIN_ROUNDS)),
            "rc": digest(*outputs("rc", MIN_ROUNDS)),
            "fit": fit_digest,
        }

        def rate(stage: str, column: int) -> float:
            return float(np.median([c[3] / c[column] for c in timed[stage]]))

        def pipeline(column: int) -> float:
            """Units of one round over the time one round takes, each stage
            at its median per-call rate."""
            return sum(self.round_units.values()) / sum(
                units / rate(stage, column) for stage, units in self.round_units.items()
            )

        out = {
            "metrics": {
                "p50_ms": measure.percentile([1e3 * c[2] for c in timed["dcn"]], 50),
                "rows_per_sec": pipeline(2),
            },
            "attempted": sum(len(calls) for calls in timed.values()),
            "failed": 0,
            "checks": checks,
            "digests": digests,
            "details": {
                "rounds": 1 + max(c[0] for c in timed["attack"]),
                "calls": {s: len(timed[s]) for s in self.STAGES},
                "stage_rates": {s: rate(s, 2) for s in self.STAGES},
                "p50_ms_unscaled": measure.percentile([1e3 * c[1] for c in timed["dcn"]], 50),
                "rows_per_sec_unscaled": pipeline(1),
                "host_factor": float(np.median(probe.samples)) / measure.PROBE_NOMINAL_S,
                "probes": len(probe.samples),
            },
        }
        if self.tracer:
            stages = {
                stage: (sum(c[1] for c in timed[stage]), sum(c[3] for c in timed[stage]))
                for stage in self.STAGES
            }
            out["layers"] = layer_metrics(
                window_spans(self.tracer, t0, t1), engine=engine, stages=stages
            )
        return out


WORKLOADS = {
    "serve-benign": ServeWorkload,
    "serve-adv10": ServeWorkload,
    "remote-pool": RemoteWorkload,
    "offline-eval": OfflineWorkload,
}


def window_spans(tracer: Tracer, t0: float, t1: float):
    return [s for s in tracer.collect() if s.start >= t0 and s.end <= t1]


def cache_listing() -> set[str]:
    from repro.cache import cache_dir

    return {p.name for p in cache_dir().glob("*.npz")}


def child_main(name: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> int:
    from repro.eval import build_context, scale_config

    before = cache_listing()
    ctx = build_context("mnist-fast", scale_config("fast"))
    tracer = None
    if trace:
        dump = ROOT / ".benchmarks" / "e2e" / f"spans-tmp-{os.getpid()}"
        shutil.rmtree(dump, ignore_errors=True)
        tracer = Tracer(dump)
    workload = WORKLOADS[name](name, ctx, seed, seconds, tracer)
    try:
        workload.setup()
        built = sorted(cache_listing() - before)
        print("READY", flush=True)
        # The host's speed at the end of set-up, for scaling set-up time.
        probe = measure.HostProbe()
        host_factor = float(np.median([probe.probe() for _ in range(SETUP_PROBES)]))
        if setup_only or built:
            if built:
                log(f"cache was cold; built {len(built)} artifact(s) before timing")
            print(json.dumps({"built": built, "host_factor": host_factor}))
            return 0
        result = workload.run()
    finally:
        workload.close()
    if tracer:
        spans = tracer.collect()
        path = ROOT / ".benchmarks" / "e2e" / f"spans-{name}-{seed}.json"
        path.write_text(json.dumps([list(s) for s in spans]))
        shutil.rmtree(tracer.dump_dir, ignore_errors=True)
    result["details"]["numpy"] = np.__version__
    result["host_factor"] = host_factor
    print(json.dumps(result))
    return 0
