#!/usr/bin/env python
"""Multi-worker serving smoke: sharding, SLO admission, worker death.

Drives the :class:`~repro.serve.ServePool` front end through its
operational envelope on the cached ``mnist-fast`` artifacts:

1. **sharded equivalence** — requests fan out across forked workers and
   every served label must be bitwise-identical to offline
   ``DCN.classify`` on the same rows (the per-input corrector noise
   streams make the label a pure function of the row, not the worker);
2. **merged telemetry** — the fleet snapshot must sum counters across
   workers, produce finite fleet-wide percentiles from the merged
   sketches, and journal cleanly through ``TelemetryExporter``;
3. **SLO admission in workers** — a pool built with ``slo_target_s``
   builds the service every worker inherits with it; a generous budget
   must not shed anything on a light stream;
4. **worker death** — SIGKILL one worker mid-stream: its in-flight
   tickets must resolve as shed (never hang a caller), the survivors
   must finish the stream, and the fleet snapshot must name the corpse;
5. **wedged worker** — a worker alive but silent on its pipe (a blocking
   dispatch, heartbeats an hour apart) must be declared dead within
   ``lease_ttl`` plus one monitor tick of its last message, shedding its
   in-flight ticket;
6. **stopped worker respawned** — SIGSTOP a worker under supervision:
   once it is declared dead, the respawn must kill and reap it before
   forking its replacement, so a SIGCONT finds no process, no receive
   thread dies on the pipe the front end let go of, and the replacement
   serves labels bitwise-identical to offline ``DCN.classify``;
7. **poisoned window** — a good request read in one window with a NaN row
   under the runtime guards: the good request's own dispatch succeeds, so
   it is served with labels bitwise-identical to offline
   ``DCN.classify``; only the NaN row sheds (``reason="error"``), and the
   front end journals exactly one ``serve-worker-error``.

Exit status 0 = all checks passed.
"""

import json
import multiprocessing
import os
import signal
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.eval import build_context, scale_config  # noqa: E402
from repro.serve import (  # noqa: E402
    ServePool,
    StreamSpec,
    TelemetryExporter,
    build_stream,
    read_telemetry,
    run_windowed,
)
from repro.verify import guards  # noqa: E402


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main() -> int:
    ctx = build_context("mnist-fast", scale_config("fast"))
    dcn = ctx.dcn
    adv, _, _ = ctx.pool("cw-l2").successful()
    stream = build_stream(
        ctx.dataset.x_test,
        adv,
        StreamSpec(requests=32, adv_fraction=0.10, min_size=1, max_size=3, seed=11),
    )
    offline = [dcn.classify(request.x) for request in stream]
    tmp = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("/tmp")

    # 1 + 2 + 3. sharded equivalence with SLO admission and journaled telemetry
    journal = tmp / "serve_pool_smoke_telemetry.jsonl"
    journal.unlink(missing_ok=True)
    with ServePool(
        dcn, workers=2, ledger_path=tmp / "serve_pool_smoke_ledger.jsonl",
        max_batch=32, max_queue=256, slo_target_s=30.0,
    ) as pool:
        with TelemetryExporter(pool, journal, interval_s=60.0):
            stats = run_windowed(pool, stream, window=8)
            snapshot = pool.fleet_snapshot()
    check(stats.statuses == ["ok"] * len(stream), "pool: all requests served")
    check(
        all(np.array_equal(got, want) for got, want in zip(stats.labels, offline)),
        "pool: labels bitwise-identical to offline DCN.classify",
    )
    check(
        snapshot["workers"]["reporting"] == [0, 1],
        "pool: every worker took traffic and reported",
    )
    check(
        snapshot["counters"]["requests"] == len(stream)
        and snapshot["counters"]["shed"] == 0
        and snapshot["counters"]["slo_shed"] == 0,
        "pool: merged counters cover the stream, generous SLO sheds nothing",
    )
    check(
        np.isfinite(snapshot["latency"]["p95_ms"])
        and snapshot["latency"]["count"] == float(len(stream)),
        "pool: fleet percentiles finite over merged sketches",
    )
    records = read_telemetry(journal)
    check(
        records and records[-1]["final"] and records[-1]["workers"]["total"] == 2,
        "pool: telemetry journal replayable, final fleet record present",
    )

    # 4. SIGKILL one worker mid-stream: shed in-flight, survivors finish
    def stall_worker_zero(worker_id, n_requests):
        if worker_id == 0:
            time.sleep(30.0)

    with ServePool(
        dcn, workers=2, ledger_path=tmp / "serve_pool_smoke_chaos.jsonl",
        max_batch=32, max_queue=256, dispatch_hook=stall_worker_zero,
    ) as pool:
        # Even sequence numbers shard to worker 0 (stalled), odd to 1.
        tickets = [pool.submit(stream[i].x) for i in range(8)]
        healthy = [tickets[i].wait(30.0) for i in (1, 3, 5, 7)]
        check(
            all(r.status == "ok" for r in healthy),
            "chaos: healthy worker keeps serving while its peer stalls",
        )
        pool.processes[0].kill()
        doomed = [tickets[i].wait(10.0) for i in (0, 2, 4, 6)]
        check(
            all(r.status == "shed" for r in doomed),
            "chaos: SIGKILLed worker's in-flight tickets resolve as shed",
        )
        check(pool.live_workers() == [1], "chaos: monitor saw exactly one death")
        after = [pool.submit(stream[i].x) for i in range(8, 16)]
        results = [t.wait(30.0) for t in after]
        check(
            all(r.status == "ok" for r in results),
            "chaos: survivor finishes the stream",
        )
        check(
            all(
                np.array_equal(r.labels, offline[i])
                for i, r in zip(range(8, 16), results)
            ),
            "chaos: survivor's labels still bitwise-identical to offline",
        )
        snapshot = pool.fleet_snapshot()
        check(
            snapshot["workers"]["dead"] == [0]
            and snapshot["counters"]["shed"] >= 4,
            "chaos: fleet snapshot names the corpse and counts its sheds",
        )

    # 5. wedged worker: alive, pipe open, silent -> shed by liveness timeout
    lease_ttl = 0.5
    tick = min(lease_ttl / 4.0, 0.5)  # the pool monitor's period
    release = multiprocessing.get_context("fork").Event()

    def wedge(worker_id, n_requests):
        release.wait(30.0)

    with ServePool(
        dcn, workers=1, max_batch=32, lease_ttl=lease_ttl,
        heartbeat_interval=3600.0, dispatch_hook=wedge,
    ) as pool:
        # A stats reply is the worker's last message before the wedge;
        # the pause puts it safely before the clock below starts.
        pool.fleet_snapshot()
        time.sleep(0.1)
        t0 = time.monotonic()
        result = pool.submit(stream[0].x).wait(10.0)
        elapsed = time.monotonic() - t0
        check(
            result.status == "shed" and elapsed <= lease_ttl + tick,
            f"wedge: in-flight ticket shed {elapsed:.3f}s after submit "
            f"(bound {lease_ttl + tick:.3f}s)",
        )
        check(
            pool.live_workers() == [] and pool.processes[0].is_alive(),
            "wedge: silent worker declared dead while its process lives",
        )
        release.set()

    # 6. stopped worker: declared dead, killed and reaped, then respawned
    errors = []
    threading.excepthook = errors.append
    with ServePool(
        dcn, workers=1, max_batch=32, lease_ttl=lease_ttl, max_restarts=1,
    ) as pool:
        check(pool.classify(stream[0].x, timeout=30.0).status == "ok",
              "respawn: worker serves before the stop")
        corpse = pool.processes[0]
        os.kill(corpse.pid, signal.SIGSTOP)
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline and not (
            pool.respawns == 1 and pool.live_workers() == [0]
        ):
            time.sleep(0.05)
        check(pool.respawns == 1 and pool.live_workers() == [0],
              "respawn: stopped worker declared dead and replaced")
        try:
            os.kill(corpse.pid, signal.SIGCONT)
            woke = True
        except ProcessLookupError:
            woke = False
        time.sleep(2 * lease_ttl)  # a woken corpse would have sent a beat
        check(not woke and not corpse.is_alive(),
              "respawn: corpse killed and reaped before its replacement forked")
        results = [pool.classify(stream[i].x, timeout=30.0) for i in range(8)]
        check(
            all(r.status == "ok" for r in results)
            and all(np.array_equal(r.labels, offline[i]) for i, r in enumerate(results)),
            "respawn: replacement's labels bitwise-identical to offline",
        )
    threading.excepthook = threading.__excepthook__
    check(errors == [], "respawn: no receive thread died")

    # 7. a good request and a poisoned row read as one window
    x_test = ctx.dataset.x_test
    good_x = x_test[:2]
    poisoned = x_test[2:3].copy()
    poisoned.reshape(-1)[0] = np.nan
    entered = tmp / "serve_pool_smoke_entered"
    release = tmp / "serve_pool_smoke_release"
    for flag in (entered, release):
        flag.unlink(missing_ok=True)

    # Hold the first window until the next two requests wait on the
    # worker's socket, so the worker reads them as one window.
    def hold_first_window(worker_id, n_requests):
        if not entered.exists():
            entered.touch()
            deadline = time.monotonic() + 30.0
            while not release.exists() and time.monotonic() < deadline:
                time.sleep(0.01)

    ledger = tmp / "serve_pool_smoke_poison.jsonl"
    ledger.unlink(missing_ok=True)
    with guards.enforce(), ServePool(
        dcn, workers=1, max_batch=len(good_x), ledger_path=ledger,
        dispatch_hook=hold_first_window,
    ) as pool:
        first = pool.submit(x_test[3:4])
        deadline = time.monotonic() + 30.0
        while not entered.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        good = pool.submit(good_x)
        bad = pool.submit(poisoned)
        release.touch()
        results = [ticket.wait(30.0) for ticket in (first, good, bad)]
    check(
        [r.status for r in results[:2]] == ["ok", "ok"]
        and np.array_equal(results[1].labels, dcn.classify(good_x)),
        "poison: good request in the poisoned window served, labels offline-equal",
    )
    check(
        (results[2].status, results[2].reason) == ("shed", "error"),
        "poison: the poisoned row alone sheds with reason 'error'",
    )
    events = [json.loads(line) for line in ledger.read_text().splitlines()]
    check(
        [e.get("event") for e in events] == ["serve-worker-error"],
        "poison: one serve-worker-error journaled",
    )
    for flag in (entered, release):
        flag.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
