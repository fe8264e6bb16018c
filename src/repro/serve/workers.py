"""Multi-worker serving: N forked ``DCNService`` workers behind one front end.

:class:`ServePool` scales the single-process service horizontally:

Sharded front end
    ``submit()`` routes each request to a worker by a **deterministic
    shard-by-request** rule — request sequence number modulo the worker
    count, falling to the next live worker in the ring when the target is
    dead.  The pool builds one :class:`~repro.serve.DCNService` over the
    DCN and every worker inherits it by fork, so served labels stay
    bitwise-identical to offline ``DCN.classify`` no matter which worker
    a request lands on: the per-input corrector noise streams make the
    label a pure function of the row.

Pipe liveness
    Each worker's pipe is its only channel to the front end: requests and
    stats polls go down it; results, stats snapshots, dispatch errors and
    heartbeats come back up it.  A worker thread sends ``("beat",)`` every
    ``heartbeat_interval`` seconds — the first as soon as the worker
    runs — under the same send lock as the worker's replies.  The
    front end stamps ``time.monotonic()`` on every message it receives,
    and its monitor marks a worker dead when its process exits *or*
    nothing has arrived from it for ``lease_ttl`` seconds (alive but
    wedged).  A dead worker's in-flight requests **resolve as shed** —
    callers blocked in ``ticket.wait()`` unblock immediately instead of
    hanging, and later requests route around the corpse.  SIGKILL is
    additionally caught fast through pipe EOF.  One receive thread reads
    each pipe and alone closes it, once the pipe reaches EOF.

Bounded respawn supervision
    With ``max_restarts > 0`` the monitor **respawns** a dead worker.  It
    first ends the corpse — SIGKILL (a wedged worker may still be alive),
    reap, then join the corpse's receive thread, which returns on pipe
    EOF — and only then forks the replacement, the slot's next
    *generation*, over a fresh pipe.  Each generation is its own record,
    so nothing the corpse sent can vouch for its replacement, and because
    labels are a pure function of the row, a respawned worker serves
    bitwise-identically to the one it replaced.
    The budget is a sliding **restart window**: more than
    ``max_restarts`` respawns of one slot within ``restart_window_s``
    seconds is a crash loop — supervision gives up on the slot and the
    ring absorbs the shard permanently.  ``respawns``/``crash_loops``
    counters flow into the fleet snapshot and the telemetry journal.

Event journal
    ``ledger_path`` optionally names a JSONL journal in the runner's
    :class:`~repro.runner.ledger.Ledger` format, written by the front end
    alone: ``serve-worker-respawn``, ``serve-worker-crash-loop`` and
    ``serve-worker-error`` (a dispatch error a worker reported over its
    pipe).  Without it the pool writes no file.

Merged telemetry
    Workers ship :class:`~repro.serve.telemetry.ServeCounters` snapshots
    and mergeable :class:`~repro.serve.telemetry.LatencySketch` states on
    demand; :meth:`ServePool.fleet_snapshot` sums counters and merges
    sketches into fleet-wide p50/p95 without ever shipping raw latency
    windows.  Every generation keeps its last snapshot, so a respawned
    worker starting from zero never pulls fleet totals backwards.  The
    poll is **bounded**: a worker that dies mid-request can
    delay the snapshot by at most the stats timeout, after which the
    partial snapshot lists the non-responders in ``stale_workers``
    (their last-known counters still included).  The pool exposes
    ``telemetry_snapshot()`` so a
    :class:`~repro.serve.telemetry.TelemetryExporter` can journal the
    fleet time series exactly like a single service's.

``fork`` is the only supported start method (the DCN, its engines and
the service are inherited, never pickled);
:func:`repro.runner.pool.fork_available` gates it.
"""

from __future__ import annotations

import math
import multiprocessing
import threading
import time
from pathlib import Path

from ..runner.ledger import Ledger
from .service import DCNService, ServeResult, ServeTicket
from .telemetry import LatencySketch, ServeCounters

__all__ = ["ServePool"]


class _Worker:
    """One forked generation of a worker slot, as the front end sees it.

    A respawn makes a new record, so a death report, reply or snapshot
    from a corpse can only ever touch the corpse's own record.
    """

    __slots__ = (
        "slot", "generation", "proc", "conn", "send_lock", "inflight",
        "last_seen", "snapshot", "answered", "dead", "reader",
    )

    def __init__(self, slot: int, generation: int, proc, conn):
        self.slot = slot
        self.generation = generation
        self.proc = proc
        self.conn = conn
        self.send_lock = threading.Lock()
        self.inflight: dict[int, ServeTicket] = {}
        # Monotonic time of the last message; None until the first one
        # (such a worker is not judged).
        self.last_seen: float | None = None
        self.snapshot: dict | None = None  # last stats reply
        self.answered = -1  # newest stats poll answered
        self.dead = False
        self.reader: threading.Thread | None = None


class ServePool:
    """Forked multi-worker serving front end over one DCN.

    Parameters
    ----------
    dcn:
        The defense to serve; inherited by every forked worker.
    workers:
        Worker process count (>= 1).
    ledger_path:
        Optional event journal (respawns, crash loops, worker dispatch
        errors); ``None`` (default) writes no file.
    lease_ttl:
        Seconds without a message from a worker before it counts as
        wedged and its in-flight requests shed.
    heartbeat_interval:
        Seconds between a worker's heartbeats on its pipe (default
        ``lease_ttl / 4``); must be finite and > 0.
    max_restarts:
        Respawn budget per worker slot within ``restart_window_s``.
        ``0`` (default) disables supervision: a dead worker stays dead
        and the ring absorbs its shard, exactly the PR 9 behaviour.
    restart_window_s:
        Sliding window of the restart budget; a slot needing more than
        ``max_restarts`` respawns inside it is a crash loop and is
        abandoned with a structured journal event.
    dispatch_hook:
        Test seam: ``hook(worker_id, n_requests)`` runs in the worker
        before each dispatch — the chaos tests stall a worker with it.
    **kwargs:
        Build the one :class:`DCNService` every worker inherits
        (``max_batch``, ``slo_target_s``, ``overload``, ...); a bad one
        raises here.
    """

    _STATS_TIMEOUT = 5.0

    def __init__(
        self,
        dcn,
        workers: int = 2,
        ledger_path: str | Path | None = None,
        lease_ttl: float = 5.0,
        heartbeat_interval: float | None = None,
        max_restarts: int = 0,
        restart_window_s: float = 30.0,
        dispatch_hook=None,
        **kwargs,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be > 0")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if restart_window_s <= 0:
            raise ValueError("restart_window_s must be > 0")
        if heartbeat_interval is None:
            heartbeat_interval = lease_ttl / 4.0
        if not (math.isfinite(heartbeat_interval) and heartbeat_interval > 0):
            raise ValueError("heartbeat_interval must be finite and > 0")
        from ..runner.pool import fork_available

        if not fork_available():  # pragma: no cover - non-POSIX
            raise RuntimeError("ServePool needs the fork start method")
        self.service = DCNService(dcn, **kwargs)
        self.workers = workers
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = heartbeat_interval
        self.max_restarts = max_restarts
        self.restart_window_s = restart_window_s
        self.dispatch_hook = dispatch_hook
        self.ledger_path = Path(ledger_path) if ledger_path is not None else None
        self.front_shed = 0  # sheds decided by the front end (dead workers)
        self.worker_deaths = 0
        self.respawns = 0  # workers brought back by supervision
        self.crash_loops = 0  # slots abandoned after exhausting the budget
        # One condition guards all pool state; stats replies and deaths
        # notify it, which is what a stats poll waits on.
        self._lock = threading.Condition()
        self._running = False
        self._seq = 0
        self._next_id = 0
        self._stats_seq = 0
        self._slots: list[_Worker] = []  # each slot's current generation
        self._records: list[_Worker] = []  # every generation ever forked
        self._restart_times: list[list[float]] = [[] for _ in range(workers)]
        self._crash_looped: set[int] = set()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="serve-pool-monitor", daemon=True
        )
        self._monitor_stop = threading.Event()
        self._event_ledger: Ledger | None = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ServePool":
        with self._lock:
            if self._running:
                raise RuntimeError("pool already started")
            self._running = True
        if self.ledger_path is not None:
            self._event_ledger = Ledger(self.ledger_path, fsync=False)
        for slot in range(self.workers):
            self._slots.append(self._spawn(slot, generation=0))
        self._monitor.start()
        return self

    def _spawn(self, slot: int, generation: int) -> _Worker:
        """Fork one worker generation and start its receive thread.

        Workers are forked one at a time, so a new child inherits exactly
        the parent ends the front end holds — it closes all of them (its
        own included) so a SIGKILLed sibling's pipe still reaches EOF in
        the parent.
        """
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        inherited = [worker.conn for worker in self._slots] + [parent_conn]
        proc = ctx.Process(
            target=_worker_main,
            args=(
                slot, child_conn, inherited, self.service,
                self.heartbeat_interval, self.dispatch_hook,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(slot, generation, proc, parent_conn)
        worker.reader = threading.Thread(
            target=self._receive_loop, args=(worker,),
            name=f"serve-pool-recv-{slot}.g{generation}", daemon=True,
        )
        with self._lock:
            self._records.append(worker)
        worker.reader.start()
        return worker

    def stop(self) -> None:
        """Final fleet snapshot, clean worker shutdown, join everything."""
        with self._lock:
            if not self._running:
                return
        # Snapshot while the workers can still answer, so post-stop
        # counters reflect the full run.
        self.fleet_snapshot()
        with self._lock:
            self._running = False
        self._monitor_stop.set()
        self._monitor.join()  # no respawn can race the shutdown below
        # Bypass _send's dead-worker check: a worker marked dead for
        # going silent may still be alive and must still see the stop.
        for worker in self._slots:
            try:
                with worker.send_lock:
                    worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in self._slots:
            worker.proc.join(timeout=10.0)
            if worker.proc.is_alive():  # pragma: no cover - wedged worker backstop
                worker.proc.terminate()
                worker.proc.join(timeout=5.0)
        for worker in self._records:
            worker.reader.join(timeout=5.0)
        # Anything still unresolved (worker died with the stop in flight)
        # sheds rather than hangs.
        for worker in self._slots:
            self._mark_dead(worker, shutdown=True)
        if self._event_ledger is not None:
            self._event_ledger.close()
            self._event_ledger = None

    def __enter__(self) -> "ServePool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def processes(self) -> list:
        """The worker processes (the chaos tests SIGKILL these)."""
        return [worker.proc for worker in self._slots]

    def live_workers(self) -> list[int]:
        with self._lock:
            return [worker.slot for worker in self._slots if not worker.dead]

    # -- submission ------------------------------------------------------------

    def submit(self, x) -> ServeTicket:
        """Route one request to its shard; returns immediately.

        If every worker is dead the ticket resolves as shed — the pool
        never blocks a caller on a corpse.
        """
        x = self.service.validate(x)
        with self._lock:
            if not self._running:
                raise RuntimeError("pool is not started; use start() or a with block")
            base = self._seq
            self._seq += 1
            for offset in range(self.workers):
                worker = self._slots[(base + offset) % self.workers]
                if not worker.dead:
                    break
            else:
                self.front_shed += 1
                return ServeTicket(ServeResult(status="shed", reason="unavailable"))
            request_id = self._next_id
            self._next_id += 1
            ticket = ServeTicket()
            worker.inflight[request_id] = ticket
        # A send that races the worker dying marks it dead, which
        # resolves the ticket as shed.
        self._send(worker, ("req", request_id, x))
        return ticket

    def classify(self, x, timeout: float | None = 30.0) -> ServeResult:
        """Blocking convenience: ``submit`` + ``wait``."""
        return self.submit(x).wait(timeout)

    # -- telemetry -------------------------------------------------------------

    def fleet_snapshot(self, timeout: float | None = None) -> dict:
        """Merged counters + fleet-wide latency percentiles, one dict.

        Live workers are polled for fresh snapshots; dead workers — and
        every generation a respawn replaced — contribute their last one
        (work since then died with them), so fleet totals never go
        backwards across a respawn.  The
        poll is bounded: workers that fail to answer within ``timeout``
        (default ``_STATS_TIMEOUT``) are listed in
        ``workers.stale_workers`` and their *last-known* snapshot is
        merged instead — a worker dying mid-request can delay a snapshot,
        never hang it.  Front-end sheds — requests lost to dead workers —
        are folded into the merged ``shed`` count, and supervision's
        ``respawns``/``crash_loops`` ride the merged counters.
        """
        timeout = self._STATS_TIMEOUT if timeout is None else timeout
        with self._lock:
            polled = [w for w in self._slots if not w.dead] if self._running else []
            seq = self._stats_seq
            self._stats_seq += 1
        for worker in polled:
            self._send(worker, ("stats", seq))
        with self._lock:
            self._lock.wait_for(
                lambda: all(w.answered >= seq or w.dead for w in polled), timeout
            )
            stale = sorted(w.slot for w in polled if w.answered < seq)
            snapshots = [w.snapshot for w in self._records if w.snapshot is not None]
            reporting = sorted({w.slot for w in self._records if w.snapshot is not None})
            front = {
                "shed": self.front_shed,
                "respawns": self.respawns,
                "crash_loops": self.crash_loops,
            }
            dead = [w.slot for w in self._slots if w.dead]
            generations = [w.generation for w in self._slots]
        counters = ServeCounters.merged([snap["counters"] for snap in snapshots] + [front])
        sketch = LatencySketch()
        for snap in snapshots:
            sketch.merge_state(snap["sketch"])
        return {
            "counters": counters.as_dict(),
            "latency": sketch.summary(),
            "sketch": sketch.state(),
            "workers": {
                "total": self.workers,
                "dead": dead,
                "reporting": reporting,
                "stale_workers": stale,
                "front_shed": front["shed"],
                "respawns": front["respawns"],
                "crash_loops": front["crash_loops"],
                "generations": generations,
            },
        }

    def telemetry_snapshot(self) -> dict:
        """Exporter hook: same shape as ``DCNService.telemetry_snapshot``."""
        return self.fleet_snapshot()

    def counters(self) -> ServeCounters:
        """Merged fleet :class:`ServeCounters` (front-end sheds included)."""
        return ServeCounters(**self.fleet_snapshot()["counters"])

    # -- internals -------------------------------------------------------------

    def _send(self, worker: _Worker, message) -> None:
        if worker.dead:
            return
        try:
            with worker.send_lock:
                worker.conn.send(message)
        except (OSError, ValueError):
            self._mark_dead(worker)

    def _mark_dead(self, worker: _Worker, shutdown: bool = False) -> None:
        """Dead/wedged worker: shed its in-flight requests, stop routing."""
        with self._lock:
            if not worker.dead:
                worker.dead = True
                if not shutdown:
                    self.worker_deaths += 1
            orphans = list(worker.inflight.values())
            worker.inflight.clear()
            self.front_shed += len(orphans)
            self._lock.notify_all()
        for ticket in orphans:
            ticket._resolve(ServeResult(status="shed"))

    def _receive_loop(self, worker: _Worker) -> None:
        """Read one generation's pipe until EOF, then close it.

        This thread is the pipe's only reader and its only closer, so no
        other thread ever closes the pipe under a blocked ``recv()``.
        """
        conn = worker.conn
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            ticket = None
            with self._lock:
                worker.last_seen = time.monotonic()
                if kind == "result":
                    ticket = worker.inflight.pop(message[1], None)
                elif kind == "stats":
                    _, seq, worker.snapshot = message
                    worker.answered = max(worker.answered, seq)
                    self._lock.notify_all()
            if ticket is not None:
                _, _, status, labels, flagged, latency_s = message
                ticket._resolve(
                    ServeResult(
                        status=status, labels=labels, flagged=flagged,
                        latency_s=latency_s,
                    )
                )
            elif kind == "error":
                _, error, text = message
                self._journal(
                    "serve-worker-error", worker=worker.slot,
                    generation=worker.generation, error=error, message=text,
                )
        with worker.send_lock:
            conn.close()
        with self._lock:
            shutting_down = not self._running
        self._mark_dead(worker, shutdown=shutting_down)

    def _journal(self, event: str, **fields) -> None:
        """Append one event to the ``ledger_path`` journal, if there is one."""
        ledger = self._event_ledger
        if ledger is not None:
            ledger.event(event, **fields)

    def _monitor_loop(self) -> None:
        """Liveness watchdog and respawn supervisor.

        Process death is caught fast by pipe EOF; this thread catches the
        uglier case — a worker that is alive but has sent nothing, not
        even a heartbeat, for ``lease_ttl`` seconds (stopped, paged out,
        livelocked).  A worker that has not sent its first message yet is
        not judged.  With ``max_restarts > 0`` it is also the supervisor:
        each tick it respawns dead slots that still have restart budget.
        """
        interval = max(0.05, min(self.lease_ttl / 4.0, 0.5))
        while not self._monitor_stop.wait(interval):
            now = time.monotonic()
            with self._lock:
                live = [worker for worker in self._slots if not worker.dead]
            for worker in live:
                seen = worker.last_seen
                silent = seen is not None and now - seen > self.lease_ttl
                if silent or not worker.proc.is_alive():
                    self._mark_dead(worker)
            if self.max_restarts > 0:
                self._respawn_dead_workers()

    def _respawn_dead_workers(self) -> None:
        """One supervision pass: respawn dead slots within budget."""
        for slot in range(self.workers):
            now = time.monotonic()
            with self._lock:
                corpse = self._slots[slot]
                if not self._running or not corpse.dead or slot in self._crash_looped:
                    continue
                window = [
                    t for t in self._restart_times[slot]
                    if now - t < self.restart_window_s
                ]
                self._restart_times[slot] = window
                if len(window) >= self.max_restarts:
                    # Crash loop: the slot keeps dying faster than the
                    # budget allows.  Give up with a structured record
                    # rather than fork forever.
                    self._crash_looped.add(slot)
                    self.crash_loops += 1
                    self._journal(
                        "serve-worker-crash-loop", worker=slot,
                        generation=corpse.generation,
                        restarts=len(window), window_s=self.restart_window_s,
                    )
                    continue
                window.append(now)
                # Counted before the slot goes live so observers never see
                # a respawned worker with a stale counter.
                self.respawns += 1
            # End the corpse before its replacement forks: a wedged one
            # may still be alive, and its receive thread closes the pipe
            # once the kill brings EOF.
            corpse.proc.kill()
            corpse.proc.join()
            corpse.reader.join(timeout=5.0)
            worker = self._spawn(slot, corpse.generation + 1)
            with self._lock:
                self._slots[slot] = worker
            self._journal("serve-worker-respawn", worker=slot, generation=worker.generation)


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(
    worker_id: int,
    conn,
    inherited_conns,
    service: DCNService,
    heartbeat_interval: float,
    dispatch_hook,
) -> None:
    """One forked serving worker: recv, coalesce, serve, reply, heartbeat."""
    for other in inherited_conns:
        other.close()
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            conn.send(message)

    stop_beating = threading.Event()

    def beat():
        try:
            send(("beat",))
            while not stop_beating.wait(heartbeat_interval):
                send(("beat",))
        except OSError:  # front end went away
            pass

    heartbeat = threading.Thread(target=beat, daemon=True)
    heartbeat.start()
    try:
        while True:
            try:
                messages = [conn.recv()]
            except (EOFError, OSError, KeyboardInterrupt):
                break
            try:
                while conn.poll():
                    messages.append(conn.recv())
            except (EOFError, OSError):
                pass
            stopping = False
            requests: list[tuple[int, object]] = []
            stats_seqs: list[int] = []
            for message in messages:
                kind = message[0]
                if kind == "req":
                    requests.append((message[1], message[2]))
                elif kind == "stats":
                    stats_seqs.append(message[1])
                elif kind == "stop":
                    stopping = True
            try:
                if requests:
                    if dispatch_hook is not None:
                        dispatch_hook(worker_id, len(requests))
                    try:
                        results = service.serve_batch([x for _, x in requests])
                    except Exception as exc:  # tickets must always resolve
                        send(("error", type(exc).__name__, str(exc)))
                        results = [ServeResult(status="shed")] * len(requests)
                    for (request_id, _), result in zip(requests, results):
                        send((
                            "result", request_id, result.status,
                            result.labels, result.flagged, result.latency_s,
                        ))
                for seq in stats_seqs:
                    send(("stats", seq, service.telemetry_snapshot()))
            except (OSError, BrokenPipeError):  # front end went away
                break
            if stopping:
                break
    finally:
        stop_beating.set()
        heartbeat.join(timeout=2.0)
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
