"""Multi-worker serving: N forked ``DCNService`` workers behind one front end.

:class:`ServePool` scales the single-process service horizontally:

Sharded front end
    ``submit()`` routes each request to a worker by a **deterministic
    shard-by-request** rule — request sequence number modulo the worker
    count, falling to the next live worker in the ring when the target is
    dead.  Every worker runs its own :class:`~repro.serve.DCNService`
    over the same (fork-inherited) DCN, so served labels stay
    bitwise-identical to offline ``DCN.classify`` no matter which worker
    a request lands on: the per-input corrector noise streams make the
    label a pure function of the row.

Pipe liveness
    Each worker's pipe is its only channel to the front end: requests and
    stats polls go down it; results, stats snapshots, dispatch errors and
    heartbeats come back up it.  A worker thread sends ``("beat",)`` every
    ``heartbeat_interval`` seconds — the first once the worker's service
    is built — under the same send lock as the worker's replies.  The
    front end stamps ``time.monotonic()`` on every message it receives,
    and its monitor marks a worker dead when its process exits *or*
    nothing has arrived from it for ``lease_ttl`` seconds (alive but
    wedged).  A dead worker's in-flight requests **resolve as shed** —
    callers blocked in ``ticket.wait()`` unblock immediately instead of
    hanging, and later requests route around the corpse.  SIGKILL is
    additionally caught fast through pipe EOF.

Bounded respawn supervision
    With ``max_restarts > 0`` the monitor **respawns** a dead worker: a
    fresh fork rejoins the shard ring over a fresh pipe as the slot's next
    *generation*, so nothing the corpse sent can vouch for its
    replacement, and because labels are a pure function of the row, a
    respawned worker serves bitwise-identically to the one it replaced.
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
    windows.  Snapshots are kept per worker *generation*, so a respawned
    worker starting from zero never pulls fleet totals backwards.  The
    poll is **bounded**: a worker that dies mid-request can
    delay the snapshot by at most the stats timeout, after which the
    partial snapshot lists the non-responders in ``stale_workers``
    (their last-known counters still included).  The pool exposes
    ``telemetry_snapshot()`` so a
    :class:`~repro.serve.telemetry.TelemetryExporter` can journal the
    fleet time series exactly like a single service's.

``fork`` is the only supported start method (the DCN and its engines are
inherited, never pickled); :func:`repro.runner.pool.fork_available`
gates it.
"""

from __future__ import annotations

import math
import multiprocessing
import threading
import time
from pathlib import Path

from ..runner.ledger import Ledger
from .service import DCNService, ServeResult, ServeTicket, validate_request
from .telemetry import LatencySketch, ServeCounters

__all__ = ["ServePool"]


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
    service_kwargs:
        Forwarded to each worker's :class:`DCNService` (``max_batch``,
        ``slo_target_s``, ``overload``, ...).
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
        **service_kwargs,
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
        self.dcn = dcn
        self.workers = workers
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = heartbeat_interval
        self.max_restarts = max_restarts
        self.restart_window_s = restart_window_s
        self.dispatch_hook = dispatch_hook
        self.service_kwargs = dict(service_kwargs)
        self.max_batch = int(self.service_kwargs.get("max_batch", 64))
        self.ledger_path = Path(ledger_path) if ledger_path is not None else None
        self.front_shed = 0  # sheds decided by the front end (dead workers)
        self.worker_deaths = 0
        self.respawns = 0  # workers brought back by supervision
        self.crash_loops = 0  # slots abandoned after exhausting the budget
        self._lock = threading.Lock()
        self._running = False
        self._seq = 0
        self._next_id = 0
        self._stats_seq = 0
        self._procs: list[multiprocessing.process.BaseProcess | None] = []
        self._conns: list = []
        self._send_locks: list[threading.Lock] = []
        self._generations = [0] * workers
        # Monotonic time of each slot's last message; None until the
        # current generation's first one (such a worker is not judged).
        self._last_seen: list[float | None] = [None] * workers
        self._restart_times: list[list[float]] = [[] for _ in range(workers)]
        self._crash_looped: set[int] = set()
        self._dead: set[int] = set()
        self._inflight: list[dict[int, ServeTicket]] = []
        self._stats_waits: dict[int, dict] = {}
        # Keyed by (worker, generation): a respawned worker's counters
        # restart at zero, so its predecessor's last snapshot must stay in
        # the sum or fleet totals would go backwards.
        self._last_snapshots: dict[tuple[int, int], dict] = {}
        self._threads: list[threading.Thread] = []
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
        self._procs = [None] * self.workers
        self._conns = [None] * self.workers
        self._send_locks = [threading.Lock() for _ in range(self.workers)]
        self._inflight = [{} for _ in range(self.workers)]
        for worker_id in range(self.workers):
            self._spawn_worker(worker_id, generation=0)
        monitor = threading.Thread(
            target=self._monitor_loop, name="serve-pool-monitor", daemon=True
        )
        monitor.start()
        self._threads.append(monitor)
        return self

    def _spawn_worker(self, worker_id: int, generation: int) -> None:
        """Fork one worker (initial start and supervision respawns alike).

        Workers are forked sequentially, so a new child inherits exactly
        the parent ends currently held by the front end — it closes all
        of them (its own included) so a SIGKILLed sibling's pipe still
        reaches EOF in the parent.
        """
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        inherited = [conn for conn in self._conns if conn is not None] + [parent_conn]
        proc = ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                child_conn,
                inherited,
                self.dcn,
                self.service_kwargs,
                self.heartbeat_interval,
                self.dispatch_hook,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        with self._lock:
            self._procs[worker_id] = proc
            self._conns[worker_id] = parent_conn
            self._send_locks[worker_id] = threading.Lock()
            self._inflight[worker_id] = {}
            self._generations[worker_id] = generation
            self._last_seen[worker_id] = None
            self._dead.discard(worker_id)
        thread = threading.Thread(
            target=self._receive_loop, args=(worker_id, generation, parent_conn),
            name=f"serve-pool-recv-{worker_id}.g{generation}", daemon=True,
        )
        thread.start()
        with self._lock:
            # One receive thread per respawn: drop the finished ones.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)

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
        # Bypass _send's dead-worker check: a worker marked dead for
        # going silent may still be alive and must still see the stop.
        for worker_id in range(self.workers):
            conn = self._conns[worker_id]
            if conn is None:
                continue
            try:
                with self._send_locks[worker_id]:
                    conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - wedged worker backstop
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)
        # Anything still unresolved (worker died with the stop in flight)
        # sheds rather than hangs.
        for worker_id in range(self.workers):
            self._mark_dead(worker_id, shutdown=True)
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
        return list(self._procs)

    def live_workers(self) -> list[int]:
        with self._lock:
            return [w for w in range(self.workers) if w not in self._dead]

    # -- submission ------------------------------------------------------------

    def submit(self, x) -> ServeTicket:
        """Route one request to its shard; returns immediately.

        If every worker is dead the ticket resolves as shed — the pool
        never blocks a caller on a corpse.
        """
        x = validate_request(x, self.max_batch)
        with self._lock:
            if not self._running:
                raise RuntimeError("pool is not started; use start() or a with block")
            base = self._seq
            self._seq += 1
            worker_id = None
            for offset in range(self.workers):
                candidate = (base + offset) % self.workers
                if candidate not in self._dead:
                    worker_id = candidate
                    break
            if worker_id is None:
                self.front_shed += 1
                return ServeTicket(ServeResult(status="shed", reason="unavailable"))
            request_id = self._next_id
            self._next_id += 1
            ticket = ServeTicket()
            self._inflight[worker_id][request_id] = ticket
        if not self._send(worker_id, ("req", request_id, x)):
            # Send raced the worker dying; _mark_dead resolved the ticket.
            pass
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
        stale: list[int] = []
        with self._lock:
            running = self._running
            live = [w for w in range(self.workers) if w not in self._dead]
        if running and live:
            with self._lock:
                seq = self._stats_seq
                self._stats_seq += 1
                slot = {"event": threading.Event(), "got": {}, "want": set(live)}
                self._stats_waits[seq] = slot
            for worker_id in live:
                if not self._send(worker_id, ("stats", seq)):
                    with self._lock:
                        slot["want"].discard(worker_id)
                        if slot["want"] <= set(slot["got"]):
                            slot["event"].set()
            slot["event"].wait(timeout)
            with self._lock:
                self._stats_waits.pop(seq, None)
                stale = sorted(w for w in live if w not in slot["got"])
        with self._lock:
            snapshots = list(self._last_snapshots.values())
            reporting = sorted({worker for worker, _ in self._last_snapshots})
            front = {
                "shed": self.front_shed,
                "respawns": self.respawns,
                "crash_loops": self.crash_loops,
            }
            dead = sorted(self._dead)
            generations = list(self._generations)
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

    def _send(self, worker_id: int, message) -> bool:
        with self._lock:
            if worker_id in self._dead:
                return False
            conn = self._conns[worker_id]
            send_lock = self._send_locks[worker_id]
            generation = self._generations[worker_id]
        if conn is None:
            return False
        try:
            with send_lock:
                conn.send(message)
            return True
        except (OSError, ValueError, BrokenPipeError):
            self._mark_dead(worker_id, generation=generation)
            return False

    def _mark_dead(
        self, worker_id: int, generation: int | None = None, shutdown: bool = False
    ) -> None:
        """Dead/wedged worker: shed its in-flight requests, stop routing.

        ``generation`` guards against a previous incarnation's receive
        thread (or a stale monitor pass) declaring its *replacement* dead:
        a death report for generation ``g`` is ignored once the slot has
        respawned past ``g``.
        """
        with self._lock:
            if generation is not None and generation != self._generations[worker_id]:
                return
            already = worker_id in self._dead
            if not already:
                self._dead.add(worker_id)
                if not shutdown:
                    self.worker_deaths += 1
            orphans = list(self._inflight[worker_id].values())
            self._inflight[worker_id] = {}
            self.front_shed += len(orphans)
            for slot in self._stats_waits.values():
                slot["want"].discard(worker_id)
                if slot["want"] <= set(slot["got"]):
                    slot["event"].set()
        for ticket in orphans:
            ticket._resolve(ServeResult(status="shed"))

    def _receive_loop(self, worker_id: int, generation: int, conn) -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            now = time.monotonic()
            kind = message[0]
            ticket = None
            with self._lock:
                if self._generations[worker_id] == generation:
                    self._last_seen[worker_id] = now
                if kind == "result":
                    ticket = self._inflight[worker_id].pop(message[1], None)
                elif kind == "stats":
                    _, seq, snapshot = message
                    self._last_snapshots[(worker_id, generation)] = snapshot
                    slot = self._stats_waits.get(seq)
                    if slot is not None:
                        slot["got"][worker_id] = snapshot
                        if slot["want"] <= set(slot["got"]):
                            slot["event"].set()
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
                    "serve-worker-error", worker=worker_id, generation=generation,
                    error=error, message=text,
                )
        with self._lock:
            shutting_down = not self._running
        self._mark_dead(worker_id, generation=generation, shutdown=shutting_down)

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
                live = [
                    (w, self._procs[w], self._generations[w], self._last_seen[w])
                    for w in range(self.workers) if w not in self._dead
                ]
            for worker_id, proc, generation, seen in live:
                silent = seen is not None and now - seen > self.lease_ttl
                if silent or proc is None or not proc.is_alive():
                    self._mark_dead(worker_id, generation=generation)
            if self.max_restarts > 0:
                self._respawn_dead_workers()

    def _respawn_dead_workers(self) -> None:
        """One supervision pass: respawn dead slots within budget."""
        with self._lock:
            if not self._running:
                return
            candidates = sorted(self._dead - self._crash_looped)
        for worker_id in candidates:
            now = time.monotonic()
            with self._lock:
                if not self._running or worker_id not in self._dead:
                    continue
                window = [
                    t for t in self._restart_times[worker_id]
                    if now - t < self.restart_window_s
                ]
                self._restart_times[worker_id] = window
                if len(window) >= self.max_restarts:
                    # Crash loop: the slot keeps dying faster than the
                    # budget allows.  Give up with a structured record
                    # rather than fork forever.
                    self._crash_looped.add(worker_id)
                    self.crash_loops += 1
                    self._journal(
                        "serve-worker-crash-loop", worker=worker_id,
                        generation=self._generations[worker_id],
                        restarts=len(window), window_s=self.restart_window_s,
                    )
                    continue
                self._restart_times[worker_id].append(now)
                # Counted before the slot goes live so observers never see
                # a respawned worker with a stale counter.
                self.respawns += 1
                generation = self._generations[worker_id] + 1
                old_conn = self._conns[worker_id]
                self._conns[worker_id] = None
            if old_conn is not None:
                try:
                    old_conn.close()
                except OSError:  # pragma: no cover
                    pass
            self._spawn_worker(worker_id, generation=generation)
            self._journal("serve-worker-respawn", worker=worker_id, generation=generation)


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(
    worker_id: int,
    conn,
    inherited_conns,
    dcn,
    service_kwargs,
    heartbeat_interval: float,
    dispatch_hook,
) -> None:
    """One forked serving worker: recv, coalesce, serve, reply, heartbeat."""
    for other in inherited_conns:
        other.close()
    service = DCNService(dcn, **service_kwargs)
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
