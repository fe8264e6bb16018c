"""The online DCN service: micro-batching, detector gating, fused correction.

``DCNService`` turns an offline :class:`~repro.core.dcn.DCN` into a
defense-as-a-service hot path built around three ideas:

Request coalescing
    Concurrent small ``classify`` requests are concatenated into one
    engine-sized dispatch (up to ``max_batch`` rows), so dispatch overhead
    — plan lookup, detector forward, Python glue — is paid once per batch
    instead of once per request.

Shape-bucketed plan reuse
    Dispatch batches are padded onto the power-of-two bucket ladder
    (:mod:`repro.serve.bucketing`), bounding the distinct batch shapes the
    engines' compiled-plan LRUs ever see, and the service raises the
    engines' plan budget to at least :data:`PLAN_ENTRIES` so the whole
    ladder stays resident.  The corrector's engine calls run ladder shapes too
    (:func:`~repro.defenses.region.ladder_spans`), so after warm-up every
    dispatch — model forward, detector forward and the corrector's sample
    chunks — is a plan hit.

Cross-request corrector fusion
    The detector gate routes benign rows straight out (one forward plus
    the ~400-parameter detector — the paper's Sec. 5 asymmetry).  All
    flagged rows across the coalesced batch are stacked into one
    early-exit region vote via ``Corrector.correct_fused`` — at most
    ``n_flagged × m`` sample forwards, fewer as rows' majorities are
    decided — instead of one vote per originating request.  Because vote
    noise is a per-input stream (:func:`~repro.defenses.region.input_rng`)
    and a row's exit point depends only on its own votes, served labels
    are bitwise-identical to offline ``DCN.classify`` on the same inputs.

Around the hot path sits admission control, in one of two regimes:

* **depth-governed** (default): the queue is bounded at ``max_queue``
  requests.  Past it, the ``overload`` policy either **sheds** (rejects
  the request outright) or **degrades** (admits it detector-only: the
  model's label is served even for flagged rows, skipping the corrector
  fan-out).  Degraded admission is itself bounded at ``2 × max_queue``,
  beyond which requests shed regardless.
* **SLO-governed** (``slo_target_s`` set): admission estimates the
  request's queued wait from the learned per-row dispatch costs
  (:mod:`repro.serve.slo` — benign and flagged rows priced separately,
  since the corrector makes flagged rows up to m× pricier) and sheds/degrades
  when the estimate exceeds the target, with the same ``2 × max_queue``
  depth bound kept as a hard backstop.

Either way queue memory stays bounded under any load.  Both drive modes
(see :class:`DCNService`) run one path: the same admission and enqueue,
the same batch former and the same failed-dispatch shedding.  Every stage
increments :class:`~repro.serve.telemetry.ServeCounters`, and every
request's latency lands in one mergeable
:class:`~repro.serve.telemetry.LatencySketch` (``latencies``) — the
same kind of record a :class:`~repro.serve.ServePool` merges into fleet
percentiles.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..core.dcn import DCN
from .bucketing import bucket_for, bucket_sizes, pad_to_bucket
from .slo import DispatchCostModel, SloAdmission
from .telemetry import LatencySketch, ServeCounters

__all__ = [
    "DCNService",
    "ServeResult",
    "ServeTicket",
    "OVERLOAD_POLICIES",
]

OVERLOAD_POLICIES = ("shed", "degrade")

#: Floor for the model/detector engines' compiled-plan LRU capacity.
#: Serving presents a known working set of shapes — the bucket ladder,
#: which the corrector's engine calls also run on — and a budget that
#: covers it makes every post-warm-up dispatch a plan hit.  A service
#: never shrinks an engine's existing budget.
PLAN_ENTRIES = 32

#: Shed (status only) results carry no labels.
_SHED_STATUS = "shed"


@dataclass(frozen=True)
class ServeResult:
    """Outcome of one classify request.

    ``status`` is ``"ok"`` (full DCN), ``"degraded"`` (admitted under
    overload and served detector-only — model labels, no corrector), or
    ``"shed"`` (rejected by admission control; ``labels`` is ``None``).
    ``reason`` names what decided a shed when the decider knows it —
    ``"deadline"``, ``"breaker"``, ``"overload"``, ``"unavailable"``,
    ``"error"`` (its dispatch raised) —
    so remote callers can distinguish budget exhaustion from overload.
    """

    status: str
    labels: np.ndarray | None = None
    flagged: np.ndarray | None = None
    latency_s: float = float("nan")
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.status != _SHED_STATUS


class ServeTicket:
    """Caller-facing handle for an in-flight (or already-resolved) request."""

    def __init__(self, result: ServeResult | None = None):
        self._event = threading.Event()
        self._result = result
        if result is not None:
            self._event.set()

    def _resolve(self, result: ServeResult) -> None:
        self._result = result
        self._event.set()

    def wait(self, timeout: float | None = None) -> ServeResult:
        if not self._event.wait(timeout):
            raise TimeoutError("request not served within timeout")
        assert self._result is not None
        return self._result


class _Request:
    """Internal queue entry: one admitted request plus its ticket."""

    __slots__ = ("x", "enqueued_at", "degraded", "ticket")

    def __init__(self, x: np.ndarray, enqueued_at: float, degraded: bool):
        self.x = x
        self.enqueued_at = enqueued_at
        self.degraded = degraded
        self.ticket = ServeTicket()


class DCNService:
    """Online serving front end over one :class:`~repro.core.dcn.DCN`.

    Two drive modes run one request path — the same admission and
    enqueue, the same batch former, the same shedding of a failed
    dispatch:

    * **threaded** — ``start()`` spawns a dispatcher thread; callers
      ``submit()`` (or ``classify()``) concurrently and the dispatcher
      coalesces whatever is queued, waiting at most ``max_delay`` seconds
      past the oldest request before dispatching a partial batch.
    * **synchronous** — ``serve_batch(arrays)`` treats its arguments as
      simultaneous arrivals and serves them deterministically in-process;
      the benchmark and the equivalence tests use this mode, and pool
      workers run its two steps (``_admit_window``, ``_drain``) so each
      request keeps its own result.  It refuses a started service (the
      dispatcher would race it for the one queue) and validates the whole
      window before it admits any of it.

    Parameters
    ----------
    max_batch:
        Row budget of one coalesced dispatch (also the largest bucket and
        the largest admissible single request).
    max_queue:
        Admission bound, in requests.  Beyond it the ``overload`` policy
        applies; beyond ``2 × max_queue`` requests always shed.
    max_delay:
        Threaded mode only: how long the dispatcher waits for more
        requests before dispatching a partial batch.
    overload:
        ``"shed"`` (reject) or ``"degrade"`` (admit detector-only).
    slo_target_s:
        Switch admission from depth-governed to SLO-governed: shed (or
        degrade) when the request's *estimated queued wait* — rows ahead
        of it times the learned per-row dispatch cost, benign and flagged
        rows priced separately — exceeds this many seconds.  The
        ``2 × max_queue`` depth bound stays as a hard backstop.  ``None``
        (default) keeps the original depth policy.
    """

    def __init__(
        self,
        dcn: DCN,
        max_batch: int = 64,
        max_queue: int = 128,
        max_delay: float = 0.002,
        overload: str = "shed",
        slo_target_s: float | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        if overload not in OVERLOAD_POLICIES:
            raise ValueError(f"overload must be one of {OVERLOAD_POLICIES}")
        self.dcn = dcn
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.max_delay = max_delay
        self.overload = overload
        self.buckets = bucket_sizes(max_batch)
        for engine in (dcn.network.engine, dcn.detector.network.engine):
            engine.plan_entries = max(engine.plan_entries, PLAN_ENTRIES)
        self.counters = ServeCounters()
        self.latencies = LatencySketch()
        # A flagged row pays its share of the batch forward plus at most
        # the corrector's m extra forwards (fewer once its vote exits
        # early) — the prior the cost model splits mixed dispatches with
        # until its EWMA has observed both costs directly.
        self.cost_model = DispatchCostModel(
            flagged_multiplier=1.0 + dcn.corrector.samples
        )
        self.slo_target_s = slo_target_s
        self.slo = (
            SloAdmission(slo_target_s, self.cost_model, max_queue, overload)
            if slo_target_s is not None
            else None
        )
        self.idle_wakeups = 0  # dispatcher wakeups with nothing to do
        self._queue: deque[_Request] = deque()
        self._queued_rows = 0
        self._cond = threading.Condition()
        self._running = False
        self._thread: threading.Thread | None = None

    # -- lifecycle (threaded mode) --------------------------------------------

    def start(self) -> "DCNService":
        with self._cond:
            if self._running:
                raise RuntimeError("service already started")
            self._running = True
        self._thread = threading.Thread(target=self._loop, name="dcn-serve", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting requests, drain the queue, join the dispatcher."""
        with self._cond:
            self._running = False
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "DCNService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission ------------------------------------------------------------

    def submit(self, x: np.ndarray) -> ServeTicket:
        """Enqueue one request (threaded mode); returns immediately.

        A shed request comes back as an already-resolved ticket with
        ``status == "shed"`` — admission control never blocks the caller.
        """
        x = self.validate(x)
        with self._cond:
            if not self._running:
                raise RuntimeError("service is not started; use serve_batch() or start()")
            return self._enqueue(x)

    def classify(self, x: np.ndarray, timeout: float | None = 30.0) -> ServeResult:
        """Blocking convenience: ``submit`` + ``wait``."""
        return self.submit(x).wait(timeout)

    def serve_batch(self, arrays: list[np.ndarray]) -> list[ServeResult]:
        """Serve a window of simultaneous arrivals synchronously.

        Every request is validated first, so a malformed one raises
        ``ValueError`` with nothing admitted.  The window is then admitted
        in order and drained through the threaded path's batch former,
        dispatching inline.  A dispatch that raises sheds its batch and
        the rest of the window (``reason="error"``) and re-raises.  Raises
        ``RuntimeError`` on a started service, whose dispatcher owns the
        queue.
        """
        tickets = self._admit_window(arrays)
        self._drain()
        return [ticket.wait() for ticket in tickets]

    def validate(self, x: np.ndarray) -> np.ndarray:
        """Request shape contract, shared by the service and the pool front
        end: a non-empty batch of at most ``max_batch`` rows, each shaped
        like the network's input.  Raises ``ValueError`` otherwise."""
        x = np.asarray(x)
        if x.ndim < 2 or len(x) == 0:
            raise ValueError("a request is a non-empty batch of inputs, shape (n, ...)")
        if len(x) > self.max_batch:
            raise ValueError(
                f"request of {len(x)} rows exceeds max_batch={self.max_batch}; split it"
            )
        if x.shape[1:] != self.dcn.network.input_shape:
            raise ValueError(
                f"request rows have shape {x.shape[1:]}; the network takes "
                f"{self.dcn.network.input_shape}"
            )
        return x

    # -- telemetry -------------------------------------------------------------

    def telemetry_snapshot(self) -> dict:
        """One JSON-able telemetry frame: counters, latency summary, the
        mergeable sketch state and the learned dispatch costs.  This is
        what :class:`~repro.serve.telemetry.TelemetryExporter` journals
        and what pool workers ship to the front end."""
        with self._cond:
            return {
                "counters": self.counters.as_dict(),
                "latency": self.latencies.summary(),
                "sketch": self.latencies.state(),
                "cost": self.cost_model.state(),
            }

    def estimated_wait_s(self, rows: int = 0) -> float | None:
        """Estimated queued wait a request of ``rows`` rows would see now.

        The transport server uses this for deadline-aware admission: a
        request whose remaining budget is below the estimate sheds before
        any dispatch work happens.  ``None`` while the cost model is cold
        (no dispatch observed yet) — admit on no evidence, like SLO
        admission does.
        """
        with self._cond:
            return self.cost_model.estimate_wait(self._queued_rows + max(0, rows))

    # -- internals -------------------------------------------------------------

    def _enqueue(self, x: np.ndarray) -> ServeTicket:
        """Admission control, then enqueue (caller holds the lock).

        Depth-governed by default; SLO-governed when ``slo_target_s`` is
        set — the decision then keys on the estimated queued wait of the
        rows already queued, not on the raw depth.  A shed request gets
        an already-resolved ticket and never touches the queue.
        """
        depth = len(self._queue)
        degraded = False
        if self.slo is not None:
            decision = self.slo.decide(depth, self._queued_rows)
            if decision.action == "shed":
                self.counters.shed += 1
                if decision.reason == "slo":
                    self.counters.slo_shed += 1
                return ServeTicket(ServeResult(status=_SHED_STATUS))
            if decision.action == "degrade":
                degraded = True
                self.counters.degraded += 1
                self.counters.slo_degraded += 1
        elif depth >= self.max_queue:
            if self.overload == "shed" or depth >= 2 * self.max_queue:
                self.counters.shed += 1
                return ServeTicket(ServeResult(status=_SHED_STATUS))
            degraded = True
            self.counters.degraded += 1
        self.counters.requests += 1
        self.counters.examples += len(x)
        request = _Request(x, time.perf_counter(), degraded)
        self._queue.append(request)
        self._queued_rows += len(x)
        self.counters.queue_depth = len(self._queue)
        self.counters.queued_rows = self._queued_rows
        self.counters.max_queue_depth = max(self.counters.max_queue_depth, len(self._queue))
        self._cond.notify_all()  # wake the dispatcher, if one is running
        return request.ticket

    def _admit_window(self, arrays: list[np.ndarray]) -> list[ServeTicket]:
        """``serve_batch``'s first step: validate the whole window, then
        admit it in order; one ticket per request."""
        arrays = [self.validate(x) for x in arrays]
        with self._cond:
            if self._running:
                raise RuntimeError("service is started; its dispatcher serves submit()")
            return [self._enqueue(x) for x in arrays]

    def _drain(self) -> None:
        """``serve_batch``'s second step: dispatch the queue inline through
        the batch former.  A dispatch that raises sheds its batch and the
        rest of the queue, then re-raises; tickets of earlier batches keep
        their results."""
        while True:
            with self._cond:
                batch = self._take()
            if not batch:
                return
            try:
                self._dispatch(batch)
            except Exception:
                while batch:
                    self._shed(batch)
                    with self._cond:
                        batch = self._take()
                raise

    def _take(self) -> list[_Request]:
        """Pop the next dispatch — queued requests in order, up to
        ``max_batch`` rows — and update the gauges (caller holds the lock)."""
        batch: list[_Request] = []
        rows = 0
        while self._queue and rows + len(self._queue[0].x) <= self.max_batch:
            request = self._queue.popleft()
            batch.append(request)
            rows += len(request.x)
        self._queued_rows -= rows
        self.counters.queue_depth = len(self._queue)
        self.counters.queued_rows = self._queued_rows
        return batch

    def _shed(self, batch: list[_Request]) -> None:
        """Resolve a failed dispatch's unresolved tickets as
        ``shed``/``reason="error"``, counted in ``error_shed``."""
        unresolved = [r for r in batch if not r.ticket._event.is_set()]
        with self._cond:
            self.counters.error_shed += len(unresolved)
        for request in unresolved:
            request.ticket._resolve(ServeResult(status=_SHED_STATUS, reason="error"))

    def _loop(self) -> None:
        """Dispatcher thread: coalesce whatever is queued, dispatch, repeat."""
        while True:
            with self._cond:
                # Idle: block until submit()/stop() notifies — no timeout,
                # so an idle service burns zero CPU between requests.  A
                # wakeup that finds neither work nor shutdown is spurious
                # and counted (the regression test pins it at zero).
                while not self._queue and self._running:
                    self._cond.wait()
                    if not self._queue and self._running:
                        self.idle_wakeups += 1
                if not self._queue:
                    return  # stopped and drained
                # Hold a partial batch open until the oldest request has
                # aged max_delay, or the row budget fills — whichever first.
                deadline = self._queue[0].enqueued_at + self.max_delay
                while (
                    self._running
                    and self._queued_rows < self.max_batch
                    and (remaining := deadline - time.perf_counter()) > 0
                ):
                    self._cond.wait(remaining)
                batch = self._take()
            try:
                self._dispatch(batch)
            except Exception:
                # A failed dispatch sheds its own batch, never the
                # dispatcher: later requests must still be served.
                self._shed(batch)

    def _dispatch(self, requests: list[_Request]) -> None:
        """One coalesced dispatch: pad, forward, gate, fuse, scatter."""
        start = time.perf_counter()
        engine = self.dcn.network.engine
        detector = self.dcn.detector
        engines = (engine, detector.network.engine)
        plans_before = [(e.counters.plan_hits, e.counters.plan_misses) for e in engines]

        if len(requests) == 1:
            rows = requests[0].x
        else:
            rows = np.concatenate([r.x for r in requests])
        n = len(rows)
        bucket = bucket_for(n, self.buckets)
        padded = pad_to_bucket(rows, bucket)

        # Model + detector both run at the bucket shape (padding rows are
        # sliced away afterwards), so their plan LRUs see only bucket keys.
        logits = engine.logits(padded, memo=False)
        flagged = detector.is_adversarial(logits)[:n]
        labels = logits[:n].argmax(axis=-1)

        degraded_rows = np.zeros(n, dtype=bool)
        offset = 0
        for request in requests:
            if request.degraded:
                degraded_rows[offset : offset + len(request.x)] = True
            offset += len(request.x)
        correct_mask = flagged & ~degraded_rows
        corrected = int(correct_mask.sum())
        if corrected:
            labels[correct_mask] = self.dcn.corrector.correct_fused(rows[correct_mask])

        end = time.perf_counter()
        offset = 0
        for request in requests:
            size = len(request.x)
            request.ticket._resolve(
                ServeResult(
                    status="degraded" if request.degraded else "ok",
                    labels=labels[offset : offset + size].copy(),
                    flagged=flagged[offset : offset + size].copy(),
                    latency_s=end - request.enqueued_at,
                )
            )
            offset += size

        with self._cond:
            self.counters.batches += 1
            if len(requests) > 1:
                self.counters.coalesced_requests += len(requests)
            self.counters.pad_rows += bucket - n
            self.counters.flagged += int(flagged.sum())
            self.counters.corrected += corrected
            self.counters.seconds += end - start
            # Feed the SLO cost model: rows that paid the corrector vote
            # are "flagged-priced", everything else (including flagged
            # rows served degraded) is benign-priced.
            self.cost_model.observe(end - start, n - corrected, corrected)
            for (hits0, misses0), e in zip(plans_before, engines):
                self.counters.plan_hits += e.counters.plan_hits - hits0
                self.counters.plan_misses += e.counters.plan_misses - misses0
            for request in requests:
                self.latencies.record(end - request.enqueued_at)
