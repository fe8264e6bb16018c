"""Deterministic synthetic load for the serving layer.

The paper's Table 6 / Fig. 5 measure defense runtime as a function of the
*adversarial percentage* of a fixed offline batch.  The load generator
generalises that axis into sustained traffic: a seeded stream of small
classify requests whose rows are drawn benign or adversarial with a
configurable probability, so the same runtime-vs-fraction story can be
told in throughput and latency-percentile terms against the live service.

Three drivers replay a stream, one per request surface:
:func:`run_coalesced` through ``serve_batch`` (synchronous windows),
:func:`run_windowed` through ``submit``/ticket (a started
:class:`~repro.serve.service.DCNService` or a
:class:`~repro.serve.workers.ServePool`) and :func:`run_remote` through
client ``classify`` calls; :func:`run_offline` is the per-request
baseline.  Every driver records served latencies into a
:class:`~repro.serve.telemetry.LatencySketch`, the same estimator the
service's telemetry reports, so there is one percentile definition.

Everything is a pure function of ``(pools, StreamSpec)`` — same seed,
same stream, byte for byte — which is what lets the benchmark assert
bitwise equivalence between served and offline labels.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.dcn import DCN
from .service import DCNService, ServeResult
from .telemetry import LatencySketch

__all__ = [
    "StreamSpec",
    "GeneratedRequest",
    "RunStats",
    "build_stream",
    "run_offline",
    "run_coalesced",
    "run_windowed",
    "run_remote",
]


@dataclass(frozen=True)
class StreamSpec:
    """Shape of one synthetic request stream."""

    requests: int = 64
    adv_fraction: float = 0.0  # probability a row is adversarial (table6's axis)
    min_size: int = 1  # smallest request, in rows
    max_size: int = 4  # largest request, in rows
    seed: int = 0

    def __post_init__(self):
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if not 0.0 <= self.adv_fraction <= 1.0:
            raise ValueError("adv_fraction must be in [0, 1]")
        if not 1 <= self.min_size <= self.max_size:
            raise ValueError("need 1 <= min_size <= max_size")


@dataclass(frozen=True)
class GeneratedRequest:
    """One request: its rows plus which of them were drawn adversarial."""

    x: np.ndarray
    adv_rows: np.ndarray  # boolean mask over the request's rows


def build_stream(
    benign_x: np.ndarray, adv_x: np.ndarray | None, spec: StreamSpec
) -> list[GeneratedRequest]:
    """Generate the deterministic request stream described by ``spec``.

    Benign rows are drawn *without* replacement while the pool lasts
    (distinct callers send distinct inputs; repeated rows would also let
    the offline baseline's engine memo short-circuit whole requests,
    which is a caching story rather than a dispatch story), then the pool
    reshuffles and wraps.  Adversarial rows — drawn per row with
    probability ``adv_fraction`` — come from ``adv_x`` with replacement:
    attack corpora are small and replayed payloads are the realistic
    case.  ``adv_x`` may be ``None`` only when ``adv_fraction`` is 0.
    """
    if len(benign_x) == 0:
        raise ValueError("benign pool is empty")
    if spec.adv_fraction > 0 and (adv_x is None or len(adv_x) == 0):
        raise ValueError("adv_fraction > 0 needs a non-empty adversarial pool")
    rng = np.random.default_rng(spec.seed)
    benign_order: list[int] = []
    stream = []
    for _ in range(spec.requests):
        size = int(rng.integers(spec.min_size, spec.max_size + 1))
        adv_rows = rng.random(size) < spec.adv_fraction
        x = np.empty((size,) + benign_x.shape[1:], dtype=benign_x.dtype)
        for j in range(size):
            if adv_rows[j]:
                x[j] = adv_x[int(rng.integers(0, len(adv_x)))]
            else:
                if not benign_order:
                    benign_order = list(rng.permutation(len(benign_x)))
                x[j] = benign_x[benign_order.pop()]
        stream.append(GeneratedRequest(x=x, adv_rows=adv_rows))
    return stream


@dataclass
class RunStats:
    """Wall-clock outcome of one stream run.

    ``labels``/``statuses`` keep one entry per *request* (``labels`` is
    ``None`` where the request shed); ``latencies`` holds served
    requests only — a shed request has no service latency, and its
    ``NaN`` placeholder used to poison every percentile downstream
    (the sketch drops non-finite values as well).
    """

    labels: list[np.ndarray] = field(default_factory=list)
    statuses: list[str] = field(default_factory=list)
    seconds: float = 0.0
    latencies: LatencySketch = field(default_factory=LatencySketch)

    @property
    def served(self) -> int:
        """Requests that got labels back (``ok`` or ``degraded``)."""
        return sum(1 for status in self.statuses if status != "shed")

    @property
    def shed(self) -> int:
        """Requests refused by admission control."""
        return sum(1 for status in self.statuses if status == "shed")

    @property
    def requests_per_sec(self) -> float:
        # Served requests only: counting sheds would let a service
        # inflate its throughput by refusing traffic.
        return self.served / self.seconds if self.seconds > 0 else float("inf")

    @property
    def examples_per_sec(self) -> float:
        rows = sum(len(l) for l in self.labels if l is not None)
        return rows / self.seconds if self.seconds > 0 else float("inf")

    def _add(self, result: ServeResult, latency_s: float) -> None:
        self.labels.append(result.labels)
        self.statuses.append(result.status)
        if result.ok:
            self.latencies.record(latency_s)


def run_offline(dcn: DCN, stream: list[GeneratedRequest]) -> RunStats:
    """Per-request baseline: each request dispatched alone via ``DCN.classify``.

    This is the pre-serving status quo — every caller pays its own engine
    dispatch, its own detector forward and its own corrector vote.
    """
    stats = RunStats()
    start = time.perf_counter()
    for request in stream:
        t0 = time.perf_counter()
        stats.labels.append(dcn.classify(request.x))
        stats.latencies.record(time.perf_counter() - t0)
        stats.statuses.append("ok")
    stats.seconds = time.perf_counter() - start
    return stats


def _run_windows(stream: list[GeneratedRequest], window: int, serve) -> RunStats:
    """Feed ``stream`` to ``serve`` ``window`` requests at a time.

    ``serve`` maps one window's inputs to their results, in order.  Each
    result's own ``latency_s`` is what the front's telemetry sketch
    records, so the two report the same percentiles.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    stats = RunStats()
    start = time.perf_counter()
    for begin in range(0, len(stream), window):
        arrivals = [request.x for request in stream[begin : begin + window]]
        for result in serve(arrivals):
            stats._add(result, result.latency_s)
    stats.seconds = time.perf_counter() - start
    return stats


def run_coalesced(
    service: DCNService,
    stream: list[GeneratedRequest],
    window: int = 16,
) -> RunStats:
    """Drive the service in synchronous arrival windows of ``window`` requests.

    Each window models ``window`` callers hitting the service at once; the
    service coalesces them into bucketed dispatches.  Deterministic, so
    the benchmark can assert served labels equal the offline baseline's.
    """
    return _run_windows(stream, window, service.serve_batch)


def run_windowed(
    front,
    stream: list[GeneratedRequest],
    window: int = 16,
    timeout: float | None = 60.0,
) -> RunStats:
    """Drive a started front in arrival windows through ``submit``/tickets.

    ``front`` is anything with ``submit(x) -> ticket`` — a started
    :class:`~repro.serve.service.DCNService` or a
    :class:`~repro.serve.workers.ServePool`.  ``window`` requests are
    submitted concurrently, then all their tickets awaited (``timeout``
    each) before the next window — the threaded analogue of
    :func:`run_coalesced`.  Pool sharding is deterministic (sequence
    modulo worker count), so per-request labels still match the offline
    baseline's exactly; only the grouping into dispatches differs.
    """

    def serve(arrivals):
        tickets = [front.submit(x) for x in arrivals]
        return [ticket.wait(timeout) for ticket in tickets]

    return _run_windows(stream, window, serve)


def run_remote(clients, stream: list[GeneratedRequest]) -> RunStats:
    """Replay ``stream`` against a live server through ``clients``.

    Request ``i`` goes to client ``i % len(clients)`` — a deterministic
    assignment, so a rerun with the same stream and client fleet issues
    exactly the same calls in the same per-connection order.  Each client
    drives its subset sequentially on its own thread (a
    :class:`~repro.serve.client.DCNClient` serialises its socket anyway),
    which models ``len(clients)`` concurrent callers: their in-flight
    requests coalesce in the server backend's micro-batching dispatcher.
    Results are reassembled in stream order, so ``labels`` lines up with
    the offline baseline for bitwise comparison.

    Every entry in ``statuses`` resolves — ``ok``/``degraded``/``shed`` —
    because :meth:`DCNClient.classify` converts transport failures into
    sheds or structured errors rather than hanging.  An exception a
    client does raise (e.g. ``RemoteProtocolError``) stops that client's
    thread; once every thread has joined, the first one is re-raised
    here.  Latencies are timed around each ``classify`` call, so they
    include the transport and client time the server-reported
    ``latency_s`` leaves out.
    """
    if not clients:
        raise ValueError("need at least one client")
    results: list[ServeResult | None] = [None] * len(stream)
    latencies = [0.0] * len(stream)
    errors: list[Exception] = []

    def drive(client_index: int) -> None:
        client = clients[client_index]
        try:
            for i in range(client_index, len(stream), len(clients)):
                sent = time.perf_counter()
                results[i] = client.classify(stream[i].x)
                latencies[i] = time.perf_counter() - sent
        except Exception as exc:  # re-raised by the caller after every join
            errors.append(exc)

    stats = RunStats()
    start = time.perf_counter()
    threads = [
        threading.Thread(target=drive, args=(c,), name=f"loadgen-client-{c}")
        for c in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats.seconds = time.perf_counter() - start
    if errors:
        raise errors[0]
    for result, latency in zip(results, latencies):
        stats._add(result, latency)
    return stats
