"""Fault-tolerant remote serving client: deadlines, retries, circuit breaking.

:class:`DCNClient` is the caller-side half of the transport contract
(:mod:`repro.serve.transport`).  Its one promise mirrors the pool's:
**every call resolves** — a result, a ``shed``/``degraded``
:class:`~repro.serve.ServeResult`, or a structured
:class:`RemoteProtocolError` — never a hang.  Three mechanisms deliver it:

Deadline propagation
    Every call runs under a latency budget (``deadline_s``).  The
    *remaining* budget at send time travels in the request frame, so the
    server can shed un-meetable work instead of computing labels nobody
    will wait for; client-side, every socket operation and every backoff
    sleep is clamped to the same budget.  A spent budget resolves as
    ``shed`` with ``reason="deadline"`` — the same outcome the server
    reports when the deadline fires on its side.

Bounded retries, deterministic backoff
    Only **idempotent-safe** outcomes retry: connect failure, a
    server-side ``shed`` marked retryable (overload — no work was done),
    and a torn reply.  A complete, well-formed response is an ack — the
    request was executed — and is never retried, and neither is a
    deadline shed (the budget is gone).  Backoff between attempts is
    exponential with **seeded** jitter (``random.Random(backoff_seed)``),
    so a retry schedule is replayable in tests byte for byte.

Circuit breaking
    A per-endpoint closed → open → half-open breaker.  After
    ``breaker_threshold`` consecutive transport failures the endpoint
    opens and calls fast-fail as ``shed``/``reason="breaker"`` without
    touching the network; after ``breaker_reset_s`` one **probe** request
    is allowed through (half-open) and its outcome closes or re-opens the
    circuit.  A flapping server degrades service to fast, caller-visible
    sheds instead of a pile-up of blocked callers.

All counters (:class:`ClientCounters`) are journalable through
:class:`~repro.serve.telemetry.TelemetryExporter` via
``telemetry_snapshot()``.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..counters import Counters
from .service import ServeResult
from .transport import (
    DEFAULT_MAX_FRAME_BYTES,
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    FrameError,
    decode_body,
    encode_body,
    read_frame,
    result_from_meta,
    write_frame,
)

__all__ = [
    "DCNClient",
    "ClientCounters",
    "CircuitBreaker",
    "RemoteProtocolError",
    "BREAKER_STATES",
]

BREAKER_STATES = ("closed", "open", "half-open")


class RemoteProtocolError(Exception):
    """The peer violated the protocol (bad magic/version/payload).

    Structured and terminal: ``code`` names the violation and
    ``attempts`` how many tries were spent.  Never raised for transient
    transport failures — those resolve as ``shed`` results.
    """

    def __init__(self, code: str, message: str, attempts: int = 1):
        super().__init__(f"{code}: {message} (after {attempts} attempt(s))")
        self.code = code
        self.attempts = attempts


class _Retryable(Exception):
    """Internal: an idempotent-safe failure worth another attempt."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class ClientCounters(Counters):
    """Cumulative outcome counters of one :class:`DCNClient`."""

    requests: int = 0  # classify() calls
    ok: int = 0
    degraded: int = 0
    shed: int = 0  # calls that resolved shed (any reason)
    retries: int = 0  # extra attempts beyond the first
    connect_failures: int = 0
    torn_replies: int = 0
    server_shed: int = 0  # retryable sheds the server reported
    deadline_shed: int = 0  # budget exhausted (either side)
    protocol_errors: int = 0
    breaker_opened: int = 0  # closed/half-open -> open transitions
    breaker_fast_fail: int = 0  # calls short-circuited while open
    breaker_probes: int = 0  # half-open probe requests sent
    breaker_closed: int = 0  # successful probes that re-closed the circuit
    backoff_seconds: float = 0.0  # total time slept between attempts


class CircuitBreaker:
    """Closed/open/half-open breaker for one endpoint.

    ``threshold`` consecutive failures open the circuit; after
    ``reset_s`` the next admitted call is a half-open **probe** whose
    outcome closes (success) or re-opens (failure) it.  Thread-safe; the
    clock is injectable so tests drive the state machine without
    sleeping.
    """

    def __init__(self, threshold: int = 3, reset_s: float = 1.0, clock=time.monotonic):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if reset_s <= 0:
            raise ValueError("reset_s must be > 0")
        self.threshold = threshold
        self.reset_s = reset_s
        self._clock = clock
        self._lock = threading.Lock()
        self.state = "closed"
        self.failures = 0
        self.opened_at: float | None = None
        self._probing = False

    def allow(self) -> tuple[bool, bool]:
        """``(admitted, is_probe)`` for a call arriving now."""
        with self._lock:
            if self.state == "closed":
                return True, False
            if self.state == "open":
                assert self.opened_at is not None
                if self._clock() - self.opened_at < self.reset_s:
                    return False, False
                self.state = "half-open"
                self._probing = False
            # half-open: exactly one probe in flight at a time.
            if self._probing:
                return False, False
            self._probing = True
            return True, True

    def record_success(self) -> None:
        with self._lock:
            self.state = "closed"
            self.failures = 0
            self.opened_at = None
            self._probing = False

    def record_failure(self) -> bool:
        """Fold in one transport failure; True if the circuit just opened."""
        with self._lock:
            self.failures += 1
            if self.state == "half-open" or self.failures >= self.threshold:
                just_opened = self.state != "open"
                self.state = "open"
                self.opened_at = self._clock()
                self._probing = False
                return just_opened
            return False

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self.state,
                "failures": self.failures,
                "opened_at": self.opened_at,
            }


class DCNClient:
    """Remote classify over the framed transport, with fault tolerance.

    Parameters
    ----------
    address:
        ``(host, port)`` of a running :class:`~repro.serve.transport.DCNServer`.
    deadline_s:
        Default per-call latency budget; individual calls may override.
    retries:
        Extra attempts after the first, spent only on idempotent-safe
        failures (connect failure, retryable server shed, torn reply).
    backoff_base_s / backoff_max_s / backoff_seed:
        Deterministic exponential backoff between attempts:
        ``min(max, base * 2**attempt) * (0.5 + jitter)`` with jitter drawn
        from ``random.Random(backoff_seed)`` — replayable schedules.
    breaker_threshold / breaker_reset_s:
        Circuit-breaker tuning (see :class:`CircuitBreaker`).
    """

    def __init__(
        self,
        address: tuple[str, int],
        deadline_s: float = 30.0,
        retries: int = 2,
        backoff_base_s: float = 0.02,
        backoff_max_s: float = 1.0,
        backoff_seed: int = 0,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 1.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        sleep=time.sleep,
    ):
        if deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff_base_s < 0 or backoff_max_s < backoff_base_s:
            raise ValueError("need 0 <= backoff_base_s <= backoff_max_s")
        self.address = (str(address[0]), int(address[1]))
        self.deadline_s = deadline_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.max_frame_bytes = max_frame_bytes
        self.breaker = CircuitBreaker(breaker_threshold, breaker_reset_s)
        self.counters = ClientCounters()
        self._rng = random.Random(backoff_seed)
        self._sleep = sleep
        self._lock = threading.Lock()  # one in-flight roundtrip per client
        self._sock: socket.socket | None = None
        self._next_id = 0

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def __enter__(self) -> "DCNClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _close_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None

    # -- the call --------------------------------------------------------------

    def classify(self, x: np.ndarray, deadline_s: float | None = None) -> ServeResult:
        """One remote classify under a latency budget; always resolves.

        Returns the server's :class:`ServeResult` (``ok``/``degraded``/
        ``shed``); transport failures resolve as ``shed`` with ``reason``
        naming the cause (``"deadline"``, ``"breaker"``,
        ``"unavailable"``); protocol violations raise
        :class:`RemoteProtocolError`.
        """
        budget = self.deadline_s if deadline_s is None else float(deadline_s)
        if budget <= 0:
            raise ValueError("deadline_s must be > 0")
        deadline = time.monotonic() + budget
        self.counters.requests += 1
        x = np.asarray(x)
        last_reason = "unavailable"
        attempt = 0
        while True:
            admitted, probe = self.breaker.allow()
            if not admitted:
                self.counters.breaker_fast_fail += 1
                return self._finish(ServeResult(status="shed", reason="breaker"))
            if probe:
                self.counters.breaker_probes += 1
            try:
                result = self._roundtrip(x, deadline, attempt)
            except _Retryable as exc:
                if self.breaker.record_failure():
                    self.counters.breaker_opened += 1
                last_reason = exc.reason
                remaining = deadline - time.monotonic()
                if attempt >= self.retries or remaining <= 0:
                    reason = "deadline" if remaining <= 0 else last_reason
                    if reason == "deadline":
                        self.counters.deadline_shed += 1
                    return self._finish(ServeResult(status="shed", reason=reason))
                self._backoff(attempt, remaining)
                attempt += 1
                self.counters.retries += 1
                continue
            except RemoteProtocolError as exc:
                self.counters.protocol_errors += 1
                if self.breaker.record_failure():
                    self.counters.breaker_opened += 1
                raise RemoteProtocolError(exc.code, str(exc), attempts=attempt + 1) from exc
            if result.status == "shed" and result.reason == "deadline":
                # Server-side deadline shed: the budget is gone on both
                # ends; retrying would only burn a dead budget further.
                self.counters.deadline_shed += 1
                self.breaker.record_success()  # the endpoint is healthy
                return self._finish(result)
            if probe:
                self.counters.breaker_closed += 1
            self.breaker.record_success()
            return self._finish(result)

    def ping(self, deadline_s: float = 5.0) -> bool:
        """Transport-level health probe; never raises."""
        deadline = time.monotonic() + deadline_s
        with self._lock:
            try:
                sock = self._connect_locked(deadline)
                from .transport import KIND_PING, KIND_PONG

                write_frame(sock, KIND_PING, {"id": -1})
                frame = read_frame(sock, self.max_frame_bytes, deadline)
                return frame is not None and frame[0] == KIND_PONG
            except (OSError, FrameError):
                self._close_locked()
                return False

    def telemetry_snapshot(self) -> dict:
        """Exporter hook: counters plus breaker state, one JSON-able dict."""
        return {
            "counters": self.counters.as_dict(),
            "breaker": self.breaker.snapshot(),
            "endpoint": f"{self.address[0]}:{self.address[1]}",
        }

    # -- internals -------------------------------------------------------------

    def _finish(self, result: ServeResult) -> ServeResult:
        if result.status == "ok":
            self.counters.ok += 1
        elif result.status == "degraded":
            self.counters.degraded += 1
        else:
            self.counters.shed += 1
        return result

    def _backoff(self, attempt: int, remaining: float) -> None:
        delay = min(self.backoff_max_s, self.backoff_base_s * (2.0**attempt))
        delay *= 0.5 + self._rng.random()  # jitter in [0.5, 1.5) x delay
        delay = min(delay, max(0.0, remaining))
        if delay > 0:
            self.counters.backoff_seconds += delay
            self._sleep(delay)

    def _connect_locked(self, deadline: float) -> socket.socket:
        if self._sock is not None:
            return self._sock
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise FrameError("timeout", "deadline fired before connect")
        sock = socket.create_connection(self.address, timeout=remaining)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        return sock

    def _roundtrip(self, x: np.ndarray, deadline: float, attempt: int) -> ServeResult:
        """One send/receive attempt; raises ``_Retryable`` on safe failures."""
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
            try:
                sock = self._connect_locked(deadline)
            except FrameError:
                raise _Retryable("deadline")
            except OSError:
                self.counters.connect_failures += 1
                self._close_locked()
                raise _Retryable("unavailable")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _Retryable("deadline")
            meta = {"id": request_id, "deadline_s": remaining, "attempt": attempt}
            body = encode_body(meta, x=x)  # sets meta["arrays"] before the send
            try:
                sock.settimeout(remaining)
                write_frame(sock, KIND_REQUEST, meta, body)
                frame = read_frame(sock, self.max_frame_bytes, deadline)
            except FrameError as exc:
                self._close_locked()
                if exc.code == "torn":
                    # The reply died mid-frame.  classify is pure, and the
                    # protocol deems a lost reply safe to re-request.
                    self.counters.torn_replies += 1
                    raise _Retryable("torn")
                if exc.code == "timeout":
                    raise _Retryable("deadline")
                raise RemoteProtocolError(exc.code, str(exc))
            except OSError:
                self.counters.connect_failures += 1
                self._close_locked()
                raise _Retryable("unavailable")
            if frame is None:
                # EOF instead of a reply: the server died before answering
                # (no ack was received, so a retry cannot double-serve).
                self._close_locked()
                self.counters.torn_replies += 1
                raise _Retryable("torn")
            try:
                return self._reply_result(request_id, *frame)
            except RemoteProtocolError:
                # The server closes the connection after an error frame,
                # and a reply that breaks the protocol leaves the stream
                # unreadable: the next call must reconnect.
                self._close_locked()
                raise

    def _reply_result(self, request_id: int, kind: int, reply: dict, body) -> ServeResult:
        """Decode one reply frame; raises ``_Retryable`` on a retryable shed
        and :class:`RemoteProtocolError` on a protocol violation."""
        if kind == KIND_ERROR:
            raise RemoteProtocolError(
                str(reply.get("code", "error")), str(reply.get("message", ""))
            )
        if kind != KIND_RESPONSE:
            raise RemoteProtocolError("bad-kind", f"unexpected reply kind {kind}")
        if reply.get("id") != request_id:
            # A stale reply (e.g. to a request whose wait we abandoned)
            # would mislabel this call; treat as protocol violation.
            raise RemoteProtocolError(
                "bad-payload", f"reply id {reply.get('id')} != request id {request_id}"
            )
        try:
            if str(reply.get("status", "shed")) != "shed":
                return result_from_meta(reply, decode_body(reply, body))
            result = result_from_meta(reply, {})
        except FrameError as exc:
            raise RemoteProtocolError("bad-payload", f"response body: {exc}")
        if bool(reply.get("retryable")) and result.reason != "deadline":
            self.counters.server_shed += 1
            raise _Retryable(result.reason or "overload")
        return result
