"""Framed TCP transport: the serving layer's network edge.

The sharding and liveness layers (PR 9) are transport-agnostic on
purpose; this module gives them a wire.  Everything rides a single
**length-prefixed framed protocol** over TCP:

Frame format
    ``magic(4) | version(1) | kind(1) | meta_len(4, !I) | body_len(8, !Q)``
    followed by ``meta_len`` bytes of UTF-8 JSON metadata and ``body_len``
    bytes of body.  Arrays are described once, in the table
    ``meta["arrays"] = [[name, dtype.str, shape], ...]``, and the body is
    their raw C-order bytes back to back (:func:`encode_body` /
    :func:`decode_body`).  Dtype codes are looked up in a fixed table of
    native bool/int/uint/float dtypes, never parsed, so object arrays
    cannot be smuggled in; the table must account for the body exactly,
    checked before anything is allocated.  A frame whose header fails the
    magic/version check, or whose declared size exceeds
    ``max_frame_bytes``, is rejected with a **structured**
    :class:`FrameError` (``code`` in :data:`FRAME_ERROR_CODES`) rather
    than a hang or a silent truncation; a connection that dies mid-frame
    surfaces as ``code="torn"``.

Deadline propagation
    A request frame carries ``deadline_s`` — the *remaining* latency
    budget at send time (a duration, not a wall-clock instant, so the two
    machines' clocks never need to agree).  The server sheds a request
    whose budget is already spent, or whose estimated queued wait
    (:meth:`~repro.serve.DCNService.estimated_wait_s`, the PR 9 SLO cost
    model) exceeds the remaining budget — *before* doing any dispatch
    work — and bounds its wait on the backend ticket by the same budget.
    Either way the caller gets a ``shed`` response with
    ``reason="deadline"`` and the ``deadline_shed`` counter increments:
    client and server agree on the outcome.  A ``deadline_s`` that is not
    a finite number (a string, a bool, ``NaN``, ``Infinity``, ``1e400``)
    is answered with a ``bad-payload`` error frame and the connection
    closes.

Server
    :class:`DCNServer` accepts any backend with ``submit(x) -> ticket``
    semantics — a started :class:`~repro.serve.DCNService` or a
    :class:`~repro.serve.ServePool` — one handler thread per connection,
    so concurrent client connections coalesce in the backend's
    micro-batching dispatcher exactly like local threads.  Transport
    chaos (:class:`~repro.runner.faultinject.TransportChaos`) hooks the
    reply path so every network failure mode is deterministically
    injectable.
"""

from __future__ import annotations

import json
import math
import socket
import struct
import sys
import threading
import time

import numpy as np

from .service import ServeResult
from .telemetry import ServeCounters

__all__ = [
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "FRAME_ERROR_CODES",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "KIND_ERROR",
    "KIND_PING",
    "KIND_PONG",
    "FrameError",
    "encode_body",
    "decode_body",
    "read_frame",
    "pack_frame",
    "write_frame",
    "DCNServer",
]

PROTOCOL_MAGIC = b"DCNS"
PROTOCOL_VERSION = 2

#: Hard ceiling on one frame's declared payload (metadata + body).  64 MiB
#: is ~256x the largest legal request at the default ``max_batch``; a
#: header claiming more is a corrupt or hostile peer, not a big batch.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct("!4sBBIQ")

KIND_REQUEST = 1
KIND_RESPONSE = 2
KIND_ERROR = 3
KIND_PING = 4
KIND_PONG = 5

_KNOWN_KINDS = (KIND_REQUEST, KIND_RESPONSE, KIND_ERROR, KIND_PING, KIND_PONG)

FRAME_ERROR_CODES = (
    "bad-magic",  # first 4 bytes are not the protocol magic
    "bad-version",  # peer speaks a different protocol version
    "bad-kind",  # unknown frame kind byte
    "oversized",  # declared payload exceeds max_frame_bytes
    "torn",  # connection died mid-frame
    "timeout",  # deadline fired while reading a frame
    "bad-payload",  # metadata/body failed to decode
)


class FrameError(Exception):
    """A structured framing failure; ``code`` is one of FRAME_ERROR_CODES."""

    def __init__(self, code: str, message: str):
        assert code in FRAME_ERROR_CODES, code
        super().__init__(f"{code}: {message}")
        self.code = code


# ---------------------------------------------------------------------------
# Array + frame codecs
# ---------------------------------------------------------------------------


#: The dtypes an array may travel as, keyed by ``dtype.str``.  A peer's
#: code is only ever looked up here, never parsed.
_WIRE_DTYPES = {
    np.dtype(name).str: np.dtype(name)
    for name in ("bool", "int8", "int16", "int32", "int64", "uint8", "uint16",
                 "uint32", "uint64", "float16", "float32", "float64")
}


def encode_body(meta: dict, **arrays: np.ndarray | None) -> bytes:
    """Encode named arrays as raw C-order bytes, described in ``meta["arrays"]``.

    ``None`` values are skipped; a dtype outside the wire table raises
    ``ValueError``.
    """
    table: list[list] = []
    chunks: list[bytes] = []
    for name, value in arrays.items():
        if value is None:
            continue
        value = np.asarray(value)
        if value.dtype.str not in _WIRE_DTYPES:
            raise ValueError(f"array {name!r} has dtype {value.dtype}, which cannot be sent")
        table.append([name, value.dtype.str, list(value.shape)])
        chunks.append(value.tobytes())
    meta["arrays"] = table
    return b"".join(chunks)


def decode_body(meta: dict, data: bytes) -> dict[str, np.ndarray]:
    """Decode a frame body laid out by :func:`encode_body` into writable arrays.

    Every entry's size is checked against the body before anything is
    allocated, and the table must account for the body exactly; any
    malformed table raises ``FrameError("bad-payload")``.
    """
    table = meta.get("arrays")
    if not isinstance(table, list):
        raise FrameError("bad-payload", "frame body has no array table")
    out: dict[str, np.ndarray] = {}
    offset = 0
    for entry in table:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise FrameError("bad-payload", "array table entry is not [name, dtype, shape]")
        name, code, shape = entry
        dtype = _WIRE_DTYPES.get(code) if isinstance(code, str) else None
        if (
            not isinstance(name, str)
            or dtype is None
            or not isinstance(shape, list)
            or len(shape) > 64  # numpy's ndim ceiling; also bounds math.prod
            or not all(type(dim) is int and dim >= 0 for dim in shape)
        ):
            raise FrameError("bad-payload", "malformed array table entry")
        count = math.prod(shape)
        if offset + count * dtype.itemsize > len(data):
            raise FrameError("bad-payload", "array table declares more bytes than the body holds")
        try:
            out[name] = np.frombuffer(data, dtype, count, offset).reshape(shape).copy()
        except ValueError as exc:  # an empty array with dims numpy cannot hold
            raise FrameError("bad-payload", f"unshapeable array: {exc}") from exc
        offset += count * dtype.itemsize
    if offset != len(data):
        raise FrameError("bad-payload", f"{len(data) - offset} body bytes past the array table")
    return out


def _recv_exact(sock: socket.socket, n: int, deadline: float | None) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a frame boundary.

    EOF *inside* a frame raises ``FrameError("torn")``; the deadline
    firing raises ``FrameError("timeout")``.
    """
    chunks: list[bytes] = []
    got = 0
    while got < n:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise FrameError("timeout", f"deadline fired after {got}/{n} bytes")
            sock.settimeout(remaining)
        try:
            chunk = sock.recv(n - got)
        except socket.timeout as exc:
            raise FrameError("timeout", f"socket stalled after {got}/{n} bytes") from exc
        except OSError as exc:
            if got == 0 and not chunks:
                return None
            raise FrameError("torn", f"connection died after {got}/{n} bytes") from exc
        if not chunk:
            if got == 0:
                return None
            raise FrameError("torn", f"EOF after {got}/{n} bytes of a frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(
    sock: socket.socket,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    deadline: float | None = None,
) -> tuple[int, dict, bytes] | None:
    """Read one frame: ``(kind, meta, body)``; ``None`` on clean EOF.

    ``deadline`` is a ``time.monotonic()`` instant; raising
    ``FrameError("timeout")`` when it fires is what keeps a stalled peer
    from hanging the reader forever.
    """
    header = _recv_exact(sock, _HEADER.size, deadline)
    if header is None:
        return None
    magic, version, kind, meta_len, body_len = _HEADER.unpack(header)
    if magic != PROTOCOL_MAGIC:
        raise FrameError("bad-magic", f"got {magic!r}, want {PROTOCOL_MAGIC!r}")
    if version != PROTOCOL_VERSION:
        raise FrameError("bad-version", f"peer speaks v{version}, we speak v{PROTOCOL_VERSION}")
    if kind not in _KNOWN_KINDS:
        raise FrameError("bad-kind", f"unknown frame kind {kind}")
    if meta_len + body_len > max_frame_bytes:
        raise FrameError(
            "oversized",
            f"frame declares {meta_len + body_len} bytes > cap {max_frame_bytes}",
        )
    meta_bytes = _recv_exact(sock, meta_len, deadline) if meta_len else b"{}"
    if meta_bytes is None:
        raise FrameError("torn", "EOF before frame metadata")
    body = _recv_exact(sock, body_len, deadline) if body_len else b""
    if body is None:
        raise FrameError("torn", "EOF before frame body")
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integer
        # literals; RecursionError, metadata nested too deeply to parse.
        raise FrameError("bad-payload", f"undecodable frame metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise FrameError("bad-payload", "frame metadata is not a JSON object")
    return kind, meta, body


def pack_frame(kind: int, meta: dict, body: bytes = b"") -> bytes:
    """One frame's bytes: header, JSON metadata, body."""
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    header = _HEADER.pack(
        PROTOCOL_MAGIC, PROTOCOL_VERSION, kind, len(meta_bytes), len(body)
    )
    return header + meta_bytes + body


def write_frame(sock: socket.socket, kind: int, meta: dict, body: bytes = b"") -> None:
    """Serialise and send one frame with a single ``sendall``."""
    sock.sendall(pack_frame(kind, meta, body))


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


def _budget(deadline_s) -> float:
    """A request's ``deadline_s`` as seconds: finite JSON numbers only.

    ``Infinity``, ``NaN``, ``1e400`` (which parses to ``inf``), strings,
    lists and booleans are ``bad-payload``.
    """
    if (
        isinstance(deadline_s, bool)
        or not isinstance(deadline_s, (int, float))
        or not abs(deadline_s) <= sys.float_info.max
    ):
        raise FrameError("bad-payload", f"deadline_s must be a finite number, got {deadline_s!r}")
    return float(deadline_s)


class DCNServer:
    """Serve a started :class:`DCNService`/:class:`ServePool` over TCP.

    Parameters
    ----------
    backend:
        Anything with ``submit(x) -> ticket`` (ticket has
        ``wait(timeout) -> ServeResult``).  Must already be started; each
        connection handler submits into it, so concurrent connections
        coalesce in its dispatcher.
    host, port:
        Bind address; ``port=0`` picks a free port (``server.address``
        reports the real one).
    default_deadline_s:
        Ticket-wait bound for requests that carry no deadline — nothing
        server-side ever waits forever.
    max_frame_bytes:
        Reject frames declaring more than this many payload bytes.
    chaos:
        Optional :class:`~repro.runner.faultinject.TransportChaos`; its
        faults fire on the reply path, keyed by server-wide request
        ordinal.
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        default_deadline_s: float = 30.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        chaos=None,
    ):
        if default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be > 0")
        self.backend = backend
        self.host = host
        self.port = port
        self.default_deadline_s = default_deadline_s
        self.max_frame_bytes = max_frame_bytes
        self.chaos = chaos
        #: Transport-level counters, merged into ``telemetry_snapshot``.
        self.counters = ServeCounters()
        self.connections_total = 0
        self.frame_errors = 0
        self._lock = threading.Lock()
        self._ordinal = 0
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self._running = False

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — use after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "DCNServer":
        with self._lock:
            if self._running:
                raise RuntimeError("server already started")
            self._running = True
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self._listener = listener
        accept = threading.Thread(
            target=self._accept_loop, name="dcn-server-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        return self

    def stop(self) -> None:
        with self._lock:
            if not self._running:
                return
            self._running = False
            conns = list(self._conns)
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does, so the accept loop exits at once.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)

    def serve_forever(self, poll_s: float = 0.5) -> None:
        """Block the calling thread until :meth:`stop` (the CLI's --listen
        loop; accept/handler threads do the actual work)."""
        while True:
            with self._lock:
                if not self._running:
                    return
            time.sleep(poll_s)

    def __enter__(self) -> "DCNServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- telemetry -------------------------------------------------------------

    def telemetry_snapshot(self) -> dict:
        """Backend snapshot with transport counters folded in."""
        snapshot = self.backend.telemetry_snapshot()
        merged = ServeCounters.merged([snapshot.get("counters", {}), self.counters])
        snapshot["counters"] = merged.as_dict()
        snapshot["transport"] = {
            "connections_total": self.connections_total,
            "frame_errors": self.frame_errors,
            "requests": self._ordinal,
        }
        return snapshot

    # -- internals -------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if not self._running:
                    conn.close()
                    return
                self._conns.add(conn)
                self.connections_total += 1
                handler = threading.Thread(
                    target=self._handle,
                    args=(conn,),
                    name="dcn-server-conn",
                    daemon=True,
                )
                # Drop finished handlers so a long-lived server's list
                # stays bounded by its live connections.
                self._threads = [t for t in self._threads if t.is_alive()]
                self._threads.append(handler)
            handler.start()

    def _handle(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    frame = read_frame(conn, self.max_frame_bytes)
                except FrameError as exc:
                    with self._lock:
                        self.frame_errors += 1
                    # Best-effort structured rejection before closing; a
                    # torn connection can't receive it, which is fine.
                    self._send_error(conn, exc.code, str(exc))
                    return
                if frame is None:
                    return  # clean EOF
                kind, meta, body = frame
                if kind == KIND_PING:
                    write_frame(conn, KIND_PONG, {"id": meta.get("id")})
                    continue
                if kind != KIND_REQUEST:
                    self._send_error(conn, "bad-kind", f"server cannot handle kind {kind}")
                    return
                if not self._serve_request(conn, meta, body):
                    return
        except (OSError, BrokenPipeError):
            pass  # peer went away mid-write
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _serve_request(self, conn: socket.socket, meta: dict, body: bytes) -> bool:
        """Handle one classify request; False closes the connection."""
        received = time.monotonic()
        request_id = meta.get("id")
        with self._lock:
            ordinal = self._ordinal
            self._ordinal += 1
        deadline_s = meta.get("deadline_s")
        try:
            arrays = decode_body(meta, body)
            x = arrays["x"]
            budget = self.default_deadline_s if deadline_s is None else _budget(deadline_s)
        except (FrameError, KeyError) as exc:
            with self._lock:
                self.frame_errors += 1
            self._send_error(conn, "bad-payload", f"request: {exc}", request_id)
            return False

        # Deadline-aware admission: refuse dead work.  A request whose
        # budget is spent, or whose estimated queued wait (the SLO cost
        # model) already exceeds it, sheds *before* touching the backend.
        if deadline_s is not None:
            est = None
            estimator = getattr(self.backend, "estimated_wait_s", None)
            if estimator is not None:
                est = estimator(len(x))
            if budget <= 0 or (est is not None and est > budget):
                with self._lock:
                    self.counters.shed += 1
                    self.counters.deadline_shed += 1
                return self._send_result(
                    conn, request_id, ordinal,
                    ServeResult(status="shed", reason="deadline"), retryable=False,
                )

        try:
            ticket = self.backend.submit(x)
        except ValueError as exc:
            self._send_error(conn, "bad-payload", f"rejected request: {exc}", request_id)
            return False
        except RuntimeError as exc:  # backend not started / shut down
            return self._send_result(
                conn, request_id, ordinal,
                ServeResult(status="shed", reason=f"unavailable: {exc}"),
                retryable=True,
            )
        # A finite budget can still exceed what a lock wait accepts.
        wait_budget = min(max(0.0, budget - (time.monotonic() - received)), threading.TIMEOUT_MAX)
        try:
            result = ticket.wait(wait_budget)
        except TimeoutError:
            # The backend may still resolve the ticket later; its labels
            # are discarded — the caller's budget is gone either way.
            with self._lock:
                self.counters.deadline_shed += 1
            result = ServeResult(status="shed", reason="deadline")
            return self._send_result(conn, request_id, ordinal, result, retryable=False)
        if result.status == "shed":
            # Backend shed (overload / dead workers): no work was done,
            # so a retry after backoff is safe and may find capacity.
            result = ServeResult(status="shed", reason=result.reason or "overload")
            return self._send_result(conn, request_id, ordinal, result, retryable=True)
        return self._send_result(conn, request_id, ordinal, result, retryable=False)

    def _send_result(
        self,
        conn: socket.socket,
        request_id,
        ordinal: int,
        result: ServeResult,
        retryable: bool,
    ) -> bool:
        meta = {
            "id": request_id,
            "status": result.status,
            "reason": result.reason,
            "retryable": retryable,
            "latency_s": result.latency_s if np.isfinite(result.latency_s) else None,
        }
        body = b""
        if result.labels is not None:
            body = encode_body(meta, labels=result.labels, flagged=result.flagged)
        fault = self.chaos.reply_fault(ordinal) if self.chaos is not None else None
        try:
            if fault is not None and not self.chaos.fire(fault, conn, meta, body):
                return False
            write_frame(conn, KIND_RESPONSE, meta, body)
            return True
        except OSError:
            return False

    def _send_error(
        self, conn: socket.socket, code: str, message: str, request_id=None
    ) -> None:
        try:
            write_frame(
                conn, KIND_ERROR, {"id": request_id, "code": code, "message": message}
            )
        except OSError:
            pass
