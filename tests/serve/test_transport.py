"""Framed transport + remote serving: protocol safety and the chaos matrix.

The acceptance bar is the client's one promise: **every call resolves** —
labels, a shed/degraded result, or a structured error — never a hang —
under every deterministic transport fault the chaos harness can fire.
"""

import functools
import io
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.runner.faultinject import Fault, FaultPlan, TransportChaos
from repro.serve import (
    DCNClient,
    DCNServer,
    DCNService,
    LatencySketch,
    RemoteProtocolError,
    ServeCounters,
    ServePool,
    ServeResult,
    StreamSpec,
    build_stream,
    run_offline,
    run_remote,
)
from repro.serve.transport import (
    KIND_ERROR,
    KIND_PING,
    KIND_PONG,
    KIND_REQUEST,
    KIND_RESPONSE,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    _HEADER,
    _WIRE_DTYPES,
    FrameError,
    decode_body,
    encode_body,
    read_frame,
    result_from_meta,
    result_to_meta,
    write_frame,
)


def _pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


class TestFrameCodec:
    def test_roundtrip_meta_and_arrays(self):
        a, b = _pair()
        sent = {"id": 7, "deadline_s": 0.5}
        body = encode_body(sent, x=np.arange(6, dtype=np.float32).reshape(2, 3), skip=None)
        write_frame(a, KIND_REQUEST, sent, body)
        kind, meta, got = read_frame(b)
        assert kind == KIND_REQUEST
        assert meta == {"id": 7, "deadline_s": 0.5, "arrays": [["x", "<f4", [2, 3]]]}
        arrays = decode_body(meta, got)
        assert list(arrays) == ["x"]  # None-valued arrays are skipped
        np.testing.assert_array_equal(
            arrays["x"], np.arange(6, dtype=np.float32).reshape(2, 3)
        )
        a.close()
        b.close()

    def test_npy_segment_roundtrip(self):
        # The hot-path codec: one table entry per array, raw bytes in the
        # body.  The name predates the array table (protocol v1 sent .npy
        # segments).
        meta = {"id": 3}
        labels = np.array([4, 1], dtype=np.int64)
        flagged = np.array([True, False])
        body = encode_body(meta, labels=labels, flagged=flagged, skip=None)
        assert meta["arrays"] == [["labels", "<i8", [2]], ["flagged", "|b1", [2]]]
        assert body == labels.tobytes() + flagged.tobytes()
        arrays = decode_body(meta, body)
        np.testing.assert_array_equal(arrays["labels"], labels)
        np.testing.assert_array_equal(arrays["flagged"], flagged)

    @pytest.mark.parametrize("code", sorted(_WIRE_DTYPES))
    @pytest.mark.parametrize(
        "shape, fortran", [((), False), ((0, 3), False), ((3, 4), False), ((3, 4), True)],
        ids=["0d", "empty", "c-order", "fortran"],
    )
    def test_every_wire_dtype_round_trips_bitwise_and_writable(self, code, shape, fortran):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 256, size=int(np.prod(shape)) * np.dtype(code).itemsize, dtype=np.uint8)
        x = x.view(code).reshape(shape)
        if fortran:
            x = np.asfortranarray(x)
        meta = {}
        got = decode_body(meta, encode_body(meta, x=x))["x"]
        assert got.dtype == x.dtype and got.shape == x.shape
        assert got.tobytes() == x.tobytes()  # bitwise, NaN payloads included
        assert got.flags.writeable and got.flags.c_contiguous

    @pytest.mark.parametrize(
        "value",
        [np.array([{"a": 1}], dtype=object), np.zeros(2, ">f4"), np.zeros(2, "i4,f8"), np.zeros(2, "c16")],
        ids=["object", "big-endian", "structured", "complex"],
    )
    def test_unsendable_dtype_raises_at_the_sender(self, value):
        with pytest.raises(ValueError, match="cannot be sent"):
            encode_body({}, x=value)

    def test_body_without_segment_table_is_bad_payload(self):
        # A body must carry its array table.
        body = encode_body({}, x=np.ones(3, dtype=np.float64))
        with pytest.raises(FrameError) as err:
            decode_body({"id": 1}, body)
        assert err.value.code == "bad-payload"

    @pytest.mark.parametrize(
        "table",
        [
            [["x", "<f4", [10_000]]],  # declares bytes past the end of the body
            [["x", "<f4", [-1]]],  # negative dimension
            [[7, "<f4", [2]]],  # non-string name
            ["not-a-triple"],  # malformed entry
        ],
    )
    def test_malformed_segment_table_is_bad_payload(self, table):
        body = encode_body({}, x=np.ones(2, dtype=np.float32))
        with pytest.raises(FrameError) as err:
            decode_body({"arrays": table}, body)
        assert err.value.code == "bad-payload"

    @pytest.mark.parametrize(
        "table, body",
        [
            ([["x", "|O", [1]]], b"\0" * 8),
            ([["x", "|V12", [1]]], b"\0" * 12),
            ([["x", [["a", "<i4"], ["b", "<f8"]], [1]]], b"\0" * 12),
            ([["x", ">f4", [2]]], b"\0" * 8),
            ([["x", "<c16", [1]]], b"\0" * 16),
            ([["x", "float32", [2]]], b"\0" * 8),
            ([["x", "<f4", [True, 2]]], b"\0" * 8),
            ([["x", "<f4", [2, -1]]], b"\0" * 8),
            ([["x", "<f4", [2.0]]], b"\0" * 8),
            ([["x", "<f4", 2]], b"\0" * 8),
            ([["x", "<f4", [1] * 65]], b"\0" * 4),
            ([["x", "<f4", [10**4000] * 500]], b""),  # math.prod alone would take seconds
            ([["x", "<f4", [0, 2**70]]], b""),
            ([["x", "<f4", [3]]], b"\0" * 8),
            ([["x", "<f4", [2]]], b"\0" * 9),
            ([["x", "<f4", [2]], ["y", "<i8", [1]]], b"\0" * 12),
            ({"x": ["<f4", [2]]}, b"\0" * 8),
        ],
        ids=[
            "object", "void", "structured", "big-endian", "complex", "dtype-name",
            "bool-dim", "negative-dim", "float-dim", "scalar-shape", "65-dims", "huge-dims",
            "unshapeable-empty", "body-short", "body-long", "second-array-short",
            "table-not-list",
        ],
    )
    def test_hostile_array_tables_are_bad_payload(self, table, body):
        with pytest.raises(FrameError) as err:
            decode_body({"arrays": table}, body)
        assert err.value.code == "bad-payload"

    def test_garbage_npy_segment_is_bad_payload(self):
        # A protocol-v1 body (a bare .npy segment) under either table.
        buf = io.BytesIO()
        np.save(buf, np.ones(3, dtype=np.float32))
        segment = buf.getvalue()
        for meta in ({"npy": [["x", len(segment)]]}, {"arrays": [["x", "<f4", [3]]]}):
            with pytest.raises(FrameError) as err:
                decode_body(meta, segment)
            assert err.value.code == "bad-payload"

    def test_v1_header_is_bad_version(self):
        assert PROTOCOL_VERSION == 2
        a, b = _pair()
        a.sendall(_HEADER.pack(PROTOCOL_MAGIC, 1, KIND_REQUEST, 0, 0))
        with pytest.raises(FrameError) as excinfo:
            read_frame(b)
        assert excinfo.value.code == "bad-version"
        a.close()
        b.close()

    def test_clean_eof_is_none(self):
        a, b = _pair()
        a.close()
        assert read_frame(b) is None
        b.close()

    @pytest.mark.parametrize(
        "header, code",
        [
            (_HEADER.pack(b"EVIL", PROTOCOL_VERSION, KIND_REQUEST, 0, 0), "bad-magic"),
            (_HEADER.pack(PROTOCOL_MAGIC, 99, KIND_REQUEST, 0, 0), "bad-version"),
            (_HEADER.pack(PROTOCOL_MAGIC, PROTOCOL_VERSION, 200, 0, 0), "bad-kind"),
            (
                _HEADER.pack(PROTOCOL_MAGIC, PROTOCOL_VERSION, KIND_REQUEST, 10, 2**40),
                "oversized",
            ),
        ],
    )
    def test_bad_headers_are_structured_errors(self, header, code):
        a, b = _pair()
        a.sendall(header)
        with pytest.raises(FrameError) as excinfo:
            read_frame(b)
        assert excinfo.value.code == code
        a.close()
        b.close()

    def test_torn_frame_mid_body(self):
        a, b = _pair()
        meta = b'{"id":1}'
        a.sendall(
            _HEADER.pack(PROTOCOL_MAGIC, PROTOCOL_VERSION, KIND_REQUEST, len(meta), 64)
            + meta
            + b"\x00" * 10  # 10 of the promised 64 body bytes
        )
        a.close()
        with pytest.raises(FrameError) as excinfo:
            read_frame(b)
        assert excinfo.value.code == "torn"
        b.close()

    def test_undecodable_metadata(self):
        a, b = _pair()
        meta = b"not json"
        a.sendall(
            _HEADER.pack(PROTOCOL_MAGIC, PROTOCOL_VERSION, KIND_REQUEST, len(meta), 0)
            + meta
        )
        with pytest.raises(FrameError) as excinfo:
            read_frame(b)
        assert excinfo.value.code == "bad-payload"
        a.close()
        b.close()

    def test_stalled_peer_times_out(self):
        a, b = _pair()
        with pytest.raises(FrameError) as excinfo:
            read_frame(b, deadline=time.monotonic() + 0.2)
        assert excinfo.value.code == "timeout"
        a.close()
        b.close()


def _cross(kind, meta, body=b""):
    """``(meta, body)`` as a peer reads them after one frame over a socketpair."""
    a, b = _pair()
    try:
        write_frame(a, kind, meta, body)
        got_kind, got_meta, got_body = read_frame(b)
    finally:
        a.close()
        b.close()
    assert got_kind == kind
    return got_meta, got_body


def _bits(value):
    """Bitwise identity of an optional array or a float (NaN included)."""
    if value is None:
        return None
    value = np.asarray(value)
    return value.dtype.str, value.shape, value.tobytes()


_LABELS = np.array([3, 0, 7], dtype=np.int64)
_FLAGGED = np.array([True, False, True])
_RESULTS = {
    "ok": ServeResult("ok", _LABELS, _FLAGGED, 0.012345678901234567),
    "degraded": ServeResult("degraded", _LABELS, _FLAGGED, 2.5e-05),
    "ok-nan-latency": ServeResult("ok", _LABELS, _FLAGGED),
    "shed": ServeResult("shed"),
    **{
        f"shed-{reason}": ServeResult("shed", latency_s=0.5, reason=reason)
        for reason in ("deadline", "breaker", "overload", "unavailable", "error")
    },
}


class TestResultCodec:
    """The one ServeResult <-> response-frame mapping every serving hop uses."""

    @pytest.mark.parametrize("name", sorted(_RESULTS))
    def test_every_result_shape_round_trips_bitwise(self, name):
        sent = _RESULTS[name]
        meta = result_to_meta(11, sent)
        body = encode_body(meta, labels=sent.labels, flagged=sent.flagged)
        got_meta, got_body = _cross(KIND_RESPONSE, meta, body)
        assert got_meta["id"] == 11
        got = result_from_meta(got_meta, decode_body(got_meta, got_body))
        assert (got.status, got.reason) == (sent.status, sent.reason)
        assert _bits(got.labels) == _bits(sent.labels)
        assert _bits(got.flagged) == _bits(sent.flagged)
        assert _bits(got.latency_s) == _bits(sent.latency_s)

    @pytest.mark.parametrize(
        "meta",
        [
            {"status": "ok", "arrays": []},
            {"status": "ok", "latency_s": "1.0", "arrays": [["labels", "<i8", [0]]]},
            {"status": "ok", "latency_s": True, "arrays": [["labels", "<i8", [0]]]},
            {"status": "ok", "latency_s": 10**400, "arrays": [["labels", "<i8", [0]]]},
        ],
        ids=["served-without-labels", "string-latency", "bool-latency", "huge-latency"],
    )
    def test_malformed_response_meta_is_bad_payload(self, meta):
        with pytest.raises(FrameError) as excinfo:
            result_from_meta(meta, decode_body(meta, b""))
        assert excinfo.value.code == "bad-payload"

    @pytest.mark.parametrize("requests", [0, 6], ids=["fresh", "served"])
    def test_telemetry_snapshot_survives_a_frame(self, tiny_correct, tiny_dcn, requests):
        _, x, _ = tiny_correct
        service = DCNService(tiny_dcn, max_batch=4)
        service.serve_batch([x[i : i + 1] for i in range(requests)])
        snapshot = service.telemetry_snapshot()
        got, _ = _cross(KIND_PONG, {"id": 5, "telemetry": snapshot})
        assert got["id"] == 5
        crossed = got["telemetry"]
        assert (
            ServeCounters.merged([crossed["counters"]]).as_dict()
            == ServeCounters.merged([snapshot["counters"]]).as_dict()
        )
        assert (
            LatencySketch.from_state(crossed["sketch"]).state()
            == LatencySketch.from_state(snapshot["sketch"]).state()
        )
        assert crossed["cost"] == snapshot["cost"]


class TestServerClient:
    def test_remote_labels_bitwise_identical_to_offline(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        with DCNService(tiny_dcn, max_batch=8) as service:
            with DCNServer(service) as server:
                with DCNClient(server.address) as client:
                    assert client.ping()
                    for i in range(4):
                        result = client.classify(x[i : i + 2])
                        assert result.status == "ok"
                        np.testing.assert_array_equal(
                            result.labels, tiny_dcn.classify(x[i : i + 2])
                        )
                        assert result.flagged is not None
                        assert np.isfinite(result.latency_s)
                    assert client.counters.ok == 4
                    assert client.counters.retries == 0
                snapshot = server.telemetry_snapshot()
        assert snapshot["counters"]["requests"] == 4
        assert snapshot["transport"]["requests"] == 4
        assert snapshot["transport"]["connections_total"] == 1

    def test_run_remote_replays_stream_offline_identical(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        stream = build_stream(x, None, StreamSpec(requests=12, max_size=3, seed=5))
        offline = run_offline(tiny_dcn, stream)
        with DCNService(tiny_dcn, max_batch=16) as service:
            with DCNServer(service) as server:
                clients = [DCNClient(server.address, backoff_seed=c) for c in range(3)]
                try:
                    remote = run_remote(clients, stream)
                finally:
                    for client in clients:
                        client.close()
        assert remote.statuses == ["ok"] * len(stream)
        for got, want in zip(remote.labels, offline.labels):
            np.testing.assert_array_equal(got, want)
        assert remote.latencies.count == len(stream)

    def test_oversized_request_rejected_structurally(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        with DCNService(tiny_dcn, max_batch=8) as service:
            with DCNServer(service, max_frame_bytes=512) as server:
                sock = socket.create_connection(server.address, timeout=5.0)
                sock.settimeout(5.0)
                meta = {"id": 0}
                write_frame(sock, KIND_REQUEST, meta, encode_body(meta, x=x[:8]))
                kind, meta, _ = read_frame(sock)
                assert kind == KIND_ERROR
                assert meta["code"] == "oversized"
                sock.close()
                assert server.frame_errors == 1

    def test_bad_body_is_protocol_error_not_retry(self, tiny_correct, tiny_dcn):
        with DCNService(tiny_dcn, max_batch=8) as service:
            with DCNServer(service) as server:
                sock = socket.create_connection(server.address, timeout=5.0)
                sock.settimeout(5.0)
                write_frame(sock, KIND_REQUEST, {"id": 0}, b"not an npz body")
                kind, meta, _ = read_frame(sock)
                assert kind == KIND_ERROR
                assert meta["code"] == "bad-payload"
                sock.close()

    @pytest.mark.parametrize("backend", ["service", "pool"])
    def test_wrong_row_shape_is_bad_payload_and_serving_continues(
        self, tiny_correct, tiny_dcn, backend, monkeypatch
    ):
        """Rows shaped unlike the network's input are refused at admission:
        the caller gets ``bad-payload``, and no dispatcher or worker thread
        dies taking later requests down with it."""
        _, x, _ = tiny_correct
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        make = DCNService if backend == "service" else functools.partial(ServePool, workers=1)
        with make(tiny_dcn, max_batch=8) as served:
            with DCNServer(served) as server:
                with DCNClient(server.address, deadline_s=5.0) as client:
                    with pytest.raises(RemoteProtocolError) as err:
                        client.classify(np.zeros((1, 5), dtype=np.float32))
                    assert err.value.code == "bad-payload"
                    result = client.classify(x[:3])
        assert result.status == "ok"
        np.testing.assert_array_equal(result.labels, tiny_dcn.classify(x[:3]))
        # The server closed the connection after its error frame; the
        # client reconnects instead of writing into the dead socket.
        assert client.counters.retries == 0
        assert client.counters.torn_replies == 0
        assert [(args.thread.name, args.exc_type) for args in errors] == []

    @pytest.mark.parametrize("backend", ["service", "pool"])
    def test_poisoned_row_sheds_as_error_without_retry(
        self, tiny_correct, tiny_dcn, backend, monkeypatch
    ):
        """A request whose own dispatch raises (a NaN row under the engine
        guard) is not overload: retrying it would only raise again."""
        _, x, _ = tiny_correct
        poisoned = x[:1].copy()
        poisoned[0, 0, 0, 0] = np.nan
        monkeypatch.setenv("REPRO_VERIFY", "1")  # forked pool workers inherit it
        make = DCNService if backend == "service" else functools.partial(ServePool, workers=1)
        with make(tiny_dcn, max_batch=8) as served:
            with DCNServer(served) as server:
                with DCNClient(server.address, deadline_s=5.0) as client:
                    bad = client.classify(poisoned)
                    counters = client.counters.as_dict()
                    good = client.classify(x[:3])
                error_shed = served.telemetry_snapshot()["counters"]["error_shed"]
        assert (bad.status, bad.reason, bad.labels) == ("shed", "error", None)
        assert counters["retries"] == 0
        assert counters["server_shed"] == 0
        assert counters["breaker_opened"] == 0
        assert error_shed == 1
        assert good.status == "ok"
        np.testing.assert_array_equal(good.labels, tiny_dcn.classify(x[:3]))

    def test_ping_pong(self, tiny_correct, tiny_dcn):
        with DCNService(tiny_dcn, max_batch=8) as service:
            with DCNServer(service) as server:
                sock = socket.create_connection(server.address, timeout=5.0)
                sock.settimeout(5.0)
                write_frame(sock, KIND_PING, {"id": 42})
                kind, meta, _ = read_frame(sock)
                from repro.serve.transport import KIND_PONG

                assert kind == KIND_PONG
                assert meta["id"] == 42
                sock.close()


    def test_finished_connection_threads_are_pruned(self, tiny_dcn):
        with DCNService(tiny_dcn, max_batch=8) as service:
            with DCNServer(service) as server:
                accept = server._threads[0]

                def ping_once():
                    sock = socket.create_connection(server.address, timeout=5.0)
                    write_frame(sock, KIND_PING, {"id": 0})
                    assert read_frame(sock)[1] == {"id": 0}
                    return sock

                for _ in range(200):
                    ping_once().close()
                for thread in list(server._threads):
                    if thread is not accept:
                        thread.join(timeout=5.0)
                live = ping_once()
                # The accept thread plus the one live connection's handler.
                assert len(server._threads) == 2
                live.close()

    def test_stop_on_idle_server_returns_promptly(self, tiny_dcn):
        # close() alone does not wake a thread blocked in accept(); unless
        # stop() wakes it, the join waits out its full 5 s timeout.
        with DCNService(tiny_dcn, max_batch=8) as service:
            server = DCNServer(service).start()
            start = time.perf_counter()
            server.stop()
            elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert not any(thread.is_alive() for thread in server._threads)


class TestDeadlinePropagation:
    def test_server_sheds_unmeetable_deadline_both_sides_agree(
        self, tiny_correct, tiny_dcn
    ):
        _, x, _ = tiny_correct
        # The dispatcher holds partial batches open for 1.2s, so a 0.3s
        # budget is un-meetable: the server's bounded ticket wait fires
        # and both ends record the same deadline shed.
        with DCNService(tiny_dcn, max_batch=8, max_delay=1.2) as service:
            with DCNServer(service) as server:
                with DCNClient(server.address, deadline_s=0.3, retries=2) as client:
                    t0 = time.monotonic()
                    result = client.classify(x[:1])
                    elapsed = time.monotonic() - t0
                assert result.status == "shed"
                assert result.reason == "deadline"
                assert elapsed < 1.0  # resolved at the deadline, not the dispatch
                assert client.counters.deadline_shed == 1
                assert client.counters.retries == 0  # dead budgets don't retry
                # The server's bounded ticket wait fires within ~1ms of the
                # client's read timeout; poll past the race.
                give_up = time.monotonic() + 2.0
                while server.counters.deadline_shed != 1 and time.monotonic() < give_up:
                    time.sleep(0.01)
                assert server.counters.deadline_shed == 1

    def test_spent_budget_sheds_before_any_work(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        with DCNService(tiny_dcn, max_batch=8) as service:
            with DCNServer(service) as server:
                sock = socket.create_connection(server.address, timeout=5.0)
                sock.settimeout(5.0)
                # A request whose remaining budget is already <= 0 must be
                # refused at admission, without touching the backend.
                meta = {"id": 1, "deadline_s": -0.5}
                write_frame(sock, KIND_REQUEST, meta, encode_body(meta, x=x[:1]))
                kind, meta, _ = read_frame(sock)
                assert kind == KIND_RESPONSE
                assert meta["status"] == "shed"
                assert meta["reason"] == "deadline"
                assert meta["retryable"] is False
                sock.close()
                assert server.counters.deadline_shed == 1
                assert service.counters.requests == 0

    @pytest.mark.parametrize(
        "raw", ['"abc"', "[1]", "true", "Infinity", "-Infinity", "1e400", "NaN"]
    )
    def test_malformed_deadline_is_bad_payload(self, tiny_correct, tiny_dcn, raw):
        _, x, _ = tiny_correct
        # Spliced in as raw JSON text: json.dumps cannot write 1e400.
        meta = {"id": 1, "deadline_s": "<deadline>"}
        body = encode_body(meta, x=x[:1])
        meta_bytes = json.dumps(meta).replace('"<deadline>"', raw).encode()
        header = _HEADER.pack(
            PROTOCOL_MAGIC, PROTOCOL_VERSION, KIND_REQUEST, len(meta_bytes), len(body)
        )
        with DCNService(tiny_dcn, max_batch=8) as service:
            with DCNServer(service) as server:
                sock = socket.create_connection(server.address, timeout=5.0)
                sock.settimeout(5.0)
                sock.sendall(header + meta_bytes + body)
                kind, reply, _ = read_frame(sock)
                assert kind == KIND_ERROR
                assert reply["code"] == "bad-payload"
                assert reply["id"] == 1
                assert read_frame(sock) is None  # then the server closes
                sock.close()
                assert server.frame_errors == 1
                assert service.counters.requests == 0

    def test_huge_finite_deadline_is_served(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        with DCNService(tiny_dcn, max_batch=8, max_delay=0.0) as service:
            with DCNServer(service) as server:
                sock = socket.create_connection(server.address, timeout=5.0)
                sock.settimeout(5.0)
                meta = {"id": 2, "deadline_s": 1e300}
                write_frame(sock, KIND_REQUEST, meta, encode_body(meta, x=x[:2]))
                kind, reply, body = read_frame(sock)
                sock.close()
        assert kind == KIND_RESPONSE
        assert reply["status"] == "ok"
        np.testing.assert_array_equal(decode_body(reply, body)["labels"], tiny_dcn.classify(x[:2]))


class TestTransportChaos:
    def test_conn_drop_retries_then_succeeds(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        chaos = TransportChaos(
            FaultPlan(faults=(Fault(kind="conn-drop", unit_index=0),))
        )
        with DCNService(tiny_dcn, max_batch=8) as service:
            with DCNServer(service, chaos=chaos) as server:
                with DCNClient(server.address, retries=2, backoff_base_s=0.01) as client:
                    result = client.classify(x[:2])
        assert result.status == "ok"
        np.testing.assert_array_equal(result.labels, tiny_dcn.classify(x[:2]))
        assert client.counters.retries == 1
        assert client.counters.torn_replies == 1
        assert [fault.kind for fault in chaos.fired] == ["conn-drop"]

    def test_torn_frame_reply_never_yields_partial_labels(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        chaos = TransportChaos(
            FaultPlan(faults=(Fault(kind="torn-frame", unit_index=0),))
        )
        with DCNService(tiny_dcn, max_batch=8) as service:
            with DCNServer(service, chaos=chaos) as server:
                with DCNClient(server.address, retries=2, backoff_base_s=0.01) as client:
                    result = client.classify(x[:2])
        assert result.status == "ok"
        np.testing.assert_array_equal(result.labels, tiny_dcn.classify(x[:2]))
        assert client.counters.torn_replies == 1
        assert client.counters.retries == 1

    def test_sock_stall_resolves_as_deadline_shed(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        chaos = TransportChaos(
            FaultPlan(faults=(Fault(kind="sock-stall", unit_index=0),)),
            stall_s=1.5,
        )
        with DCNService(tiny_dcn, max_batch=8) as service:
            with DCNServer(service, chaos=chaos) as server:
                with DCNClient(server.address, deadline_s=0.4, retries=2) as client:
                    t0 = time.monotonic()
                    result = client.classify(x[:1])
                    elapsed = time.monotonic() - t0
        assert result.status == "shed"
        assert result.reason == "deadline"
        assert elapsed < 1.2  # the stall did not hang the caller
        assert client.counters.deadline_shed == 1

    def test_retries_exhausted_resolves_shed_never_hangs(self, tiny_correct, tiny_dcn):
        _, x, _ = tiny_correct
        # Every reply dropped: the client must burn its bounded retries
        # and resolve shed — the no-hang guarantee under a dead endpoint.
        chaos = TransportChaos(
            FaultPlan(
                faults=tuple(Fault(kind="conn-drop", unit_index=i) for i in range(8))
            )
        )
        with DCNService(tiny_dcn, max_batch=8) as service:
            with DCNServer(service, chaos=chaos) as server:
                with DCNClient(
                    server.address, retries=2, backoff_base_s=0.01,
                    breaker_threshold=10,
                ) as client:
                    result = client.classify(x[:1])
        assert result.status == "shed"
        assert result.reason == "torn"
        assert client.counters.retries == 2
        assert client.counters.torn_replies == 3

    def test_reply_fault_matches_ordinal_only(self):
        chaos = TransportChaos(
            FaultPlan(faults=(Fault(kind="conn-drop", unit_index=3),))
        )
        assert chaos.reply_fault(0) is None
        fault = chaos.reply_fault(3)
        assert fault is not None and fault.kind == "conn-drop"

    def test_plan_generate_accepts_transport_kinds(self):
        plan = FaultPlan.generate(
            seed=7, num_units=10, kinds=("conn-drop", "torn-frame"), count=4
        )
        assert len(plan.faults) == 4
        assert all(f.kind in ("conn-drop", "torn-frame") for f in plan.faults)
        assert plan == FaultPlan.generate(
            seed=7, num_units=10, kinds=("conn-drop", "torn-frame"), count=4
        )

    def test_unknown_kind_still_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.generate(seed=0, num_units=4, kinds=("sock-melt",))
