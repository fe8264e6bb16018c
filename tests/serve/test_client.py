"""DCNClient fault tolerance: circuit breaker, deterministic backoff, errors.

These tests drive the failure machinery without a live DCN where they
can: a refused port exercises connect failures, a scripted fake server
exercises protocol violations, and an injectable clock walks the breaker
through closed → open → half-open → closed without sleeping.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.serve import CircuitBreaker, DCNClient, RemoteProtocolError
from repro.serve.transport import (
    KIND_PONG,
    KIND_REQUEST,
    KIND_RESPONSE,
    _HEADER,
    encode_body,
    read_frame,
    write_frame,
)


def _dead_address():
    """An address nothing listens on (bind, learn the port, close)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()[:2]
    probe.close()
    return address


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(threshold=3, reset_s=1.0, clock=clock)
        for _ in range(2):
            assert breaker.record_failure() is False
            assert breaker.state == "closed"
        assert breaker.record_failure() is True
        assert breaker.state == "open"
        admitted, probe = breaker.allow()
        assert (admitted, probe) == (False, False)

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() is False  # streak starts over
        assert breaker.state == "closed"

    def test_half_open_allows_exactly_one_probe(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(threshold=1, reset_s=1.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.now += 1.5  # past reset_s: next call is the probe
        assert breaker.allow() == (True, True)
        assert breaker.state == "half-open"
        # A second concurrent call must NOT slip through beside the probe.
        assert breaker.allow() == (False, False)

    def test_probe_success_closes_probe_failure_reopens(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(threshold=1, reset_s=1.0, clock=clock)
        breaker.record_failure()
        clock.now += 1.5
        assert breaker.allow() == (True, True)
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow() == (True, False)
        # Round two: the probe fails and the circuit re-opens immediately.
        breaker.record_failure()
        clock.now += 1.5
        assert breaker.allow() == (True, True)
        assert breaker.record_failure() is True
        assert breaker.state == "open"
        assert breaker.allow() == (False, False)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_s=0.0)


class TestRetriesAndBackoff:
    def test_connect_failure_resolves_shed_after_bounded_retries(self):
        sleeps: list[float] = []
        client = DCNClient(
            _dead_address(), retries=3, backoff_base_s=0.01,
            breaker_threshold=100, sleep=sleeps.append,
        )
        result = client.classify(np.zeros((1, 1, 6, 6), dtype=np.float32))
        assert result.status == "shed"
        assert result.reason == "unavailable"
        assert client.counters.connect_failures == 4  # 1 try + 3 retries
        assert client.counters.retries == 3
        assert len(sleeps) == 3

    def test_backoff_schedule_is_seeded_and_deterministic(self):
        def schedule(seed):
            sleeps: list[float] = []
            client = DCNClient(
                _dead_address(), retries=4, backoff_base_s=0.01,
                backoff_max_s=0.05, backoff_seed=seed,
                breaker_threshold=100, sleep=sleeps.append,
            )
            client.classify(np.zeros((1, 1, 6, 6), dtype=np.float32))
            return sleeps

        first, second = schedule(7), schedule(7)
        assert first == second  # replayable byte for byte
        assert schedule(8) != first  # and actually seed-dependent
        # Exponential envelope with jitter in [0.5, 1.5) x the base curve.
        for attempt, delay in enumerate(first):
            envelope = min(0.05, 0.01 * 2**attempt)
            assert 0.5 * envelope <= delay < 1.5 * envelope

    def test_breaker_opens_then_fast_fails_without_touching_network(self):
        client = DCNClient(
            _dead_address(), retries=0, breaker_threshold=2,
            breaker_reset_s=60.0, sleep=lambda s: None,
        )
        x = np.zeros((1, 1, 6, 6), dtype=np.float32)
        assert client.classify(x).reason == "unavailable"
        assert client.classify(x).reason == "unavailable"
        assert client.counters.breaker_opened == 1
        # Circuit open: calls short-circuit as shed/breaker with zero
        # connect attempts.
        before = client.counters.connect_failures
        result = client.classify(x)
        assert result.status == "shed"
        assert result.reason == "breaker"
        assert client.counters.connect_failures == before
        assert client.counters.breaker_fast_fail == 1

    def test_breaker_half_open_probe_recovers_when_server_returns(self, tiny_correct):
        """closed -> open -> half-open -> closed against a real socket."""
        from repro.core import DCN, Corrector
        from repro.serve import DCNServer, DCNService

        network, x, _ = tiny_correct

        class _Detector:
            def __init__(self, net):
                self.network = net

            def is_adversarial(self, logits):
                return np.zeros(len(np.asarray(logits)), dtype=bool)

        dcn = DCN(
            network, _Detector(network),
            Corrector(network, radius=0.1, samples=5, seed=0),
        )
        address = _dead_address()
        client = DCNClient(
            address, retries=0, breaker_threshold=1, breaker_reset_s=0.1,
            sleep=lambda s: None,
        )
        assert client.classify(x[:1]).reason == "unavailable"
        assert client.breaker.state == "open"
        # The endpoint comes back on the same port; after reset_s the
        # next call is the half-open probe and re-closes the circuit.
        with DCNService(dcn, max_batch=8) as service:
            with DCNServer(service, host=address[0], port=address[1]) as _server:
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    result = client.classify(x[:1])
                    if result.status == "ok":
                        break
                assert result.status == "ok"
        assert client.breaker.state == "closed"
        assert client.counters.breaker_probes >= 1
        assert client.counters.breaker_closed >= 1
        client.close()


class _ScriptedServer:
    """Accept one connection and answer with scripted bytes."""

    def __init__(self, respond):
        self._respond = respond
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        conn, _ = self._listener.accept()
        conn.settimeout(5.0)
        try:
            read_frame(conn)  # consume the request
            self._respond(conn)
        except Exception:
            pass
        finally:
            conn.close()

    def close(self):
        self._listener.close()
        self._thread.join(timeout=5.0)


class TestProtocolViolations:
    def test_bad_magic_reply_raises_structured_error(self):
        def respond(conn):
            conn.sendall(_HEADER.pack(b"EVIL", 1, KIND_RESPONSE, 0, 0))

        server = _ScriptedServer(respond)
        client = DCNClient(server.address, retries=2, sleep=lambda s: None)
        with pytest.raises(RemoteProtocolError) as excinfo:
            client.classify(np.zeros((1, 1, 6, 6), dtype=np.float32))
        assert excinfo.value.code == "bad-magic"
        assert client.counters.protocol_errors == 1
        assert client.counters.retries == 0  # violations are terminal
        client.close()
        server.close()

    def test_mismatched_reply_id_is_protocol_error(self):
        def respond(conn):
            meta = {"id": 999, "status": "ok", "retryable": False}
            body = encode_body(meta, labels=np.zeros(1, dtype=np.int64))
            write_frame(conn, KIND_RESPONSE, meta, body)

        server = _ScriptedServer(respond)
        client = DCNClient(server.address, retries=0, sleep=lambda s: None)
        with pytest.raises(RemoteProtocolError) as excinfo:
            client.classify(np.zeros((1, 1, 6, 6), dtype=np.float32))
        assert excinfo.value.code == "bad-payload"
        client.close()
        server.close()

    def test_unexpected_reply_kind_is_protocol_error(self):
        def respond(conn):
            write_frame(conn, KIND_PONG, {"id": 0})

        server = _ScriptedServer(respond)
        client = DCNClient(server.address, retries=0, sleep=lambda s: None)
        with pytest.raises(RemoteProtocolError) as excinfo:
            client.classify(np.zeros((1, 1, 6, 6), dtype=np.float32))
        assert excinfo.value.code == "bad-kind"
        client.close()
        server.close()


class TestClientTelemetry:
    def test_snapshot_shape(self):
        client = DCNClient(_dead_address(), retries=0, sleep=lambda s: None)
        client.classify(np.zeros((1, 1, 6, 6), dtype=np.float32))
        snapshot = client.telemetry_snapshot()
        assert snapshot["counters"]["requests"] == 1
        assert snapshot["counters"]["shed"] == 1
        assert snapshot["breaker"]["state"] in ("closed", "open", "half-open")
        assert snapshot["endpoint"].startswith("127.0.0.1:")
        client.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            DCNClient(("127.0.0.1", 1), deadline_s=0.0)
        with pytest.raises(ValueError):
            DCNClient(("127.0.0.1", 1), retries=-1)
        with pytest.raises(ValueError):
            DCNClient(("127.0.0.1", 1), backoff_base_s=0.5, backoff_max_s=0.1)
