#!/usr/bin/env python
"""Remote serving smoke: framed transport, chaos retries, server death.

Forks a real :class:`~repro.serve.DCNServer` into a child process and
drives it over loopback TCP with :class:`~repro.serve.DCNClient` on the
cached ``mnist-fast`` artifacts:

1. **remote equivalence** — a deterministic stream replayed through
   concurrent remote clients must serve every request with labels
   bitwise-identical to offline ``DCN.classify``;
2. **malformed request** — rows shaped unlike the network's input must
   come back as a ``bad-payload`` protocol error, and the same stream
   served right after must still match ``DCN.classify`` bitwise;
3. **transport chaos** — with seeded reply faults (connection drop,
   torn half-frame) injected server-side, the clients must retry the
   idempotent-safe failures and still converge on identical labels;
4. **deadline agreement** — a budget the server cannot meet must come
   back as a ``shed``/``reason="deadline"`` result on the client, fast;
5. **server SIGKILL** — killing the server process mid-conversation
   must resolve every outstanding and subsequent call (shed or breaker
   fast-fail), never hang a caller.

Exit status 0 = all checks passed.
"""

import multiprocessing
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.eval import build_context, scale_config  # noqa: E402
from repro.runner.faultinject import Fault, FaultPlan, TransportChaos  # noqa: E402
from repro.serve import (  # noqa: E402
    DCNClient,
    RemoteProtocolError,
    StreamSpec,
    build_stream,
    run_remote,
)


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def _server_main(dcn, conn, chaos, max_delay):
    """Child process: serve the fork-inherited DCN until told to stop."""
    from repro.serve import DCNServer, DCNService

    with DCNService(dcn, max_batch=32, max_queue=256, max_delay=max_delay) as service:
        with DCNServer(service, chaos=chaos) as server:
            conn.send(server.address)
            try:
                conn.recv()  # blocks until the parent says stop (or dies)
            except (EOFError, OSError):
                pass


def start_server(dcn, chaos=None, max_delay=0.002):
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(
        target=_server_main, args=(dcn, child, chaos, max_delay), daemon=True
    )
    proc.start()
    child.close()
    address = tuple(parent.recv())
    return proc, parent, address


def stop_server(proc, conn):
    try:
        conn.send("stop")
    except (OSError, BrokenPipeError):
        pass
    proc.join(timeout=10.0)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=5.0)
    conn.close()


def main() -> int:
    ctx = build_context("mnist-fast", scale_config("fast"))
    dcn = ctx.dcn
    adv, _, _ = ctx.pool("cw-l2").successful()
    stream = build_stream(
        ctx.dataset.x_test,
        adv,
        StreamSpec(requests=24, adv_fraction=0.10, min_size=1, max_size=3, seed=13),
    )
    offline = [dcn.classify(request.x) for request in stream]

    # 1. remote equivalence over a clean server
    proc, conn, address = start_server(dcn)
    clients = [DCNClient(address, backoff_seed=c) for c in range(3)]
    try:
        stats = run_remote(clients, stream)
    finally:
        for client in clients:
            client.close()
    check(stats.statuses == ["ok"] * len(stream), "remote: all requests served")
    check(
        all(np.array_equal(got, want) for got, want in zip(stats.labels, offline)),
        "remote: labels bitwise-identical to offline DCN.classify",
    )
    stop_server(proc, conn)

    # 2. malformed request: refused at admission, and serving carries on
    proc, conn, address = start_server(dcn)
    client = DCNClient(address, deadline_s=5.0)
    try:
        code = None
        try:
            client.classify(np.zeros((1, 5), dtype=np.float32))
        except RemoteProtocolError as exc:
            code = exc.code
        check(code == "bad-payload", "malformed: wrong row shape refused as bad-payload")
        stats = run_remote([client], stream)
    finally:
        client.close()
    check(
        stats.statuses == ["ok"] * len(stream)
        and all(np.array_equal(got, want) for got, want in zip(stats.labels, offline)),
        "malformed: the stream after it is served bitwise-identical to offline",
    )
    stop_server(proc, conn)

    # 3. transport chaos: dropped and torn replies retried to identical labels
    chaos = TransportChaos(
        FaultPlan(
            faults=(
                Fault(kind="conn-drop", unit_index=0),
                Fault(kind="torn-frame", unit_index=3),
            )
        )
    )
    proc, conn, address = start_server(dcn, chaos=chaos)
    clients = [
        DCNClient(address, retries=2, backoff_base_s=0.01, backoff_seed=c)
        for c in range(2)
    ]
    try:
        stats = run_remote(clients, stream)
    finally:
        for client in clients:
            client.close()
    check(stats.statuses == ["ok"] * len(stream), "chaos: every faulted call resolved ok")
    check(
        all(np.array_equal(got, want) for got, want in zip(stats.labels, offline)),
        "chaos: labels identical despite dropped and torn replies",
    )
    retries = sum(c.counters.retries for c in clients)
    torn = sum(c.counters.torn_replies for c in clients)
    check(retries >= 2 and torn >= 2, "chaos: both faults cost exactly a retry each")
    stop_server(proc, conn)

    # 4. deadline agreement: an un-meetable budget sheds as "deadline", fast
    proc, conn, address = start_server(dcn, max_delay=1.5)
    with DCNClient(address, deadline_s=0.3, retries=2) as client:
        t0 = time.monotonic()
        result = client.classify(stream[0].x)
        elapsed = time.monotonic() - t0
    check(
        result.status == "shed" and result.reason == "deadline" and elapsed < 1.2,
        "deadline: un-meetable budget resolves as deadline shed at the deadline",
    )
    stop_server(proc, conn)

    # 5. server SIGKILL mid-conversation: calls resolve, breaker fast-fails
    proc, conn, address = start_server(dcn)
    client = DCNClient(
        address, deadline_s=5.0, retries=1, backoff_base_s=0.01,
        breaker_threshold=1, breaker_reset_s=30.0,
    )
    check(client.classify(stream[0].x).status == "ok", "sigkill: server healthy first")
    proc.kill()
    proc.join(timeout=5.0)
    t0 = time.monotonic()
    result = client.classify(stream[1].x)
    elapsed = time.monotonic() - t0
    check(
        result.status == "shed" and elapsed < 5.0,
        "sigkill: in-flight call resolves shed, never hangs",
    )
    t0 = time.monotonic()
    fast = client.classify(stream[2].x)
    elapsed = time.monotonic() - t0
    check(
        fast.status == "shed" and fast.reason == "breaker" and elapsed < 0.5,
        "sigkill: open breaker fast-fails follow-up calls",
    )
    client.close()
    conn.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
