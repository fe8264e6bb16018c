"""Online-serving benchmark: coalesced dispatch vs per-request classify.

Drives deterministic synthetic request streams (``repro.serve.loadgen``)
through two ends of the same defense:

* **offline** — the pre-serving status quo: each request dispatched alone
  via ``DCN.classify`` (its own engine call, its own detector forward,
  its own corrector vote).
* **coalesced** — ``DCNService`` in synchronous-window mode: requests
  coalesced into shape-bucketed dispatches, benign rows gated straight
  out, flagged rows fused into one cross-request corrector vote.

Served labels are asserted bitwise-identical to the offline baseline on
every workload — the per-input corrector noise streams make the fused
vote a pure function of ``(seed, row)``, so coalescing is a pure
performance transform.

Two workloads:

* ``gate`` (the headline) — single-example benign requests drawn from the
  detector-negative subset of the test set: the benign fast path that the
  paper's Sec. 5 asymmetry argument says dominates real traffic.  This
  isolates what the serving layer changes (dispatch, gating, plan reuse);
  the acceptance bar — **>= 2x requests/sec over per-request dispatch** —
  is enforced here.
* ``fraction sweep`` (0%, 5%, 10% adversarial) — the full defense
  including detector false positives and the corrector.  Corrector
  compute is *identical* in both paths (forced by bitwise equivalence:
  the same m-vote must be computed either way), so as the adversarial
  fraction grows both paths converge toward corrector-bound and the
  coalescing speedup decays toward 1x — the serving-side mirror of the
  paper's Table 6 runtime-vs-fraction axis.  Reported, not gated.
* ``overload sweep`` — arrival windows 4x the queue bound, served under
  depth-only admission vs SLO-aware admission (``slo_target_s`` derived
  from a calibration run, so the numbers are machine-relative).  The
  gated claims: with a latency budget of twice the calibrated p95 cost
  of a maximally-admitted window (``2 x max_queue`` rows — the deepest
  backlog the hard bound permits), SLO admission serves *deeper* than
  the depth policy (fewer sheds at equal load, bounded by the
  ``2 x max_queue`` backstop) while keeping served p95 inside the
  budget; and percentiles stay finite even with most of the stream
  shedding — the bug this PR fixes.  A tight-budget point (half a
  queue's worth of mean row cost) is reported un-gated to show the wait
  estimate itself binding: it sheds *more* than depth-only and pulls
  the tail down, which is what latency-governed admission is for.
* ``remote`` — the benign gate pool replayed over the framed
  loopback-TCP transport (``DCNServer`` forked into its own process +
  concurrent ``DCNClient`` fleet) against the *identical* in-process
  concurrent ticket path (same service config, same caller count, zero
  transport).  Labels must stay bitwise-identical to offline on both
  points.  Single-row requests report the worst-case per-request tax
  un-gated (on the tiny bench model the frame/socket cost dominates
  per-row compute, which it never would at production scale); the
  gated claim rides the ``max_batch``-row point (one full coalescing
  window per request), where the per-request tax amortises: remote
  req/s must stay **>= 0.7x** in-process.

Timing uses interleaved offline/coalesced pairs and takes the median of
per-pair ratios: per-request dispatch is many small Python-heavy calls
and is far noisier run-to-run than the few-big-kernels coalesced path, so
adjacent-in-time pairing cancels machine-state drift that would otherwise
dominate the comparison.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_serve_latency.py
    PYTHONPATH=src python benchmarks/bench_serve_latency.py --smoke

``--smoke`` shrinks the streams and pair counts for CI wiring and never
fails the bar.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from bench_common import bench_context, dataset_fingerprint, write_payload
from repro.serve import (
    DCNClient,
    DCNServer,
    DCNService,
    StreamSpec,
    build_stream,
    run_coalesced,
    run_offline,
    run_remote,
)

FRACTIONS = (0.0, 0.05, 0.10)
REMOTE_CLIENTS = 4
# The framed-TCP loopback path pays encode/decode plus a socket
# round-trip per request; the bar says that at the amortised
# (max_batch-row) point the tax costs at most 30% of the throughput of
# the identical in-process concurrent ticket path.
REMOTE_RATIO_BAR = 0.7


def _labels_equal(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.labels, b.labels))


def _measure(dcn, stream, pairs: int, max_batch: int, window: int) -> dict:
    """Interleaved offline/coalesced pairs -> median seconds and ratio."""
    make_service = lambda: DCNService(dcn, max_batch=max_batch, max_queue=4 * len(stream))
    # Warm both paths (plans compiled, memo steady-state) and pin equality.
    warm_off = run_offline(dcn, stream)
    warm_co = run_coalesced(make_service(), stream, window=window)
    assert _labels_equal(warm_off, warm_co), "served labels diverged from offline"

    offs, cos, ratios = [], [], []
    service = None
    for _ in range(pairs):
        off = run_offline(dcn, stream)
        service = make_service()
        co = run_coalesced(service, stream, window=window)
        assert _labels_equal(off, co), "served labels diverged from offline"
        offs.append(off)
        cos.append(co)
        ratios.append(off.seconds / co.seconds)

    off_seconds = statistics.median(r.seconds for r in offs)
    co_seconds = statistics.median(r.seconds for r in cos)
    co_latencies = cos[-1].latencies.summary()
    return {
        "requests": len(stream),
        "examples": int(sum(len(r.x) for r in stream)),
        "offline_seconds": off_seconds,
        "serve_seconds": co_seconds,
        "offline_req_per_sec": len(stream) / off_seconds,
        "serve_req_per_sec": len(stream) / co_seconds,
        "speedup": statistics.median(ratios),
        "serve_p50_ms": co_latencies["p50_ms"],
        "serve_p95_ms": co_latencies["p95_ms"],
        "flagged": service.counters.flagged,
        "plan_hits": service.counters.plan_hits,
        "plan_misses": service.counters.plan_misses,
        "labels_equal": True,  # asserted above, recorded for the payload
    }


def _remote_server_main(dcn, conn, max_batch: int, max_queue: int) -> None:
    """Forked child: serve the fork-inherited DCN until told to stop."""
    with DCNService(dcn, max_batch=max_batch, max_queue=max_queue, max_delay=0.0) as service:
        with DCNServer(service) as server:
            conn.send(server.address)
            try:
                conn.recv()  # blocks until the parent says stop
            except (EOFError, OSError):
                pass


def _measure_remote_stream(dcn, stream, pairs: int, max_batch: int) -> dict:
    """One stream through both the in-process and loopback-TCP paths.

    Both sides run ``REMOTE_CLIENTS`` concurrent callers through the
    *same* threaded :class:`DCNService` config (``max_delay=0`` so the
    dispatcher never pads latency):

    * **in-process** — the service object itself is the "client" fleet
      (``DCNService.classify`` is submit + wait), so the run pays
      admission, coalescing and dispatch but zero transport;
    * **remote** — the deployment shape: a :class:`DCNServer` forked
      into its own process (plans fork-inherited warm), ``DCNClient``
      fleets replaying over 127.0.0.1.  Each request adds frame
      encode/decode and a socket round trip, overlapped across the two
      processes.

    The service work is identical on both sides, so the req/s ratio
    *is* the transport tax.  Labels are asserted bitwise-identical to
    offline ``DCN.classify`` on both sides.
    """
    offline_labels = [dcn.classify(request.x) for request in stream]

    def checked(stats, what: str):
        assert stats.statuses == ["ok"] * len(stream), f"{what} run shed on loopback"
        assert all(
            np.array_equal(got, want)
            for got, want in zip(stats.labels, offline_labels)
        ), f"{what} labels diverged from offline"
        return stats

    def inprocess_run():
        service = DCNService(
            dcn, max_batch=max_batch, max_queue=4 * len(stream), max_delay=0.0
        )
        with service:
            return checked(run_remote([service] * REMOTE_CLIENTS, stream), "in-process")

    def remote_run():
        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=_remote_server_main,
            args=(dcn, child, max_batch, 4 * len(stream)),
            daemon=True,
        )
        proc.start()
        child.close()
        address = tuple(parent.recv())
        clients = [
            DCNClient(address, backoff_seed=c) for c in range(REMOTE_CLIENTS)
        ]
        try:
            return checked(run_remote(clients, stream), "remote")
        finally:
            for client in clients:
                client.close()
            try:
                parent.send("stop")
            except (OSError, BrokenPipeError):
                pass
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - hung child cleanup
                proc.kill()
                proc.join(timeout=5.0)
            parent.close()

    # Warm both paths (plans compiled, socket buffers steady-state), then
    # time interleaved pairs — same drift-cancelling idiom as _measure.
    inprocess_run()
    remote_run()
    inp_runs, rem_runs, ratios = [], [], []
    for _ in range(pairs):
        inp = inprocess_run()
        rem = remote_run()
        inp_runs.append(inp)
        rem_runs.append(rem)
        ratios.append(inp.seconds / rem.seconds)

    rows = int(sum(len(r.x) for r in stream))
    inp_seconds = statistics.median(r.seconds for r in inp_runs)
    rem_seconds = statistics.median(r.seconds for r in rem_runs)
    latencies = rem_runs[-1].latencies.summary()
    return {
        "requests": len(stream),
        "rows_per_request": rows // len(stream),
        "inprocess_seconds": inp_seconds,
        "remote_seconds": rem_seconds,
        "inprocess_req_per_sec": len(stream) / inp_seconds,
        "remote_req_per_sec": len(stream) / rem_seconds,
        "remote_rows_per_sec": rows / rem_seconds,
        "ratio_vs_inprocess": statistics.median(ratios),
        "remote_p50_ms": latencies["p50_ms"],
        "remote_p95_ms": latencies["p95_ms"],
        "labels_equal": True,  # asserted above, recorded for the payload
    }


def _measure_remote(dcn, pool, requests: int, pairs: int, max_batch: int,
                    seed: int) -> dict:
    """Two remote-overhead points on the benign gate pool.

    The frame/socket tax is per *request*, so it shows up hardest on
    single-row requests and amortises with request size:

    * ``single_row`` — the worst case; reported, not gated, because on
      the deliberately tiny bench model the per-request tax dominates
      per-row compute in a way it never would at production scale.
    * ``batched`` — ``max_batch`` rows per request (one full coalescing
      window each): the gated claim is that with any realistic amount
      of per-request work the wire keeps >= ``REMOTE_RATIO_BAR`` of
      in-process throughput.
    """
    batch_rows = max_batch
    out: dict = {"clients": REMOTE_CLIENTS, "batch_rows": batch_rows}
    for key, size in (("single_row", 1), ("batched", batch_rows)):
        spec = StreamSpec(
            requests=requests, adv_fraction=0.0, min_size=size, max_size=size,
            seed=seed,
        )
        out[key] = _measure_remote_stream(
            dcn, build_stream(pool, None, spec), pairs, max_batch
        )
    return out


def _overloaded_run(dcn, stream, max_batch: int, max_queue: int, window: int,
                    slo_target_s: float | None) -> dict:
    """One policy under overload: warm one window, then measure the stream."""
    service = DCNService(
        dcn, max_batch=max_batch, max_queue=max_queue, overload="shed",
        slo_target_s=slo_target_s,
    )
    run_coalesced(service, stream[:window], window=window)  # warm plans + cost model
    before = service.counters.snapshot()
    stats = run_coalesced(service, stream, window=window)
    for request, labels, status in zip(stream, stats.labels, stats.statuses):
        if status != "shed":
            assert np.array_equal(labels, dcn.classify(request.x)), (
                "served labels diverged from offline under overload"
            )
    latencies = stats.latencies.summary()
    return {
        "served": stats.served,
        "shed": stats.shed,
        "shed_rate": stats.shed / len(stream),
        "slo_shed": int(service.counters.slo_shed - before.slo_shed),
        "p50_ms": latencies["p50_ms"],
        "p95_ms": latencies["p95_ms"],
    }


def _overload_sweep(dcn, stream, max_batch: int, max_queue: int) -> dict:
    """Depth-only vs SLO-aware admission on the same overloaded stream."""
    # Calibrate with a generous queue (nothing sheds) at a window of
    # exactly ``2 x max_queue`` rows -- the deepest backlog the hard
    # bound ever admits -- so the calibration latencies sample the same
    # window-cost distribution the admitted tail will see.  The mean
    # per-row cost alone would understate the tail: a window where
    # several flagged rows land together pays the corrector vote many
    # times over, and p95 is exactly those windows.
    calibration = DCNService(dcn, max_batch=max_batch, max_queue=4 * len(stream))
    cal_stats = run_coalesced(calibration, stream, window=2 * max_queue)
    assert calibration.counters.shed == 0
    row_cost = calibration.counters.seconds / max(1, calibration.counters.examples)
    full_window_p95 = cal_stats.latencies.percentile(95)
    loose_target = 2.0 * max(full_window_p95, 1e-9)
    tight_target = 0.5 * max_queue * max(row_cost, 1e-9)

    window = 4 * max_queue  # every arrival window oversubscribes the queue
    depth = _overloaded_run(dcn, stream, max_batch, max_queue, window, None)
    loose = _overloaded_run(dcn, stream, max_batch, max_queue, window, loose_target)
    tight = _overloaded_run(dcn, stream, max_batch, max_queue, window, tight_target)
    finite = all(
        np.isfinite(block[key])
        for block in (depth, loose, tight)
        for key in ("p50_ms", "p95_ms")
    )
    return {
        "window": window,
        "max_queue": max_queue,
        "row_cost_ms": row_cost * 1e3,
        "full_window_p95_ms": full_window_p95 * 1e3,
        "slo_target_ms": loose_target * 1e3,
        "tight_target_ms": tight_target * 1e3,
        "depth_only": depth,
        "slo": loose,
        "slo_tight": tight,
        "percentiles_finite": finite,
        "slo_sheds_fewer": loose["shed"] < depth["shed"],
        "slo_p95_within_target": bool(loose["p95_ms"] <= loose_target * 1e3),
        "tight_estimate_binds": tight["slo_shed"] > 0,
    }


def run(requests: int, gate_requests: int, pairs: int, max_batch: int,
        window: int, seed: int) -> dict:
    from repro.eval import build_context, scale_config

    ctx = build_context("mnist-fast", scale_config("fast"))
    dcn = ctx.dcn
    benign = ctx.dataset.x_test
    adv, _, _ = ctx.pool("cw-l2").successful()

    # The benign fast path: rows the detector waves through.  Detector
    # false positives route into the corrector, whose compute is part of
    # the defense (and identical in both paths), not of the serving layer
    # this bar measures; the sweep below includes them.
    logits = dcn.network.engine.logits(benign, memo=False)
    gate_pool = benign[~dcn.detector.is_adversarial(logits)]

    results: dict = {}
    gate_spec = StreamSpec(
        requests=gate_requests, adv_fraction=0.0, min_size=1, max_size=1, seed=seed
    )
    results["gate"] = _measure(
        dcn, build_stream(gate_pool, None, gate_spec), pairs, max_batch, window
    )

    for fraction in FRACTIONS:
        spec = StreamSpec(
            requests=requests, adv_fraction=fraction, min_size=1, max_size=1, seed=seed
        )
        stream = build_stream(benign, adv, spec)
        key = f"frac_{int(round(fraction * 100)):02d}"
        results[key] = _measure(dcn, stream, pairs, max_batch, window)

    overload_spec = StreamSpec(
        requests=requests, adv_fraction=0.05, min_size=1, max_size=1, seed=seed + 1
    )
    results["overload"] = _overload_sweep(
        dcn, build_stream(benign, adv, overload_spec), max_batch, max_queue=8
    )

    # Remote overhead: the benign gate pool served over loopback TCP.
    results["remote"] = _measure_remote(
        dcn, gate_pool, requests, pairs, max_batch, seed + 2
    )

    gate_speedup = results["gate"]["speedup"]
    overload = results["overload"]
    equal_everywhere = all(
        block.get("labels_equal", True) for block in results.values()
    )
    meets_slo_bar = bool(
        overload["slo_sheds_fewer"]
        and overload["slo_p95_within_target"]
        and overload["percentiles_finite"]
    )
    remote = results["remote"]
    remote_ratio = remote["batched"]["ratio_vs_inprocess"]
    meets_remote_bar = bool(
        remote_ratio >= REMOTE_RATIO_BAR
        and remote["batched"]["labels_equal"]
        and remote["single_row"]["labels_equal"]
    )
    return {
        "context": bench_context(
            dataset="mnist-fast",
            requests=requests,
            gate_requests=gate_requests,
            pairs=pairs,
            max_batch=max_batch,
            window=window,
            seed=seed,
            fractions=list(FRACTIONS),
            benign_fingerprint=dataset_fingerprint(benign),
            adv_fingerprint=dataset_fingerprint(adv),
        ),
        "results": results,
        "gate_speedup": gate_speedup,
        "remote_ratio": remote_ratio,
        "meets_2x_bar": bool(gate_speedup >= 2.0 and equal_everywhere),
        "meets_slo_bar": meets_slo_bar,
        "meets_remote_bar": meets_remote_bar,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=320, help="requests per sweep stream")
    parser.add_argument("--gate-requests", type=int, default=640, help="requests in the gate stream")
    parser.add_argument("--pairs", type=int, default=5, help="interleaved timing pairs per workload")
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--window", type=int, default=64, help="simultaneous arrivals per serving window")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=None, help="JSON path override")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny streams, no JSON write unless --out, never fails the bar (CI wiring)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.requests, args.gate_requests, args.pairs = 96, 128, 2
    if min(args.requests, args.gate_requests, args.pairs, args.max_batch, args.window) < 1:
        parser.error("--requests/--gate-requests/--pairs/--max-batch/--window must be >= 1")

    payload = run(
        args.requests, args.gate_requests, args.pairs, args.max_batch,
        args.window, args.seed,
    )
    print(json.dumps(payload, indent=2))
    if args.out is not None or not args.smoke:
        path = write_payload("serve_latency", payload, out=args.out)
        print(f"wrote {path}", file=sys.stderr)
    if args.smoke:
        return 0
    bars = ("meets_2x_bar", "meets_slo_bar", "meets_remote_bar")
    return 0 if all(payload[bar] for bar in bars) else 1


if __name__ == "__main__":
    raise SystemExit(main())
