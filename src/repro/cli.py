"""Command-line interface: ``python -m repro <command>``.

Commands
--------

* ``info`` — list available datasets, models, attacks and scales.
* ``train`` — train (or load) the standard model for a dataset.
* ``attack`` — run a named attack against a dataset's model.
* ``evaluate`` — the paper's defense comparison on one dataset.
* ``table`` — regenerate a paper table (2, 3, 4, 5 or 6).
* ``figure`` — regenerate a paper figure (1 or 4).
* ``run`` — journaled, resumable experiment run (``--resume`` replays the
  ledger, so a killed run picks up at the first unfinished work unit;
  ``--workers N`` shards the plan across N lease-based worker processes
  coordinating through the same ledger, with byte-identical tables).
* ``bench`` — diff two persisted ``BENCH_*.json`` results and classify
  per-case regressions/improvements against a relative threshold.
* ``verify`` — differential verification of the fused engines vs autograd.
* ``serve`` — start the online service and push a synthetic request
  stream through it (micro-batching, detector gating, fused correction),
  printing latency percentiles and serve counters.  ``--slo-target-ms``
  switches admission from queue depth to estimated wait,
  ``--workers N`` shards requests across N forked serving workers with
  lease-based liveness, and ``--telemetry PATH`` journals streaming
  counter/percentile snapshots as JSONL.
* ``loadgen`` — deterministic offline-vs-coalesced comparison at a given
  adversarial fraction, asserting served labels match ``DCN.classify``
  (``--connect`` replays the stream against a live ``serve --listen``).

All heavy artifacts go through the ``.artifacts`` cache, so repeated
invocations are fast.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'DCN: Detector-Corrector Network' (DSN 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list datasets, models, attacks, scales")

    train = sub.add_parser("train", help="train/load the standard model")
    train.add_argument("--dataset", default="mnist-fast")

    attack = sub.add_parser("attack", help="run an attack against a model")
    attack.add_argument("--dataset", default="mnist-fast")
    attack.add_argument("--attack", default="cw-l2", dest="attack_name")
    attack.add_argument("--seeds", type=int, default=5)
    attack.add_argument("--untargeted", action="store_true")
    attack.add_argument("--seed", type=int, default=0)

    evaluate = sub.add_parser("evaluate", help="defense comparison (Tables 3-5 in miniature)")
    evaluate.add_argument("--dataset", default=None, help="defaults to the scale's MNIST substitute")

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("which", type=int, choices=(2, 3, 4, 5, 6))

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("which", type=int, choices=(1, 4))

    run = sub.add_parser("run", help="journaled, resumable experiment run")
    run.add_argument(
        "--only",
        action="append",
        choices=("table2", "table3", "table45", "table6", "fig4"),
        help="restrict to specific experiments (repeatable; default: all)",
    )
    run.add_argument("--dataset", default=None, help="defaults to the scale's MNIST substitute")
    run.add_argument("--ledger", default=None, help="ledger path (default .artifacts/run-<scale>.jsonl)")
    run.add_argument("--resume", action="store_true", help="replay the ledger instead of starting fresh")
    run.add_argument(
        "--chunk", type=_positive_int, default=6, help="benign seeds per table 4/5 eval unit"
    )
    run.add_argument("--retry-failed", action="store_true", help="re-execute ledgered failed units")
    run.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes leasing units from the shared ledger (1: in-process)",
    )
    run.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="seconds before a dead worker's lease expires and its unit is reclaimed",
    )

    bench = sub.add_parser("bench", help="compare persisted benchmark results")
    bench.add_argument(
        "--compare",
        metavar="BASE",
        required=True,
        help="baseline BENCH_<name>.json to diff against",
    )
    bench.add_argument(
        "current",
        nargs="?",
        default=None,
        help="current BENCH_<name>.json (default: the repo-root file with BASE's name)",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative change classified as regression/improvement (default 0.10)",
    )
    bench.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (CI perf-smoke mode)",
    )

    rep = sub.add_parser("report", help="run all experiments, emit a markdown report")
    rep.add_argument("--output", default=None, help="write to a file instead of stdout")
    rep.add_argument("--light", action="store_true", help="only Table 2 and Fig. 4")

    verify = sub.add_parser(
        "verify", help="differential verification of the fused engines vs autograd"
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--cases", type=_positive_int, default=25, help="randomized cases to run")
    verify.add_argument(
        "--dtype",
        choices=("float32", "float64", "both"),
        default="both",
        help="engine compute dtype(s) to cross-check",
    )

    serve = sub.add_parser("serve", help="run the threaded online service on a synthetic stream")
    serve.add_argument("--dataset", default=None, help="defaults to the scale's MNIST substitute")
    serve.add_argument("--requests", type=_positive_int, default=256)
    serve.add_argument("--adv-fraction", type=float, default=0.05)
    serve.add_argument("--min-size", type=_positive_int, default=1, help="smallest request, in rows")
    serve.add_argument("--max-size", type=int, default=4, help="largest request, in rows")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--max-batch", type=_positive_int, default=64, help="row budget per coalesced dispatch"
    )
    serve.add_argument(
        "--max-queue", type=_positive_int, default=128, help="admission bound, in requests"
    )
    serve.add_argument(
        "--max-delay", type=float, default=0.002,
        help="seconds the dispatcher holds a partial batch open",
    )
    serve.add_argument("--overload", choices=("shed", "degrade"), default="shed")
    serve.add_argument(
        "--burst", type=_positive_int, default=32, help="requests submitted per arrival burst"
    )
    serve.add_argument(
        "--slo-target-ms",
        type=float,
        default=None,
        help="admit on estimated queued wait vs this budget (default: depth-only admission)",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="forked serving workers behind the sharding front end (1: in-process service)",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=5.0,
        help="seconds without a message from a serving worker before it counts as dead",
    )
    serve.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="journal periodic counter/percentile snapshots to this JSONL file",
    )
    serve.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="serve remote clients over the framed TCP transport instead of "
        "a synthetic stream (port 0 picks a free port; Ctrl-C stops)",
    )
    serve.add_argument(
        "--default-deadline-ms",
        type=float,
        default=30_000.0,
        help="server-side budget for requests that carry no deadline (with --listen)",
    )
    serve.add_argument(
        "--max-restarts",
        type=int,
        default=0,
        help="respawn budget per worker slot within --restart-window (0: no respawn)",
    )
    serve.add_argument(
        "--restart-window",
        type=float,
        default=30.0,
        help="sliding window, in seconds, for the --max-restarts budget",
    )

    loadgen = sub.add_parser(
        "loadgen", help="offline vs coalesced serving comparison on a deterministic stream"
    )
    loadgen.add_argument("--dataset", default=None, help="defaults to the scale's MNIST substitute")
    loadgen.add_argument("--requests", type=_positive_int, default=192)
    loadgen.add_argument("--adv-fraction", type=float, default=0.05)
    loadgen.add_argument("--min-size", type=_positive_int, default=1, help="smallest request, in rows")
    loadgen.add_argument("--max-size", type=int, default=1, help="largest request, in rows")
    loadgen.add_argument("--seed", type=int, default=7)
    loadgen.add_argument("--max-batch", type=_positive_int, default=64)
    loadgen.add_argument(
        "--window", type=_positive_int, default=64, help="simultaneous arrivals per window"
    )
    loadgen.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="replay the stream against a live `serve --listen` server "
        "instead of an in-process service",
    )
    loadgen.add_argument(
        "--clients", type=_positive_int, default=4,
        help="concurrent client connections (with --connect)",
    )
    loadgen.add_argument(
        "--deadline-ms", type=float, default=30_000.0,
        help="per-request deadline propagated to the server (with --connect)",
    )
    loadgen.add_argument(
        "--retries", type=int, default=2,
        help="bounded retries for idempotent-safe failures (with --connect)",
    )

    return parser


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _parse_hostport(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise SystemExit(f"expected HOST:PORT, got {value!r}")
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"expected HOST:PORT with integer port, got {value!r}") from None


def _cmd_info() -> int:
    from .attacks.factory import ATTACK_FACTORIES
    from .datasets import DATASET_CONFIGS
    from .eval.harness import _SCALES
    from .zoo import MODEL_CONFIGS

    print("datasets: ", ", ".join(sorted(DATASET_CONFIGS)))
    print("models:   ", ", ".join(sorted(MODEL_CONFIGS)))
    print("attacks:  ", ", ".join(sorted(ATTACK_FACTORIES)))
    print("defenses:  standard, distillation, rc, dcn (+ magnet, adv-training, feature-squeezing)")
    print("scales:   ", ", ".join(sorted(_SCALES)), " (select with REPRO_SCALE)")
    return 0


def _cmd_train(dataset_name: str) -> int:
    from .zoo import model_for_dataset

    dataset, model = model_for_dataset(dataset_name)
    accuracy = model.accuracy(dataset.x_test, dataset.y_test)
    print(f"{dataset_name}: test accuracy {accuracy:.2%} ({model.num_parameters()} parameters)")
    return 0


def _cmd_attack(dataset_name: str, attack_name: str, seeds: int, untargeted: bool, seed: int) -> int:
    from .attacks import UntargetedFromTargeted
    from .attacks.factory import TARGETED_ATTACKS, make_attack
    from .eval.adversarial_sets import select_correct_seeds
    from .zoo import model_for_dataset

    dataset, model = model_for_dataset(dataset_name)
    rng = np.random.default_rng(seed)
    x, y, _ = select_correct_seeds(model, dataset, seeds, rng)
    attack = make_attack(attack_name)
    if attack_name in TARGETED_ATTACKS:
        if untargeted:
            result = UntargetedFromTargeted(attack).perturb(model, x, y)
        else:
            targets = (y + 1 + rng.integers(0, 9, len(y))) % 10
            targets = np.where(targets == y, (targets + 1) % 10, targets)
            result = attack.perturb(model, x, y, targets)
    else:
        result = attack.perturb(model, x, y)
    mode = "untargeted" if result.target_labels is None else "targeted"
    print(f"{attack_name} ({mode}) on {dataset_name}: success {result.success_rate:.0%}")
    for metric in ("l0", "l2", "linf"):
        print(f"  mean {metric:<4} distortion: {result.mean_distortion(metric):.4f}")
    return 0


def _cmd_evaluate(dataset_name: str | None) -> int:
    from .eval import (
        attack_success_rate,
        build_context,
        scale_config,
        time_defense,
        untargeted_from_pool,
    )

    scale = scale_config()
    ctx = build_context(dataset_name or scale.mnist, scale)
    pool = ctx.pool("cw-l2")
    untargeted = untargeted_from_pool(pool, metric="l2")
    rng = np.random.default_rng(5)
    benign_x, benign_y, _ = ctx.dataset.sample_test(100, rng)
    print(f"{'defense':>14} {'benign acc':>11} {'CW-L2 success':>14} {'time/100 (s)':>13}")
    for name, defense in ctx.defenses().items():
        labels, seconds = time_defense(defense, benign_x)
        accuracy = (labels == benign_y).mean()
        success = attack_success_rate(defense, untargeted)
        print(f"{name:>14} {accuracy:>10.1%} {success:>13.1%} {seconds:>13.2f}")
    return 0


def _cmd_table(which: int) -> int:
    from .eval import (
        build_context,
        format_table2,
        format_table3,
        format_table45,
        format_table6,
        scale_config,
        table2_detector_rates,
        table3_benign_performance,
        table45_robustness,
        table6_runtime_vs_fraction,
    )

    scale = scale_config()
    if which == 2:
        rates = {
            name: table2_detector_rates(build_context(name, scale))
            for name in (scale.mnist, scale.cifar)
        }
        print(format_table2(rates))
    elif which == 3:
        rows = {
            name: table3_benign_performance(build_context(name, scale))
            for name in (scale.mnist, scale.cifar)
        }
        print(format_table3(rows))
    elif which in (4, 5):
        name = scale.mnist if which == 4 else scale.cifar
        ctx = build_context(name, scale)
        print(format_table45(table45_robustness(ctx), name))
    elif which == 6:
        ctx = build_context(scale.mnist, scale)
        print(format_table6(table6_runtime_vs_fraction(ctx), scale.mnist))
    return 0


def _cmd_figure(which: int) -> int:
    from .core import fig1_rows, format_fig1
    from .eval import build_context, fig4_corrector_sweep, format_fig4, scale_config

    scale = scale_config()
    ctx = build_context(scale.mnist, scale)
    if which == 1:
        pool = ctx.pool("cw-l2")
        per_seed = pool.targets_per_seed
        index = next(
            i for i in range(pool.num_seeds)
            if pool.success[i * per_seed : (i + 1) * per_seed].all()
        )
        block = slice(index * per_seed, (index + 1) * per_seed)
        rows = fig1_rows(
            ctx.model, pool.seeds[index], int(pool.seed_labels[index]), pool.adversarial[block]
        )
        print(format_fig1(rows))
    elif which == 4:
        print(format_fig4(fig4_corrector_sweep(ctx), scale.mnist))
    return 0


def _cmd_run(
    only: list[str] | None,
    dataset_name: str | None,
    ledger: str | None,
    resume: bool,
    chunk: int,
    retry_failed: bool,
    workers: int = 1,
    lease_ttl: float = 30.0,
) -> int:
    from .cache import cache_dir
    from .eval import build_context, format_fig4, format_table2, format_table3, format_table45, format_table6, scale_config
    from .runner import PoolConfig, Runner, WorkerPool
    from .runner import experiments as plans

    scale = scale_config()
    ctx = build_context(dataset_name or scale.mnist, scale)
    ledger_path = ledger or str(cache_dir() / f"run-{scale.name}.jsonl")
    chosen = only or list(plans.EXPERIMENTS)

    units = plans.plan_experiments(ctx, chosen, chunk_seeds=chunk)
    try:
        if workers > 1:
            pool = WorkerPool(
                ledger_path, config=PoolConfig(workers=workers, lease_ttl=lease_ttl)
            )
            result = pool.run(units, resume=resume, retry_failed=retry_failed)
        else:
            runner = Runner(ledger=ledger_path, resume=resume)
            result = runner.run(units, retry_failed=retry_failed)
    except KeyboardInterrupt:
        print(f"\ninterrupted; completed units are journaled in {ledger_path}")
        print("re-run with --resume to continue from the first unfinished unit")
        return 130

    by_exp = {name: [u for u in units if u.experiment == name] for name in chosen}
    if "table2" in by_exp:
        rates = plans.assemble_table2(result, by_exp["table2"])
        print(format_table2({ctx.dataset.name: rates}) + "\n")
    if "table3" in by_exp:
        rows = plans.assemble_table3(result, by_exp["table3"])
        print(format_table3({ctx.dataset.name: rows}) + "\n")
    if "table45" in by_exp:
        rows = plans.assemble_table45(result, by_exp["table45"])
        print(format_table45(rows, ctx.dataset.name, coverage=True) + "\n")
    if "table6" in by_exp:
        rows = plans.assemble_table6(result, by_exp["table6"])
        print(format_table6(rows, ctx.dataset.name) + "\n")
    if "fig4" in by_exp:
        rows = plans.assemble_fig4(result, by_exp["fig4"])
        print(format_fig4(rows, ctx.dataset.name) + "\n")

    pending = len(units) - len(result.records)
    print(
        f"run: {len(result.executed)} executed, {len(result.replayed)} replayed, "
        f"{len(result.failed)} failed"
        + (f", {pending} pending" if pending else "")
        + (f" [{workers} workers]" if workers > 1 else "")
        + f" (ledger: {ledger_path})"
    )
    for key in result.failed:
        failure = (result.records[key].get("failure") or {})
        print(f"  FAILED {key}: {failure.get('error', '?')}: {failure.get('message', '')}")
    if pending:
        print("re-run with --resume to finish the pending units")
    return 0 if result.ok and not pending else 1


def _cmd_bench(compare: str, current: str | None, threshold: float, warn_only: bool) -> int:
    from pathlib import Path

    from .benchcmp import REPO_ROOT_HINT, compare_files, format_comparison

    base_path = Path(compare)
    if current is None:
        # Default counterpart: the committed baseline of the same name at
        # the repo root (diffing a fresh run against what's checked in).
        current_path = REPO_ROOT_HINT / base_path.name
    else:
        current_path = Path(current)
    for path in (base_path, current_path):
        if not path.exists():
            print(f"bench: no such result file: {path}", file=sys.stderr)
            return 2
    comparison = compare_files(base_path, current_path, threshold=threshold)
    print(f"base:    {base_path}\ncurrent: {current_path}")
    print(format_comparison(comparison))
    if not comparison.ok and warn_only:
        print("warn-only: regressions or context mismatches reported but not failing the run")
        return 0
    return 0 if comparison.ok else 1


def _cmd_report(output: str | None, light: bool) -> int:
    from .eval.reportgen import generate_report

    report = generate_report(include_heavy=not light)
    if output:
        with open(output, "w") as handle:
            handle.write(report)
        print(f"report written to {output}")
    else:
        print(report)
    return 0


def _cmd_verify(seed: int, cases: int, dtype: str) -> int:
    from .verify import run_verify

    dtypes = {
        "float32": (np.float32,),
        "float64": (np.float64,),
        "both": (np.float32, np.float64),
    }[dtype]
    report = run_verify(seed=seed, cases=cases, dtypes=dtypes)
    print(report.format())
    return 0 if report.ok else 1


def _serve_stream(dataset_name: str | None, requests: int, adv_fraction: float,
                  min_size: int, max_size: int, seed: int):
    """Build (dcn, stream) for the serve/loadgen commands."""
    from .eval import build_context, scale_config
    from .serve import StreamSpec, build_stream

    scale = scale_config()
    ctx = build_context(dataset_name or scale.mnist, scale)
    adv = None
    if adv_fraction > 0:
        adv, _, _ = ctx.pool("cw-l2").successful()
    spec = StreamSpec(
        requests=requests, adv_fraction=adv_fraction,
        min_size=min_size, max_size=max_size, seed=seed,
    )
    return ctx.dcn, build_stream(ctx.dataset.x_test, adv, spec)


def _build_front(dcn, max_batch: int, max_queue: int, max_delay: float,
                 overload: str, slo_target_s: float | None, workers: int,
                 lease_ttl: float, max_restarts: int, restart_window_s: float):
    """The serving backend behind both local streams and --listen."""
    from .serve import DCNService, ServePool

    if workers > 1:
        return ServePool(
            dcn, workers=workers, lease_ttl=lease_ttl, max_batch=max_batch,
            max_queue=max_queue, max_delay=max_delay, overload=overload,
            slo_target_s=slo_target_s, max_restarts=max_restarts,
            restart_window_s=restart_window_s,
        )
    return DCNService(
        dcn, max_batch=max_batch, max_queue=max_queue,
        max_delay=max_delay, overload=overload, slo_target_s=slo_target_s,
    )


def _cmd_serve_listen(dataset_name: str | None, listen: str, max_batch: int,
                      max_queue: int, max_delay: float, overload: str,
                      slo_target_ms: float | None, workers: int,
                      lease_ttl: float, max_restarts: int,
                      restart_window: float, default_deadline_ms: float,
                      telemetry: str | None) -> int:
    import contextlib

    from .eval import build_context, scale_config
    from .serve import DCNServer, TelemetryExporter

    host, port = _parse_hostport(listen)
    scale = scale_config()
    ctx = build_context(dataset_name or scale.mnist, scale)
    slo_target_s = slo_target_ms / 1e3 if slo_target_ms is not None else None
    front = _build_front(
        ctx.dcn, max_batch, max_queue, max_delay, overload, slo_target_s,
        workers, lease_ttl, max_restarts, restart_window,
    )
    with front:
        server = DCNServer(
            front, host=host, port=port,
            default_deadline_s=default_deadline_ms / 1e3,
        )
        with server:
            exporter = (
                TelemetryExporter(server, telemetry) if telemetry is not None
                else contextlib.nullcontext()
            )
            bound_host, bound_port = server.address
            print(f"serving on {bound_host}:{bound_port} "
                  f"({workers} worker{'s' if workers != 1 else ''}; Ctrl-C stops)",
                  flush=True)
            with exporter:
                try:
                    server.serve_forever()
                except KeyboardInterrupt:
                    pass
    return 0


def _cmd_serve(dataset_name: str | None, requests: int, adv_fraction: float,
               min_size: int, max_size: int, seed: int, max_batch: int,
               max_queue: int, max_delay: float, overload: str, burst: int,
               slo_target_ms: float | None, workers: int, lease_ttl: float,
               max_restarts: int, restart_window: float,
               telemetry: str | None) -> int:
    import collections
    import contextlib

    from .serve import TelemetryExporter, run_windowed

    dcn, stream = _serve_stream(
        dataset_name, requests, adv_fraction, min_size, max_size, seed
    )
    slo_target_s = slo_target_ms / 1e3 if slo_target_ms is not None else None
    front = _build_front(
        dcn, max_batch, max_queue, max_delay, overload, slo_target_s,
        workers, lease_ttl, max_restarts, restart_window,
    )
    with front:
        exporter = (
            TelemetryExporter(front, telemetry) if telemetry is not None
            else contextlib.nullcontext()
        )
        with exporter:
            stats = run_windowed(front, stream, window=burst)
        counters = front.telemetry_snapshot()["counters"]

    latency = stats.latencies.summary()
    statuses = collections.Counter(stats.statuses)
    print(f"served {stats.served}/{len(stream)} requests in {stats.seconds:.3f}s "
          f"({stats.requests_per_sec:.0f} req/s, {stats.examples_per_sec:.0f} examples/s)"
          + (f" [{workers} workers]" if workers > 1 else ""))
    print("statuses: " + ", ".join(f"{k}={v}" for k, v in sorted(statuses.items())))
    print(f"latency: p50 {latency['p50_ms']:.2f} ms, p95 {latency['p95_ms']:.2f} ms")
    if telemetry is not None:
        print(f"telemetry journal: {telemetry}")
    for key, value in counters.items():
        print(f"  {key:>18}: {value}")
    return 0


def _cmd_loadgen(dataset_name: str | None, requests: int, adv_fraction: float,
                 min_size: int, max_size: int, seed: int, max_batch: int,
                 window: int, connect: str | None, clients: int,
                 deadline_ms: float, retries: int) -> int:
    from .serve import DCNClient, DCNService, run_coalesced, run_offline, run_remote

    address = _parse_hostport(connect) if connect is not None else None
    dcn, stream = _serve_stream(
        dataset_name, requests, adv_fraction, min_size, max_size, seed
    )
    offline = run_offline(dcn, stream)
    service = None
    if address is None:
        service = DCNService(dcn, max_batch=max_batch, max_queue=4 * len(stream))
        served, name = run_coalesced(service, stream, window=window), "coalesced"
    else:
        fleet = [
            DCNClient(address, deadline_s=deadline_ms / 1e3, retries=retries,
                      backoff_seed=c)
            for c in range(clients)
        ]
        try:
            served, name = run_remote(fleet, stream), f"remote ({clients} clients)"
        finally:
            for client in fleet:
                client.close()
    equal = all(
        status == "shed" or np.array_equal(got, want)
        for got, want, status in zip(served.labels, offline.labels, served.statuses)
    )
    latency = served.latencies.summary()
    print(f"offline: {offline.seconds:.3f}s ({offline.requests_per_sec:.0f} req/s)")
    print(f"{name}: {served.seconds:.3f}s ({served.requests_per_sec:.0f} req/s)"
          f"  p50 {latency['p50_ms']:.2f} ms  p95 {latency['p95_ms']:.2f} ms")
    print(f"speedup: {offline.seconds / served.seconds:.2f}x")
    print(f"statuses: served={served.served} shed={served.shed}")
    print(f"served labels bitwise-identical to offline DCN.classify: {equal}")
    if service is not None:
        counters = service.counters
        print(f"flagged {counters.flagged} rows across {counters.batches} dispatches "
              f"(plan hits/misses {counters.plan_hits}/{counters.plan_misses})")
    return 0 if equal else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("serve", "loadgen") and args.min_size > args.max_size:
        parser.error(f"--min-size {args.min_size} exceeds --max-size {args.max_size}")
    if args.command == "info":
        return _cmd_info()
    if args.command == "train":
        return _cmd_train(args.dataset)
    if args.command == "attack":
        return _cmd_attack(args.dataset, args.attack_name, args.seeds, args.untargeted, args.seed)
    if args.command == "evaluate":
        return _cmd_evaluate(args.dataset)
    if args.command == "table":
        return _cmd_table(args.which)
    if args.command == "figure":
        return _cmd_figure(args.which)
    if args.command == "run":
        return _cmd_run(
            args.only,
            args.dataset,
            args.ledger,
            args.resume,
            args.chunk,
            args.retry_failed,
            args.workers,
            args.lease_ttl,
        )
    if args.command == "bench":
        return _cmd_bench(args.compare, args.current, args.threshold, args.warn_only)
    if args.command == "report":
        return _cmd_report(args.output, args.light)
    if args.command == "verify":
        return _cmd_verify(args.seed, args.cases, args.dtype)
    if args.command == "serve":
        if args.listen is not None:
            return _cmd_serve_listen(
                args.dataset, args.listen, args.max_batch, args.max_queue,
                args.max_delay, args.overload, args.slo_target_ms,
                args.workers, args.lease_ttl, args.max_restarts,
                args.restart_window, args.default_deadline_ms, args.telemetry,
            )
        return _cmd_serve(
            args.dataset, args.requests, args.adv_fraction, args.min_size,
            args.max_size, args.seed, args.max_batch, args.max_queue,
            args.max_delay, args.overload, args.burst, args.slo_target_ms,
            args.workers, args.lease_ttl, args.max_restarts,
            args.restart_window, args.telemetry,
        )
    if args.command == "loadgen":
        return _cmd_loadgen(
            args.dataset, args.requests, args.adv_fraction, args.min_size,
            args.max_size, args.seed, args.max_batch, args.window,
            args.connect, args.clients, args.deadline_ms, args.retries,
        )
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
