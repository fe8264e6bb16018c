#!/usr/bin/env python3
"""End-to-end benchmark of the DCN reproduction (see README.md).

    python3 benchmarks/e2e/run.py --workload serve-benign --seed 7 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py                 # every workload, one after another
    python3 benchmarks/e2e/run.py --smoke         # every workload for about 2 s
    python3 benchmarks/e2e/run.py --compare A.jsonl B.jsonl

Each workload runs in fresh child processes: two that only set up, then
one that sets up, measures and checks.  ``setup_s`` is the median of the
three set-up times, each from process start to the first request ready
and scaled to the nominal host speed by host probes taken right after it
(see ``measure.HostProbe``).
``--trace 1`` instead runs the workload twice for half the time each,
untraced and traced, and reports the per-layer metrics of the traced run
plus the tracing overhead.  The last line of standard output is one JSON
object; every run is also appended to ``.benchmarks/e2e/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = ROOT / ".benchmarks" / "e2e"
SETUP_SAMPLES = 3
CHILD_LIMIT_S = 150.0  # one child, warm cache
BUILD_LIMIT_S = 850.0  # one child that may build a cold cache
SMOKE_SECONDS = 2
BLAS_THREADS = "1"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def log(message: str) -> None:
    print(f"[e2e] {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD's commit, read from ``.git`` inside the checkout (no git call)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Digest of the program's and the benchmark's Python files."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def context(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "source": source_digest(),
        "cache_dir": str(ROOT / ".artifacts"),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "openblas_num_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """Keep the cache and every temporary file inside the checkout.

    BLAS runs one thread per process: the serving paths already run more
    threads and processes than the host has cores, and OpenBLAS's spinning
    worker threads on top made runs several times slower and far noisier.
    """
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env["REPRO_CACHE"] = str(ROOT / ".artifacts")
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def spawn(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool = False,
          limit_s: float = CHILD_LIMIT_S) -> dict:
    """Run one child; return its JSON line plus ``setup_s``.

    A child that found the cache cold builds it, reports ``built`` and
    exits before timing; it is then run again on the warm cache, so a
    build never shows up as set-up time.
    """
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", workload, "--seed", str(seed),
        "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(limit_s, proc.kill)
    watchdog.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            else:
                lines.append(line)
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None or not lines:
        raise SystemExit(f"[e2e] {workload} child failed (exit {proc.returncode})")
    out = json.loads(lines[-1])
    if out.get("built"):
        return spawn(workload, seed, seconds, trace, setup_only)
    out["setup_s"] = ready
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """One benchmark run of one workload: the JSON the driver reads."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if not trace:
        setups = [
            spawn(workload, seed, seconds, False, setup_only=True,
                  limit_s=BUILD_LIMIT_S if i == 0 else CHILD_LIMIT_S)
            for i in range(SETUP_SAMPLES - 1)
        ]
        main = spawn(workload, seed, seconds, False)
        setups.append(main)
        runs = [main]
        metrics = dict(
            main["metrics"],
            setup_s=statistics.median(s["setup_s"] / s["host_factor"] for s in setups),
        )
        details = {
            "setup_s_unscaled": [s["setup_s"] for s in setups],
            "setup_host_factors": [s["host_factor"] for s in setups],
        }
    else:
        half = seconds / 2.0
        plain = spawn(workload, seed, half, False, limit_s=BUILD_LIMIT_S)
        traced = spawn(workload, seed, half, True)
        runs = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = (
            1.0 - traced["metrics"]["rows_per_sec"] / plain["metrics"]["rows_per_sec"]
        )
        details = {"untraced": plain["metrics"], "traced": traced["metrics"]}
        if plain.get("digests") != traced.get("digests"):
            plain["checks"]["digests_repeat"] = False
    checks = {k: v for run in runs for k, v in run["checks"].items()}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "context": context(seed),
        "checks": checks,
        "digests": runs[0].get("digests"),
        "details": details | {"run": runs[-1]["details"]},
        "result": {
            "correct": all(checks.values()),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        },
    }
    check_digests(record)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / "runs.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    return record


def check_digests(record: dict) -> None:
    """Offline outputs must repeat exactly for the same code, seed and size."""
    if not record["digests"]:
        return
    key = (record["workload"], record["seed"], record["context"]["source"])
    size = record["seconds"] / (2.0 if record["trace"] else 1.0)
    for old in read_records(OUT_DIR / "runs.jsonl"):
        old_size = old["seconds"] / (2.0 if old["trace"] else 1.0)
        if (old["workload"], old["seed"], old["context"]["source"]) == key and old_size == size:
            if old.get("digests") and old["digests"] != record["digests"]:
                record["checks"]["digests_repeat"] = False
                record["result"]["correct"] = False
            return


def read_records(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def print_metrics(record: dict) -> None:
    result = record["result"]
    for name, metric in result["metrics"].items():
        log(f"{record['workload']:13s} {name:28s} {metric['value']:14.4f} {metric['unit']}")
    failed = [k for k, v in record["checks"].items() if not v]
    log(f"{record['workload']}: attempted={result['attempted']} failed={result['failed']} "
        f"checks {'ok' if not failed else 'FAILED: ' + ', '.join(failed)}")


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def compare(path_a: Path, path_b: Path, spec: dict) -> int:
    """Median and quartiles of each set, and a verdict against the bounds."""
    import measure

    sets = [read_records(path_a), read_records(path_b)]
    regressions = 0
    head = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]")
    print(f"{head[0]:13s} {head[1]:13s} {head[2]:>34s} {head[3]:>34s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [
                [r["result"]["metrics"][name]["value"] for r in records
                 if r["workload"] == workload and not r["trace"] and name in r["result"]["metrics"]]
                for records in sets
            ]
            if not all(values):
                continue
            cells = []
            for vals in values:
                q1, med, q3 = measure.quartiles(vals)
                cells.append(f"{med:10.4f} [{q1:9.4f}, {q3:9.4f}] n={len(vals):<2d}")
            worse = measure.worse_by(statistics.median(values[0]), statistics.median(values[1]),
                                     metric["better"])
            bound = metric["bound"]
            wide = name != "setup_s" and max(measure.spread(v) for v in values) > bound
            if worse > bound:
                verdict = f"WORSE: {worse:+.1%} worse, bound {bound:.0%}"
                regressions += 1
            elif wide:
                verdict = f"unresolved: spread above bound {bound:.0%}"
            else:
                verdict = f"ok: {worse:+.1%} worse, bound {bound:.0%}"
            print(f"{workload:13s} {name:13s} {cells[0]:>34s} {cells[1]:>34s}  {verdict}")
    return 1 if regressions else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload for about 2 s")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("SET_A", "SET_B"),
                        help="two runs.jsonl files to compare")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        log(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 2
    if args.child:
        sys.path.insert(0, str(ROOT / "src"))
        import workloads

        return workloads.child_main(args.child, args.seed, args.seconds, bool(args.trace),
                                    args.setup_only)

    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    seconds = SMOKE_SECONDS if args.smoke else (args.seconds or spec["run_seconds"])
    if seconds <= 0:
        parser.error("--seconds must be > 0")
    selected = [args.workload] if args.workload else names
    log(f"context: {json.dumps(context(args.seed))}")
    correct = True
    for workload in selected:
        record = run_workload(workload, args.seed, seconds, bool(args.trace), spec)
        print_metrics(record)
        correct &= record["result"]["correct"]
        if len(selected) > 1:
            print(json.dumps({"workload": workload, **record["result"]}), flush=True)
    if len(selected) == 1:
        print(json.dumps(record["result"]), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
