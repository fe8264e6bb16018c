"""Cold-start benchmark: where a fresh serving process spends its set-up.

Every process this repository starts (a serving worker, the CLI, a runner
worker, an e2e benchmark child) pays its set-up before its first row.
This bench starts fresh interpreters, one after another, each running
the stages a serving process runs before it can answer, and times them:

* ``interpreter_ms``   — spawn, interpreter start-up and this script's
                         standard-library imports (spawn time passed in,
                         read on the same system-wide monotonic clock);
* ``import_numpy_ms``  — ``import numpy``;
* ``import_repro_ms``  — ``import repro.eval, repro.serve``;
* ``load_context_ms``  — ``build_context("mnist-fast")``, its DCN and its
                         CW-L2 pool (the adversarial rows the e2e serving
                         workloads send): five cache entry loads (dataset,
                         model, detector, radius, pool), broken down per
                         entry kind in ``entry_loads_ms`` (the rest of the
                         stage is object construction);
* ``serve_buckets_ms`` — one ``DCNService.serve_batch`` per bucket of the
                         ladder, compiling the model's and detector's plans.

Each stage's median over the repeats is reported; ``total_ms`` is their
sum.  ``scipy_loaded`` records whether any SciPy module was imported by
the end of the last stage (it should not be: only dataset generation,
feature squeezing and L-BFGS load SciPy, on first use).  One warm-up
child runs first and is discarded, so every timed child reads the cache
from the page cache.  The context's ``entries`` says whether the timed
entries were written ``stored`` or ``deflated`` (older caches): inflating
is most of a deflated entry's load time.  ``repro_bytecode_cached`` says
whether ``src/repro`` has compiled bytecode (``__pycache__``): compiling
from source is about two thirds of the import stage.  BLAS runs one thread
(``OPENBLAS_NUM_THREADS=1``), as in the e2e benchmark.  Set-up varies
±10–20% run to run on a shared host: compare checkouts with interleaved
runs, not single ones.

Run as a script (on a cold cache the warm-up child builds it first,
which takes many minutes)::

    PYTHONPATH=src python benchmarks/bench_cold_start.py
    PYTHONPATH=src python benchmarks/bench_cold_start.py --smoke
    PYTHONPATH=src python benchmarks/bench_cold_start.py --out cold.json

Full (non-smoke) runs persist ``BENCH_cold_start.json``; diff two runs
with ``python -m repro bench --compare base.json current.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import zipfile
from importlib.util import cache_from_source
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("interpreter_ms", "import_numpy_ms", "import_repro_ms", "load_context_ms", "serve_buckets_ms")


def child(spawned: float) -> dict:
    """Run the stages in this fresh interpreter; return their milliseconds."""
    marks = [spawned, time.perf_counter()]
    import numpy  # noqa: F401

    marks.append(time.perf_counter())
    import repro.eval
    import repro.serve

    marks.append(time.perf_counter())
    from repro import cache

    loads: dict[str, float] = {}
    paths: list[str] = []
    load_arrays = cache._load_arrays

    def timed_load(path):
        start = time.perf_counter()
        try:
            return load_arrays(path)
        finally:
            kind = path.name.rsplit("-", 1)[0]
            loads[kind] = loads.get(kind, 0.0) + (time.perf_counter() - start) * 1e3
            paths.append(str(path))

    cache._load_arrays = timed_load
    ctx = repro.eval.build_context("mnist-fast", repro.eval.scale_config("fast"))
    dcn = ctx.dcn
    ctx.pool("cw-l2")
    cache._load_arrays = load_arrays
    marks.append(time.perf_counter())
    service = repro.serve.DCNService(dcn)
    rows = ctx.dataset.x_test
    for bucket in service.buckets:
        service.serve_batch([rows[:bucket]])
    marks.append(time.perf_counter())
    return {
        "stages_ms": {name: (b - a) * 1e3 for name, a, b in zip(STAGES, marks, marks[1:])},
        "entry_loads_ms": {f"{kind}_ms": ms for kind, ms in sorted(loads.items())},
        "scipy_loaded": any(m == "scipy" or m.startswith("scipy.") for m in sys.modules),
        "modules_loaded": len(sys.modules),
        "entry_paths": paths,
    }


def entry_format(paths: list[str]) -> str:
    """``stored``, ``deflated`` or ``mixed``: how the timed entries were written.

    Inflating deflated entries is most of their load time, so runs on
    caches written either way are not comparable.
    """
    methods = set()
    for path in paths:
        with zipfile.ZipFile(path) as archive:
            methods.update(info.compress_type for info in archive.infolist())
    if methods == {zipfile.ZIP_STORED}:
        return "stored"
    if methods == {zipfile.ZIP_DEFLATED}:
        return "deflated"
    return "mixed"


def spawn(env: dict) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", repr(time.perf_counter())]
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"cold-start child failed (exit {out.returncode}):\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run(repeats: int) -> dict:
    # bench_common imports NumPy, so only the parent process imports it.
    from bench_common import bench_context

    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spawn(env)  # warm-up: builds a cold cache, pulls the entries into the page cache
    runs = [spawn(env) for _ in range(repeats)]

    def median_of(section: str) -> dict:
        return {
            key: statistics.median(r[section][key] for r in runs) for key in runs[0][section]
        }

    stages = median_of("stages_ms")
    return {
        "context": bench_context(
            dataset="mnist-fast",
            repeats=repeats,
            blas_threads="1",
            repro_bytecode_cached=Path(cache_from_source(str(ROOT / "src/repro/__init__.py"))).exists(),
            entries=entry_format(runs[0]["entry_paths"]),
        ),
        "results": {
            "stages_ms": stages,
            "total_ms": sum(stages.values()),
            "entry_loads_ms": median_of("entry_loads_ms"),
            "scipy_loaded": any(r["scipy_loaded"] for r in runs),
            "modules_loaded": statistics.median(r["modules_loaded"] for r in runs),
        },
        "runs_total_ms": [round(sum(r["stages_ms"].values()), 1) for r in runs],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--out", type=Path, default=None, help="JSON path override")
    parser.add_argument("--smoke", action="store_true", help="two repeats, no JSON write unless --out")
    parser.add_argument("--child", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child)))
        return 0
    if args.smoke:
        args.repeats = 2
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    payload = run(args.repeats)
    print(json.dumps(payload, indent=2))
    if args.out is not None or not args.smoke:
        from bench_common import write_payload

        path = write_payload("cold_start", payload, out=args.out)
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
