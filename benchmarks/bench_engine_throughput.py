"""Throughput benchmark for the InferenceEngine (standalone, JSON output).

Measures the digits-CNN logits path three ways:

* ``engine-f64``    — engine kernels at float64 (the numeric reference)
* ``engine-f32``    — engine kernels at float32 (the default)
* ``engine-memo``   — engine with the memo warm (repeat-query regime)

Run as a script::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --out bench.json

The run exits 1 when ``engine-f32`` falls below ``ENGINE_F32_FLOOR``
examples/second.  ``f32_max_abs_error`` and ``f32_label_agreement``
compare the float32 logits with ``engine-f64``'s.  Results (with
provenance context: git SHA, toolchain versions, run parameters) are
persisted to ``BENCH_engine_throughput.json`` for the bench-regression
gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from bench_common import bench_context, dataset_fingerprint, floor_gates, write_payload
from repro.nn import InferenceEngine
from repro.zoo import model_for_dataset

# Row span of each engine forward (the engines' default).
BATCH_SIZE = 256

# Examples/second ``engine-f32`` must reach: the retired 1.5x ratio bar times
# the float64 autograd baseline's rate in BENCH_engine_throughput.json at
# commit 4771dbc (recorded at 6cedb29), rounded up: 1.5 x 2321.38 = 3482.07.
ENGINE_F32_FLOOR = 3482.1


def timeit(fn, repeats):
    """Best-of-``repeats`` wall clock (seconds) for one call of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(n_examples: int, repeats: int) -> dict:
    dataset, model = model_for_dataset("mnist-fast")
    x = dataset.x_test[:n_examples]

    engine32 = InferenceEngine(model, dtype=np.float32, batch_size=BATCH_SIZE)
    engine64 = InferenceEngine(model, dtype=np.float64, batch_size=BATCH_SIZE)

    variants = {
        "engine-f64": lambda: engine64.logits(x, memo=False),
        "engine-f32": lambda: engine32.logits(x, memo=False),
    }
    results = {}
    for name, fn in variants.items():
        fn()  # warm up caches (parameter casts, BLAS)
        seconds = timeit(fn, repeats)
        results[name] = {"seconds": seconds, "examples_per_sec": len(x) / seconds}

    # Memo regime: the same array queried again (the table-builder pattern).
    engine32.logits(x)  # prime
    seconds = timeit(lambda: engine32.logits(x), repeats)
    results["engine-memo"] = {"seconds": seconds, "examples_per_sec": len(x) / seconds}

    # Numerical sanity alongside the throughput numbers.
    reference = engine64.logits(x, memo=False)
    f32 = engine32.logits(x, memo=False)
    floors = floor_gates(results, {"engine-f32.examples_per_sec": ENGINE_F32_FLOOR})
    return {
        "context": bench_context(
            dataset=dataset.name,
            dataset_fingerprint=dataset_fingerprint(x),
            examples=len(x),
            batch_size=BATCH_SIZE,
            repeats=repeats,
        ),
        "dataset": dataset.name,
        "examples": len(x),
        "batch_size": BATCH_SIZE,
        "repeats": repeats,
        "results": results,
        "f32_max_abs_error": float(np.max(np.abs(f32.astype(np.float64) - reference))),
        "f32_label_agreement": float((f32.argmax(-1) == reference.argmax(-1)).mean()),
        "floors": floors,
        "meets_floors": all(gate["holds"] for gate in floors.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=512)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=None, help="also write JSON here")
    args = parser.parse_args(argv)
    if args.examples < 1:
        parser.error("--examples must be >= 1")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    payload = run(args.examples, args.repeats)
    print(json.dumps(payload, indent=2))
    path = write_payload("engine_throughput", payload, out=args.out)
    print(f"wrote {path}", file=sys.stderr)
    return 0 if payload["meets_floors"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
