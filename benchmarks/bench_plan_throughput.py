"""Throughput benchmark for the compiled-plan layer (standalone, JSON output).

Measures the serving-shaped hot path — *repeated same-shape batched
inference* on the digits CNN — through the compiled-plan engine path: the
layer stack lowered once per batch shape into arena-preallocated,
fusion-folded ops, served from the engine's plan cache
(:mod:`repro.nn.plan`).

``per_op_ms`` breaks the fan-out batch's plan forward down by step: the
script walks ``plan.steps`` itself and times each op's ``step`` (the base
op plus its fused elementwise stages, exactly as the plan runs them), so
the plan carries no timing code.

Both regimes of the DCN serving asymmetry are timed: the detector-gated
single-request forward (batch 1, ``plan-single``) and the corrector's
fused fan-out batch (``plan-batch``).  Run as a script::

    PYTHONPATH=src python benchmarks/bench_plan_throughput.py
    PYTHONPATH=src python benchmarks/bench_plan_throughput.py --smoke

A full run exits 1 when ``plan-batch`` falls below ``PLAN_BATCH_FLOOR``
examples/second; ``--smoke`` never fails it.  Results (with provenance
context) are persisted to ``BENCH_plan_throughput.json`` for the
bench-regression gate.
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

# Examples/second ``plan-batch`` must reach: the retired 1.3x ratio bar times
# the per-call baseline's batch rate in BENCH_plan_throughput.json at commit
# 4771dbc (recorded at 0b30156), rounded up: 1.3 x 3501.29 = 4551.67.
PLAN_BATCH_FLOOR = 4551.7


def timeit(fn, repeats):
    """Best-of-``repeats`` wall clock (seconds) for one call of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure(run_once, batch: np.ndarray, calls: int, repeats: int) -> dict:
    """Time ``calls`` repeated same-shape forwards (the serving regime)."""

    def loop():
        for _ in range(calls):
            run_once(batch)

    run_once(batch)  # warm up: plan compilation / cast cache / BLAS
    seconds = timeit(loop, repeats)
    return {
        "seconds": seconds,
        "calls": calls,
        "batch": len(batch),
        "examples_per_sec": calls * len(batch) / seconds,
    }


def step_name(index: int, op) -> str:
    """``03_conv_relu_ms``: step index, op kind, fused stages."""
    parts = [type(op).__name__.strip("_").removesuffix("Op").lower()]
    parts += [type(post).__name__.strip("_").removesuffix("Stage").lower() for post in op.posts]
    return f"{index:02d}_{'_'.join(parts)}_ms"


def per_op_ms(plan, batch: np.ndarray, calls: int, repeats: int) -> dict:
    """Milliseconds per forward of each plan step (best of ``repeats`` means).

    Every call walks the whole plan in order through each op's ``step``,
    so each step reads the input its producer just wrote and its posts run
    over the same buffer, exactly as ``CompiledPlan.run`` does.
    """
    steps = plan.steps
    best = [float("inf")] * len(steps)
    for _ in range(repeats):
        totals = [0.0] * len(steps)
        for _ in range(calls):
            buf = batch
            for index, op in enumerate(steps):
                start = time.perf_counter()
                buf = op.step(buf)
                totals[index] += time.perf_counter() - start
        best = [min(b, total / calls * 1e3) for b, total in zip(best, totals)]
    return {step_name(i, op): ms for i, (op, ms) in enumerate(zip(steps, best))}


def run(batch_size: int, calls: int, repeats: int) -> dict:
    dataset, model = model_for_dataset("mnist-fast")
    dtype = np.float32
    fanout = np.ascontiguousarray(dataset.x_test[:batch_size], dtype=dtype)
    single = fanout[:1]

    engine = InferenceEngine(model, dtype=dtype, memo_entries=0)
    plan = lambda x: engine.logits(x, memo=False)  # noqa: E731

    results = {
        "plan-batch": measure(plan, fanout, calls, repeats),
        "plan-single": measure(plan, single, calls, repeats),
    }

    ops_ms = per_op_ms(engine._plan_for(fanout.shape), fanout, calls, repeats)
    floors = floor_gates(results, {"plan-batch.examples_per_sec": PLAN_BATCH_FLOOR})
    return {
        "context": bench_context(
            dataset=dataset.name,
            dataset_fingerprint=dataset_fingerprint(fanout),
            batch_size=batch_size,
            calls=calls,
            repeats=repeats,
        ),
        "results": results,
        "per_op_ms": ops_ms,
        "per_op_total_ms": sum(ops_ms.values()),
        "plan_counters": engine.counters.as_dict(),
        "floors": floors,
        "meets_floors": all(gate["holds"] for gate in floors.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--calls", type=int, default=50)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=None, help="JSON path override")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, single repeat, no JSON write, never fails the floor (CI wiring)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.batch_size, args.calls, args.repeats = 8, 3, 1
    if min(args.batch_size, args.calls, args.repeats) < 1:
        parser.error("--batch-size/--calls/--repeats must be >= 1")

    payload = run(args.batch_size, args.calls, args.repeats)
    print(json.dumps(payload, indent=2))
    # --out writes even under --smoke, so the CI perf-smoke stage can feed
    # its (tiny, context-mismatched) result to `repro bench --compare`.
    if args.out is not None or not args.smoke:
        path = write_payload("plan_throughput", payload, out=args.out)
        print(f"wrote {path}", file=sys.stderr)
    if args.smoke:
        return 0
    return 0 if payload["meets_floors"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
