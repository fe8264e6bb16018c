"""Throughput benchmark for the compiled-plan layer (standalone, JSON output).

Measures the serving-shaped hot path — *repeated same-shape batched
inference* on the digits CNN — two ways:

* ``percall``  — the pre-plan engine execution: one allocating closure per
  layer, shapes re-decided and every temporary re-allocated on each call,
  convolution as row-major ``cols @ w_mat.T`` over ``ops.im2col`` patch
  rows (:func:`repro.nn.kernels.build_percall_infer_kernels`, kept
  precisely as this baseline);
* ``plan``     — the compiled-plan engine path: the layer stack lowered
  once per batch shape into arena-preallocated, fusion-folded ops, served
  from the engine's plan cache (:mod:`repro.nn.plan`).

``per_op_ms`` breaks the fan-out batch's plan forward down by step: the
script walks ``plan.steps`` itself and times each op's ``step`` (the base
op plus its fused elementwise stages, exactly as the plan runs them), so
the plan carries no timing code.

Both regimes of the DCN serving asymmetry are timed: the detector-gated
single-request forward (batch 1) and the corrector's fused fan-out batch.
Run as a script::

    PYTHONPATH=src python benchmarks/bench_plan_throughput.py
    PYTHONPATH=src python benchmarks/bench_plan_throughput.py --smoke

The acceptance bar from the plan-compiler refactor: ``plan`` must beat
``percall`` by >= 1.3x examples/second on the fan-out batch regime.
Results (with provenance context) are persisted to
``BENCH_plan_throughput.json`` for the bench-regression gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from bench_common import bench_context, dataset_fingerprint, write_payload
from repro.nn import InferenceEngine
from repro.nn.kernels import build_percall_infer_kernels
from repro.zoo import model_for_dataset


def percall_forward(kernels, x: np.ndarray, dtype) -> np.ndarray:
    out = np.ascontiguousarray(x, dtype=dtype)
    for kernel in kernels:
        out = kernel(out)
    return out


def make_percall_runner(network, dtype):
    """The pre-plan execution with the same cast-cache the engines use."""
    casts: dict[int, np.ndarray] = {}

    def cast(param):
        cached = casts.get(id(param))
        if cached is None:
            cached = np.ascontiguousarray(param.data, dtype=dtype)
            casts[id(param)] = cached
        return cached

    kernels = build_percall_infer_kernels(network, cast)
    assert kernels is not None, "benchmark model must lower to per-call kernels"
    return lambda x: percall_forward(kernels, x, dtype)


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

    percall = make_percall_runner(model, dtype)
    engine = InferenceEngine(model, dtype=dtype, memo_entries=0)
    plan = lambda x: engine.logits(x, memo=False)  # noqa: E731

    results = {
        "percall-batch": measure(percall, fanout, calls, repeats),
        "plan-batch": measure(plan, fanout, calls, repeats),
        "percall-single": measure(percall, single, calls, repeats),
        "plan-single": measure(plan, single, calls, repeats),
    }

    ops_ms = per_op_ms(engine._plan_for(fanout.shape), fanout, calls, repeats)

    # Numerical sanity alongside the throughput claim: both paths compute
    # the same fused math, so they must agree to f32 roundoff.
    ref = percall(fanout)
    out = engine.logits(fanout, memo=False)
    max_abs = float(np.max(np.abs(out.astype(np.float64) - ref.astype(np.float64))))

    speedup = (
        results["plan-batch"]["examples_per_sec"] / results["percall-batch"]["examples_per_sec"]
    )
    single_speedup = (
        results["plan-single"]["examples_per_sec"] / results["percall-single"]["examples_per_sec"]
    )
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
        "plan_vs_percall_speedup": speedup,
        "plan_vs_percall_single_speedup": single_speedup,
        "max_abs_error_vs_percall": max_abs,
        "label_agreement": float((out.argmax(-1) == ref.argmax(-1)).mean()),
        "plan_counters": engine.counters.as_dict(),
        "meets_1p3x_bar": bool(speedup >= 1.3),
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
        help="tiny sizes, single repeat, no JSON write, never fails the bar (CI wiring)",
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
    return 0 if payload["meets_1p3x_bar"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
