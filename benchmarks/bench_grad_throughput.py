"""Throughput benchmark for the GradientEngine (standalone, JSON output).

Measures the digits-CNN input-gradient paths that dominate the paper's
attack evaluation on the ``engine`` (fused float32 kernels):

* ``fgsm-batch``    — one batched cross-entropy gradient (the FGSM step)
* ``cw-l2-inner``   — iterations of the CW-L2 objective (margin gradient
                      plus the tanh/distance chain rule, the attack's hot
                      loop)
* ``jacobian``      — the full 10-class logits Jacobian (JSMA/DeepFool):
                      1 forward + 10 seeded backwards

Run as a script::

    PYTHONPATH=src python benchmarks/bench_grad_throughput.py
    PYTHONPATH=src python benchmarks/bench_grad_throughput.py --out bench.json
    PYTHONPATH=src python benchmarks/bench_grad_throughput.py --smoke

``per_op_ms`` breaks the ``cnn-fast`` margin-gradient plan (the CW-L2
inner loop's forward + backward) down by plan step, at the attack's 3-row
batch and a 64-row one: forward and backward milliseconds per step, timed
in one loop so the steps sum to ``per_op_total_ms``.

A full run exits 1 when ``cw-l2-inner`` falls below ``CW_INNER_FLOOR``
iterations/second or ``jacobian`` below ``JACOBIAN_FLOOR`` examples/second.
``--smoke`` runs a tiny configuration for CI wiring and never fails a
floor.

Full (non-smoke) runs persist ``BENCH_grad_throughput.json`` with the
provenance context (git SHA, NumPy, dataset fingerprint) the
``python -m repro bench --compare`` regression gate diffs against.
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
from bench_plan_throughput import step_name
from repro.attacks.cw import _to_w
from repro.nn import GradientEngine
from repro.nn.grad_engine import margin_seed
from repro.zoo import model_for_dataset


# 64-row plan walks per per-op repeat; the 3-row batch takes ten times as many.
OP_CALLS = 40

# The retired 1.5x ratio bars times the float64 autograd baseline's rates in
# BENCH_grad_throughput.json at commit 4771dbc (recorded at 0b30156), rounded
# up: cw-l2-inner 1.5 x 16.856 it/s = 25.284 and jacobian 1.5 x 92.424 ex/s =
# 138.636.
CW_INNER_FLOOR = 25.29
JACOBIAN_FLOOR = 138.64


def timeit(fn, repeats):
    """Best-of-``repeats`` wall clock (seconds) for one call of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def engine_cw_inner(engine, x, target_labels, c, iterations):
    """The engine-backed CW-L2 inner loop (matches attacks/cw.py)."""
    axes = tuple(range(1, x.ndim))
    c_cols = c.reshape((-1,) + (1,) * len(axes))
    w = _to_w(x)
    for _ in range(iterations):
        tanh_w = np.tanh(w)
        candidate = tanh_w * 0.5
        delta = candidate - x
        grad_f, _, _ = engine.margin_input_grad(candidate, target_labels, 0.0)
        grad = (2.0 * delta + c_cols * grad_f) * (0.5 * (1.0 - tanh_w * tanh_w))
        w = w - 0.01 * grad
    return w


def per_op_ms(engine, x, seed_of, calls: int, repeats: int) -> dict:
    """Forward and backward milliseconds per step of one engine's plan.

    Best of ``repeats`` means over ``calls``.  Each call walks the plan as
    ``run_forward`` and ``run_backward`` do: every step's ``step`` in
    order, the cotangent ``seed_of(logits)``, then every ``back_step`` in
    reverse, so each step reads what its neighbour just wrote.  Shared
    with ``bench_train_throughput.py``, whose train-mode plan's first
    conv returns no input gradient.
    """
    x = np.ascontiguousarray(x, dtype=engine.dtype)
    plan = engine._plan_for(x.shape)
    steps = plan.steps
    best = {"forward": [float("inf")] * len(steps), "backward": [float("inf")] * len(steps)}
    for _ in range(repeats):
        totals = {"forward": [0.0] * len(steps), "backward": [0.0] * len(steps)}
        for _ in range(calls):
            buf = x
            for index, op in enumerate(steps):
                start = time.perf_counter()
                buf = op.step(buf)
                totals["forward"][index] += time.perf_counter() - start
            np.copyto(plan._seed, seed_of(buf))
            grad = plan._seed
            for index in reversed(range(len(steps))):
                start = time.perf_counter()
                grad = steps[index].back_step(grad)
                totals["backward"][index] += time.perf_counter() - start
        for phase, times in totals.items():
            best[phase] = [min(b, t / calls * 1e3) for b, t in zip(best[phase], times)]
    return {
        phase: {step_name(i, op): ms for i, (op, ms) in enumerate(zip(steps, times))}
        for phase, times in best.items()
    }


# -- benchmark ------------------------------------------------------------------


def run(n_examples: int, cw_examples: int, cw_iterations: int, repeats: int, op_calls: int) -> dict:
    dataset, model = model_for_dataset("mnist-fast")
    x = dataset.x_test[:n_examples]
    labels = dataset.y_test[:n_examples]
    num_classes = model.num_classes

    x_cw = dataset.x_test[:cw_examples]
    targets_cw = (dataset.y_test[:cw_examples] + 1) % num_classes
    c_cw = np.full(cw_examples, 1.0)

    engine = GradientEngine(model)  # float32 default

    workloads = {
        "fgsm-batch": (lambda: engine.cross_entropy_input_grad(x, labels), "examples", len(x)),
        "cw-l2-inner": (
            lambda: engine_cw_inner(engine, x_cw, targets_cw, c_cw, cw_iterations),
            "iterations",
            cw_iterations,
        ),
        "jacobian": (lambda: engine.jacobian(x), "examples", len(x)),
    }

    results = {}
    for name, (fn, unit, amount) in workloads.items():
        fn()  # warm up caches (parameter casts, compiled plans, BLAS)
        seconds = timeit(fn, repeats)
        results[name] = {
            "unit": unit,
            "amount": amount,
            "engine": {"seconds": seconds, f"{unit}_per_sec": amount / seconds},
        }

    # A CW-L2 attack on one image and three targets runs 3 rows; 64 is a
    # full bucket.
    ops_ms = {}
    for rows, calls in ((3, 10 * op_calls), (64, op_calls)):
        x_ops = dataset.x_test[:rows]
        targets_ops = (dataset.y_test[:rows] + 1) % num_classes
        ops_ms[f"rows_{rows}"] = per_op_ms(
            engine, x_ops, lambda logits: margin_seed(logits, targets_ops)[0], calls, repeats
        )

    floors = floor_gates(
        results,
        {
            "cw-l2-inner.engine.iterations_per_sec": CW_INNER_FLOOR,
            "jacobian.engine.examples_per_sec": JACOBIAN_FLOOR,
        },
    )
    return {
        "context": bench_context(
            dataset=dataset.name,
            dataset_fingerprint=dataset_fingerprint(x),
            examples=len(x),
            cw_examples=len(x_cw),
            cw_iterations=cw_iterations,
            repeats=repeats,
            op_calls=op_calls,
        ),
        "dataset": dataset.name,
        "examples": len(x),
        "cw_examples": len(x_cw),
        "cw_iterations": cw_iterations,
        "repeats": repeats,
        "results": results,
        "per_op_ms": ops_ms,
        "per_op_total_ms": {
            rows: {phase: sum(steps.values()) for phase, steps in phases.items()}
            for rows, phases in ops_ms.items()
        },
        "grad_counters": engine.counters.as_dict(),
        "floors": floors,
        "meets_floors": all(gate["holds"] for gate in floors.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=256)
    parser.add_argument("--cw-examples", type=int, default=64)
    parser.add_argument("--cw-iterations", type=int, default=30)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=None, help="also write JSON here")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, single repeat, never fails a floor (CI wiring)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.examples, args.cw_examples, args.cw_iterations, args.repeats = 32, 8, 3, 1
    if min(args.examples, args.cw_examples, args.cw_iterations, args.repeats) < 1:
        parser.error("--examples/--cw-examples/--cw-iterations/--repeats must be >= 1")

    op_calls = 2 if args.smoke else OP_CALLS
    payload = run(args.examples, args.cw_examples, args.cw_iterations, args.repeats, op_calls)
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    elif not args.smoke:
        path = write_payload("grad_throughput", payload)
        print(f"wrote {path}", file=sys.stderr)
    if args.smoke:
        return 0
    return 0 if payload["meets_floors"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
