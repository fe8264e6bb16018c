"""Throughput benchmark for the GradientEngine (standalone, JSON output).

Measures the digits-CNN input-gradient paths that dominate the paper's
attack evaluation, each as ``legacy`` (float64 autograd graph) vs
``engine`` (fused float32 kernels):

* ``fgsm-batch``    — one batched cross-entropy gradient (the FGSM step)
* ``cw-l2-inner``   — iterations of the CW-L2 objective (margin gradient
                      plus the tanh/distance chain rule, the attack's hot
                      loop)
* ``jacobian``      — the full 10-class logits Jacobian (JSMA/DeepFool);
                      the engine does 1 forward + 10 seeded backwards,
                      the legacy path 10 full forward+backward passes

Run as a script::

    PYTHONPATH=src python benchmarks/bench_grad_throughput.py
    PYTHONPATH=src python benchmarks/bench_grad_throughput.py --out bench.json
    PYTHONPATH=src python benchmarks/bench_grad_throughput.py --smoke

``per_op_ms`` breaks the ``cnn-fast`` margin-gradient plan (the CW-L2
inner loop's forward + backward) down by plan step, at the attack's 3-row
batch and a 64-row one: forward and backward milliseconds per step, timed
in one loop so the steps sum to ``per_op_total_ms``.

The acceptance bar from the gradient-engine refactor: the engine must beat
legacy by >= 1.5x on ``cw-l2-inner`` and ``jacobian``.  ``--smoke`` runs a
tiny configuration for CI wiring and does not enforce the bar.

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

from bench_common import bench_context, dataset_fingerprint, write_payload
from bench_plan_throughput import step_name
from repro.attacks.cw import _margin_loss, _to_w
from repro.nn import GradientEngine, Tensor, losses, ops
from repro.nn.grad_engine import margin_seed
from repro.zoo import model_for_dataset


# 64-row plan walks per per-op repeat; the 3-row batch takes ten times as many.
OP_CALLS = 40


def timeit(fn, repeats):
    """Best-of-``repeats`` wall clock (seconds) for one call of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- legacy (autograd) reference implementations --------------------------------


def legacy_cross_entropy_grad(network, x, labels):
    inp = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
    logits = network.forward(inp)
    targets = losses.one_hot(labels, logits.shape[-1])
    log_probs = ops.log_softmax(logits)
    ops.mul(ops.sum_(ops.mul(log_probs, targets)), -1.0).backward()
    return inp.grad


def legacy_jacobian(network, x):
    num_classes = network.num_classes
    rows = np.empty((len(x), num_classes) + x.shape[1:])
    for c in range(num_classes):
        inp = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
        logits = network.forward(inp)
        selector = np.zeros(logits.shape)
        selector[:, c] = 1.0
        ops.sum_(ops.mul(logits, selector)).backward()
        rows[:, c] = inp.grad
    return rows


def legacy_cw_inner(network, x, onehot, c, iterations):
    """The pre-engine CW-L2 inner loop: full autograd graph per iteration."""
    axes = tuple(range(1, x.ndim))
    w = _to_w(x)
    for _ in range(iterations):
        w_tensor = Tensor(w, requires_grad=True)
        candidate = ops.mul(ops.tanh(w_tensor), 0.5)
        delta = candidate - Tensor(x)
        l2_sq = ops.sum_(ops.mul(delta, delta), axis=axes)
        logits = network.forward(candidate)
        f = _margin_loss(logits, onehot, 0.0)
        ops.sum_(l2_sq + ops.mul(f, Tensor(c))).backward()
        w = w - 0.01 * w_tensor.grad
    return w


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
    rng = np.random.default_rng(0)
    x = dataset.x_test[:n_examples]
    labels = dataset.y_test[:n_examples]
    num_classes = model.num_classes

    x_cw = dataset.x_test[:cw_examples]
    targets_cw = (dataset.y_test[:cw_examples] + 1) % num_classes
    onehot_cw = losses.one_hot(targets_cw, num_classes)
    c_cw = np.full(cw_examples, 1.0)

    engine = GradientEngine(model)  # float32 default

    workloads = {
        "fgsm-batch": {
            "legacy": lambda: legacy_cross_entropy_grad(model, x, labels),
            "engine": lambda: engine.cross_entropy_input_grad(x, labels),
            "unit": "examples",
            "amount": len(x),
        },
        "cw-l2-inner": {
            "legacy": lambda: legacy_cw_inner(model, x_cw, onehot_cw, c_cw, cw_iterations),
            "engine": lambda: engine_cw_inner(engine, x_cw, targets_cw, c_cw, cw_iterations),
            "unit": "iterations",
            "amount": cw_iterations,
        },
        "jacobian": {
            "legacy": lambda: legacy_jacobian(model, x),
            "engine": lambda: engine.jacobian(x),
            "unit": "examples",
            "amount": len(x),
        },
    }

    results = {}
    for name, spec in workloads.items():
        entry = {"unit": spec["unit"], "amount": spec["amount"]}
        for variant in ("legacy", "engine"):
            fn = spec[variant]
            fn()  # warm up caches (parameter casts, compiled plans, BLAS)
            seconds = timeit(fn, repeats)
            entry[variant] = {
                "seconds": seconds,
                f"{spec['unit']}_per_sec": spec["amount"] / seconds,
            }
        entry["speedup"] = entry["legacy"]["seconds"] / entry["engine"]["seconds"]
        results[name] = entry

    # A CW-L2 attack on one image and three targets runs 3 rows; 64 is a
    # full bucket.
    ops_ms = {}
    for rows, calls in ((3, 10 * op_calls), (64, op_calls)):
        x_ops = dataset.x_test[:rows]
        targets_ops = (dataset.y_test[:rows] + 1) % num_classes
        ops_ms[f"rows_{rows}"] = per_op_ms(
            engine, x_ops, lambda logits: margin_seed(logits, targets_ops)[0], calls, repeats
        )

    # Numerical sanity alongside the throughput claim.
    reference = legacy_cross_entropy_grad(model, x, labels)
    f32 = engine.cross_entropy_input_grad(x, labels)
    scale = max(float(np.abs(reference).max()), 1e-12)
    bar = (
        results["cw-l2-inner"]["speedup"] >= 1.5 and results["jacobian"]["speedup"] >= 1.5
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
        "f32_max_rel_error": float(np.abs(f32.astype(np.float64) - reference).max() / scale),
        "grad_counters": engine.counters.as_dict(),
        "meets_1p5x_bar": bool(bar),
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
        help="tiny sizes, single repeat, never fails the speedup bar (CI wiring)",
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
    return 0 if payload["meets_1p5x_bar"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
