"""Throughput benchmark for the TrainingEngine (standalone, JSON output).

Measures epochs/second of the training loops that dominate the repo's
cache-warm cost on the ``engine`` (fused float32 parameter-gradient
kernels, through :func:`repro.nn.fit`):

* ``cnn-fast``     — the -fast preset CNN on mnist-fast (the workhorse of
                     every test-suite model build)
* ``cnn-paper``    — the full-size Carlini-style CNN on the 28x28
                     mnist-like dataset (paper-scale runs)
* ``detector-mlp`` — the DCN detector's 2-layer logit MLP (many epochs on
                     tiny batches; per-batch overhead dominates)

Run as a script::

    PYTHONPATH=src python benchmarks/bench_train_throughput.py
    PYTHONPATH=src python benchmarks/bench_train_throughput.py --out bench.json
    PYTHONPATH=src python benchmarks/bench_train_throughput.py --smoke

``per_op_ms`` breaks one 64-row ``cnn-fast`` training step (the train-mode
plan's forward + cross-entropy backward) down by plan step: forward and
backward milliseconds per step, timed in one loop so the steps sum to
``per_op_total_ms``.

A full run exits 1 when ``cnn-fast`` falls below ``CNN_FAST_FLOOR``
epochs/second.  ``--smoke`` runs a tiny configuration for CI wiring
(skipping the paper-scale CNN) and never fails the floor.  That ``fit``
trains what a float64 autograd loop trains, to a final loss within 1e-4
on the smoke's two shapes, is a tier-1 test
(``tests/test_train_equivalence.py``).

Full (non-smoke) runs persist ``BENCH_train_throughput.json`` with the
provenance context (git SHA, NumPy, dataset fingerprint) the
``python -m repro bench --compare`` regression gate diffs against.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from bench_common import bench_context, dataset_fingerprint, floor_gates, write_payload
from bench_grad_throughput import per_op_ms
from repro.core.detector import build_detector_network
from repro.datasets import load_dataset
from repro.nn import Adam, TrainConfig, TrainingEngine, fit
from repro.nn.train_engine import CROSS_ENTROPY
from repro.zoo import MODEL_CONFIGS, build_network

# 64-row training-step walks per per-op repeat.
OP_CALLS = 40
OP_ROWS = 64

# Epochs/second ``cnn-fast`` must reach: the retired 2x ratio bar times the
# float64 autograd baseline's rate in BENCH_train_throughput.json at commit
# 4771dbc (recorded at 0b30156), rounded up: 2 x 2.07860 = 4.15720.
CNN_FAST_FLOOR = 4.158


def _train(network, optimizer, x, y, config) -> float:
    """Seconds of one seeded ``fit`` run."""
    return fit(network, optimizer, x, y, config, np.random.default_rng(1)).seconds


def _cnn_workload(dataset_name: str, model_name: str, examples: int, epochs: int):
    dataset = load_dataset(dataset_name)
    config = MODEL_CONFIGS[model_name]
    x = dataset.x_train[:examples]
    y = dataset.y_train[:examples]

    def run_once() -> float:
        network = build_network(config, dataset.input_shape, 10)
        optimizer = Adam(network.parameters(), lr=config.learning_rate)
        return _train(
            network, optimizer, x, y, TrainConfig(epochs=epochs, batch_size=config.batch_size)
        )

    return run_once, len(x), epochs


def _detector_workload(examples: int, epochs: int):
    rng = np.random.default_rng(0)
    half = examples // 2
    benign = rng.normal(size=(half, 10))
    benign[np.arange(half), rng.integers(0, 10, half)] += 10.0
    features = np.sort(np.concatenate([benign, rng.normal(size=(half, 10))]), axis=-1)
    labels = np.concatenate([np.zeros(half, dtype=int), np.ones(half, dtype=int)])

    def run_once() -> float:
        network = build_detector_network()
        optimizer = Adam(network.parameters(), lr=1e-2)
        return _train(network, optimizer, features, labels, TrainConfig(epochs=epochs, batch_size=64))

    return run_once, len(features), epochs


def train_per_op_ms(calls: int, repeats: int) -> dict:
    """``per_op_ms`` of one ``OP_ROWS``-row ``cnn-fast`` training step.

    The step's parameter gradients accumulate into a throwaway network.
    """
    dataset = load_dataset("mnist-fast")
    network = build_network(MODEL_CONFIGS["cnn-fast"], dataset.input_shape, 10)
    x, y = dataset.x_train[:OP_ROWS], dataset.y_train[:OP_ROWS]
    engine = TrainingEngine(network)

    def seed_of(logits):
        return CROSS_ENTROPY.value_and_seed(logits.astype(np.float64), y)[1]

    with engine.parameters_bound():
        return per_op_ms(engine, x, seed_of, calls, repeats)


def run(examples: int, epochs: int, detector_epochs: int, repeats: int, smoke: bool, op_calls: int) -> dict:
    workloads = {
        "cnn-fast": _cnn_workload("mnist-fast", "cnn-fast", examples, epochs),
        "detector-mlp": _detector_workload(600, detector_epochs),
    }
    if not smoke:
        workloads["cnn-paper"] = _cnn_workload("mnist-like", "cnn-paper", examples // 2, max(1, epochs // 2))

    results = {}
    for name, (run_once, amount, n_epochs) in workloads.items():
        best = min(run_once() for _ in range(repeats))
        results[name] = {
            "examples": amount,
            "epochs": n_epochs,
            "engine": {"seconds": best, "epochs_per_sec": n_epochs / best},
        }

    ops_ms = {f"rows_{OP_ROWS}": train_per_op_ms(op_calls, repeats)}
    floors = floor_gates(results, {"cnn-fast.engine.epochs_per_sec": CNN_FAST_FLOOR})
    train_x = load_dataset("mnist-fast").x_train[:examples]
    return {
        "context": bench_context(
            dataset="mnist-fast",
            dataset_fingerprint=dataset_fingerprint(train_x),
            examples=examples,
            epochs=epochs,
            detector_epochs=detector_epochs,
            repeats=repeats,
            smoke=smoke,
            op_calls=op_calls,
        ),
        "examples": examples,
        "repeats": repeats,
        "results": results,
        "per_op_ms": ops_ms,
        "per_op_total_ms": {
            rows: {phase: sum(steps.values()) for phase, steps in phases.items()}
            for rows, phases in ops_ms.items()
        },
        "floors": floors,
        "meets_floors": all(gate["holds"] for gate in floors.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=512)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--detector-epochs", type=int, default=60)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--out", type=Path, default=None, help="also write JSON here")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, single repeat, never fails the floor (CI wiring)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.examples, args.epochs, args.detector_epochs, args.repeats = 64, 1, 5, 1
    if min(args.examples, args.epochs, args.detector_epochs, args.repeats) < 1:
        parser.error("--examples/--epochs/--detector-epochs/--repeats must be >= 1")

    op_calls = 2 if args.smoke else OP_CALLS
    payload = run(args.examples, args.epochs, args.detector_epochs, args.repeats, args.smoke, op_calls)
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    elif not args.smoke:
        path = write_payload("train_throughput", payload)
        print(f"wrote {path}", file=sys.stderr)
    if args.smoke:
        return 0
    return 0 if payload["meets_floors"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
