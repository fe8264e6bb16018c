"""Pre-build every cached artifact the test and benchmark suites need.

Usage::

    python scripts/warm_cache.py [fast|paper]

Builds, for each dataset of the chosen scale: the dataset itself, the
standard and distilled models, the DCN detector (including its CW-L2
training pool), the Table 2 held-out pool, and the Table 4/5 robustness
pools for every CW attack against both the standard and distilled models.
Everything lands in ``.artifacts`` keyed by configuration, so benchmarks
and tests afterwards run from cache.

Training runs on the fused float32
:class:`~repro.nn.train_engine.TrainingEngine` path (the library default
since PR 3); per-model engine counters are logged so cold warms show how
much work the fused kernels absorbed.
"""

from __future__ import annotations

import sys
import time

from repro.eval import build_context, scale_config, table2_detector_rates
from repro.eval.harness import CW_ATTACKS


def log(message: str, start: float) -> None:
    print(f"[{time.perf_counter() - start:7.1f}s] {message}", flush=True)


def _train_counters(network) -> str:
    """Render a network's training-engine counters (all zero on cache hits)."""
    counters = network.train_engine.counters
    if not counters.batches:
        return "cached (no training this run)"
    return (
        f"{counters.batches} fused batches / {counters.examples} examples "
        f"in {counters.seconds:.1f}s kernel time"
    )


def warm(scale_name: str | None = None) -> None:
    start = time.perf_counter()
    scale = scale_config(scale_name)
    log(f"scale = {scale.name}", start)
    for dataset_name in (scale.mnist, scale.cifar):
        ctx = build_context(dataset_name, scale)
        log(f"{dataset_name}: model ready (acc={ctx.model.accuracy(ctx.dataset.x_test, ctx.dataset.y_test):.4f})", start)
        log(f"{dataset_name}: model training {_train_counters(ctx.model)}", start)
        ctx.distilled
        log(f"{dataset_name}: distilled model ready; student {_train_counters(ctx.distilled.network)}", start)
        ctx.dcn  # trains detector (builds its CW-L2 pool)
        log(f"{dataset_name}: detector ready; {_train_counters(ctx.dcn.detector.network)}", start)
        log(f"{dataset_name}: corrector radius calibrated to r={ctx.radius}", start)
        rates = table2_detector_rates(ctx)
        log(f"{dataset_name}: table2 pool ready {rates}", start)
        for attack in CW_ATTACKS:
            ctx.pool(attack)
            log(f"{dataset_name}: {attack} pool (standard) ready", start)
            ctx.pool(attack, network=ctx.distilled.network, model_tag="distilled")
            log(f"{dataset_name}: {attack} pool (distilled) ready", start)
    log("cache warm", start)


if __name__ == "__main__":
    warm(sys.argv[1] if len(sys.argv) > 1 else None)
