"""Unit plans for the paper's tables/figures, and their assembly.

Each ``plan_*`` function decomposes one experiment into addressable
:class:`~repro.runner.units.WorkUnit`\\ s; the matching ``assemble_*``
rebuilds the harness's legacy result shape from a
:class:`~repro.runner.runner.RunResult`'s records — tolerating holes, so a
run with failed units yields a table with reduced per-cell coverage
instead of an exception.

Decomposition choices:

* **Tables 4/5** split three ways: *setup* units force each defense's lazy
  construction (detector training, distillation) under fault isolation;
  *craft* units build each distinct adversarial pool (the expensive step,
  disk-cached so later units reload it); *eval* units score one
  defense x attack x **seed-chunk**, returning raw hit/total counts that
  sum exactly to the cell's success rate.  Chunked classification is the
  canonical path: the RC/corrector noise is a pure function of
  ``(seed, batch digest)``, so a chunk's labels depend only on the chunk's
  own content — which is what makes a resumed run byte-identical to an
  uninterrupted one.
* **Table 3** is one unit per defense; each re-derives the identical
  benign sample from ``default_rng(seed)``, so results match the legacy
  single-loop exactly.
* **Table 6** is one unit per adversarial fraction, with the mix drawn
  from ``default_rng([seed, index])`` — per-fraction streams instead of
  the legacy single shared stream, so a unit's mix no longer depends on
  which fractions ran before it.
* **Table 2** is a single unit (one detector, one pool, one pass);
  **Fig. 4** is one unit per corrector sample count ``m``.

This module imports the eval harness, so the runner core
(:mod:`repro.runner`) must never import it at package level — the harness
imports the runner lazily, inside functions.
"""

from __future__ import annotations

import math

import numpy as np

from ..eval import harness
from ..eval.adversarial_sets import untargeted_from_pool
from ..eval.timing import monotonic, profile_defense, time_defense
from .runner import RunResult
from .units import WorkUnit

__all__ = [
    "EXPERIMENTS",
    "plan_experiments",
    "plan_table2",
    "assemble_table2",
    "plan_table3",
    "assemble_table3",
    "plan_table45",
    "assemble_table45",
    "plan_table6",
    "assemble_table6",
    "plan_fig4",
    "assemble_fig4",
]

#: Canonical experiment names, in plan order.
EXPERIMENTS = ("table2", "table3", "table45", "table6", "fig4")


def plan_experiments(ctx, chosen=None, chunk_seeds: int = 6) -> list["WorkUnit"]:
    """One flat unit plan for the chosen experiments, in canonical order.

    The single planning entry point shared by the sequential CLI path and
    the worker pool: every process that plans from the same
    ``(ctx, chosen, chunk_seeds)`` derives the identical keyed plan, which
    is what lets pool workers lease against a common ledger.
    """
    planners = {
        "table2": lambda: plan_table2(ctx),
        "table3": lambda: plan_table3(ctx),
        "table45": lambda: plan_table45(ctx, chunk_seeds=chunk_seeds),
        "table6": lambda: plan_table6(ctx),
        "fig4": lambda: plan_fig4(ctx),
    }
    names = list(chosen) if chosen else list(EXPERIMENTS)
    for name in names:
        if name not in planners:
            raise ValueError(f"unknown experiment {name!r} (choose from {EXPERIMENTS})")
    return [unit for name in names for unit in planners[name]()]

_DEFENSE_ATTRS = {
    "standard": "standard",
    "distillation": "distilled",
    "rc": "rc",
    "dcn": "dcn",
}

_METRICS = {"cw-l0": "l0", "cw-l2": "l2", "cw-linf": "linf"}


def _seed_chunks(num_seeds: int, chunk_seeds: int) -> list[tuple[int, int]]:
    chunk_seeds = max(1, int(chunk_seeds))
    return [(lo, min(lo + chunk_seeds, num_seeds)) for lo in range(0, num_seeds, chunk_seeds)]


def _model_nets(ctx) -> tuple:
    return (ctx.model,)


def _defense_nets(ctx, defense_name: str) -> tuple:
    """Networks whose engines the degradation ladder swaps for this cell."""
    if defense_name == "distillation":
        return (ctx.distilled.network,)
    return (ctx.model,)


# ---------------------------------------------------------------------------
# Table 2 — detector false rates
# ---------------------------------------------------------------------------


def plan_table2(ctx, seed: int = 202) -> list[WorkUnit]:
    def fn():
        # The un-routed body — calling the public table function here would
        # recurse straight back into plan_table2.
        return {str(k): float(v) for k, v in harness._table2_compute(ctx, seed=seed).items()}

    return [
        WorkUnit(
            experiment="table2",
            dataset=ctx.dataset.name,
            attack="cw-l2",
            fn=fn,
            networks=lambda: _model_nets(ctx),
            digest=f"seed={seed}",
        )
    ]


def assemble_table2(result: RunResult, units: list[WorkUnit]) -> dict[str, float]:
    record = result.records.get(units[0].key)
    if record is None or record.get("status") != "ok":
        return {"false_negative": math.nan, "false_positive": math.nan}
    return dict(record["payload"])


# ---------------------------------------------------------------------------
# Table 3 — benign accuracy and runtime
# ---------------------------------------------------------------------------


def plan_table3(ctx, count: int | None = None, seed: int = 303) -> list[WorkUnit]:
    if count is None:
        count = ctx.scale.benign_mnist if "mnist" in ctx.dataset.name else ctx.scale.benign_cifar
    units = []
    for name, attr in _DEFENSE_ATTRS.items():

        def fn(name=name, attr=attr):
            defense = getattr(ctx, attr)
            # Every defense unit re-derives the identical benign sample, so
            # the per-unit decomposition scores the same inputs the legacy
            # single loop did.
            rng = np.random.default_rng(seed)
            x, y, _ = ctx.dataset.sample_test(count, rng)
            labels, seconds = time_defense(defense, x)
            return {"accuracy": float((labels == y).mean()), "seconds": seconds}

        units.append(
            WorkUnit(
                experiment="table3",
                dataset=ctx.dataset.name,
                defense=name,
                fn=fn,
                networks=lambda name=name: _defense_nets(ctx, name),
                digest=f"seed={seed},count={count}",
            )
        )
    return units


def assemble_table3(result: RunResult, units: list[WorkUnit]) -> dict[str, dict[str, float]]:
    rows: dict[str, dict[str, float]] = {}
    for unit in units:
        record = result.records.get(unit.key)
        if record is not None and record.get("status") == "ok":
            rows[unit.defense] = dict(record["payload"])
        else:
            rows[unit.defense] = {"accuracy": math.nan, "seconds": math.nan}
    return rows


# ---------------------------------------------------------------------------
# Tables 4/5 — attack success rates
# ---------------------------------------------------------------------------


def _pool_for(ctx, defense_name: str, attack_name: str, seed: int):
    """The (disk-cached) pool a defense is scored against — white-box."""
    if defense_name == "distillation":
        return ctx.pool(attack_name, network=ctx.distilled.network, model_tag="distilled", seed=seed)
    return ctx.pool(attack_name, seed=seed)


def _eval_chunk(defense, pool, attack_name: str, lo: int, hi: int) -> dict[str, int]:
    """Raw targeted/untargeted hit counts for seeds ``[lo, hi)``.

    Summed over chunks these reproduce :func:`attack_success_rate` exactly:
    its numerator is the count of crafted-and-misclassified entries, its
    denominator the count of attempts — both additive over seed ranges.
    """
    per = pool.targets_per_seed
    block = slice(lo * per, hi * per)
    crafted = pool.success[block]
    targeted_hits = 0
    if crafted.any():
        labels = defense.classify(pool.adversarial[block][crafted])
        targeted_hits = int((labels != pool.tiled_labels[block][crafted]).sum())

    untargeted = untargeted_from_pool(pool, _METRICS.get(attack_name, "l2"))
    u_crafted = untargeted.success[lo:hi]
    untargeted_hits = 0
    if u_crafted.any():
        labels = defense.classify(untargeted.adversarial[lo:hi][u_crafted])
        untargeted_hits = int((labels != untargeted.source_labels[lo:hi][u_crafted]).sum())
    return {
        "targeted_hits": targeted_hits,
        "targeted_total": (hi - lo) * per,
        "untargeted_hits": untargeted_hits,
        "untargeted_total": hi - lo,
    }


def plan_table45(
    ctx,
    attacks: tuple[str, ...] = harness.CW_ATTACKS,
    seed: int = 202,
    chunk_seeds: int = 6,
) -> list[WorkUnit]:
    ds = ctx.dataset.name
    units: list[WorkUnit] = []

    # Setup units: force each defense's lazy construction (detector
    # training, distillation, radius calibration) inside fault isolation,
    # so a failure there is a journaled hole, not a dead run.
    for name, attr in _DEFENSE_ATTRS.items():

        def setup(attr=attr):
            defense = getattr(ctx, attr)
            return {"built": type(defense).__name__}

        units.append(
            WorkUnit(
                experiment="table45",
                dataset=ds,
                defense=name,
                chunk="setup",
                fn=setup,
                networks=lambda: _model_nets(ctx),
            )
        )

    # Craft units: one per distinct pool (standard-model pools serve
    # standard/RC/DCN; distillation is attacked white-box on its own net).
    for model_tag, defense_name in (("standard", "standard"), ("distilled", "distillation")):
        for attack_name in attacks:

            def craft(defense_name=defense_name, attack_name=attack_name):
                pool = _pool_for(ctx, defense_name, attack_name, seed)
                return {"crafted": int(pool.success.sum()), "entries": int(len(pool.targets))}

            units.append(
                WorkUnit(
                    experiment="table45",
                    dataset=ds,
                    defense=f"pool-{model_tag}",
                    attack=attack_name,
                    chunk="craft",
                    fn=craft,
                    networks=lambda d=defense_name: _defense_nets(ctx, d),
                    digest=f"seed={seed},num_seeds={ctx.scale.robustness_seeds}",
                )
            )

    # Eval units: defense x attack x seed-chunk, returning additive counts.
    chunks = _seed_chunks(ctx.scale.robustness_seeds, chunk_seeds)
    for defense_name in _DEFENSE_ATTRS:
        for attack_name in attacks:
            for lo, hi in chunks:

                def fn(defense_name=defense_name, attack_name=attack_name, lo=lo, hi=hi):
                    defense = getattr(ctx, _DEFENSE_ATTRS[defense_name])
                    pool = _pool_for(ctx, defense_name, attack_name, seed)
                    return _eval_chunk(defense, pool, attack_name, lo, hi)

                units.append(
                    WorkUnit(
                        experiment="table45",
                        dataset=ds,
                        defense=defense_name,
                        attack=attack_name,
                        chunk=f"seeds{lo:03d}-{hi:03d}",
                        fn=fn,
                        networks=lambda d=defense_name: _defense_nets(ctx, d),
                        digest=f"seed={seed}",
                    )
                )
    return units


def assemble_table45(
    result: RunResult,
    units: list[WorkUnit],
    attacks: tuple[str, ...] = harness.CW_ATTACKS,
) -> dict[str, dict[str, dict[str, float]]]:
    """Legacy ``rows[defense][attack]`` shape, plus per-cell coverage.

    Each cell carries ``coverage = (n_ok_chunks, n_chunk_units)``; rates
    are computed over the covered chunks (``nan`` when nothing covered).
    """
    eval_units = [u for u in units if u.experiment == "table45" and u.chunk.startswith("seeds")]
    rows: dict[str, dict[str, dict[str, float]]] = {}
    for defense_name in _DEFENSE_ATTRS:
        rows[defense_name] = {}
        for attack_name in attacks:
            cell_units = [
                u for u in eval_units if u.defense == defense_name and u.attack == attack_name
            ]
            sums = {"targeted_hits": 0, "targeted_total": 0, "untargeted_hits": 0, "untargeted_total": 0}
            ok = 0
            for unit in cell_units:
                record = result.records.get(unit.key)
                if record is None or record.get("status") != "ok":
                    continue
                ok += 1
                for field in sums:
                    sums[field] += int(record["payload"][field])
            rows[defense_name][attack_name] = {
                "targeted": sums["targeted_hits"] / sums["targeted_total"]
                if sums["targeted_total"]
                else math.nan,
                "untargeted": sums["untargeted_hits"] / sums["untargeted_total"]
                if sums["untargeted_total"]
                else math.nan,
                "coverage": (ok, len(cell_units)),
            }
    return rows


# ---------------------------------------------------------------------------
# Table 6 / Fig. 5 — runtime vs adversarial fraction
# ---------------------------------------------------------------------------


def plan_table6(
    ctx,
    fractions: tuple[float, ...] = (0.0, 0.05, 0.10, 0.25, 0.50, 0.75, 1.0),
    total: int = 100,
    seed: int = 404,
) -> list[WorkUnit]:
    units = []
    for index, fraction in enumerate(fractions):

        def fn(index=index, fraction=fraction):
            pool = ctx.pool("cw-l2")
            adv_images, adv_labels, _ = pool.successful()
            # Per-fraction stream: the mix for one fraction must not depend
            # on which fractions ran (or were replayed) before it.
            rng = np.random.default_rng([seed, index])
            adv_count = int(round(total * fraction))
            benign_count = total - adv_count
            x_benign, y_benign, _ = ctx.dataset.sample_test(benign_count, rng)
            pick = rng.integers(0, len(adv_images), size=adv_count)
            x = np.concatenate([x_benign, adv_images[pick]])
            y = np.concatenate([y_benign, adv_labels[pick]])
            order = rng.permutation(total)
            x, y = x[order], y[order]
            dcn = profile_defense(ctx.dcn, x, ctx.model.engine, grad_engine=ctx.model.grad_engine)
            rc = profile_defense(ctx.rc, x, ctx.model.engine, grad_engine=ctx.model.grad_engine)
            # The paper's cost model, beside the measured early-exit counts
            # (the logits are memoised by the DCN call above).
            flagged = int(ctx.dcn.detector.is_adversarial(ctx.model.engine.logits(x)).sum())
            return {
                "fraction": fraction,
                "dcn_seconds": dcn.seconds,
                "rc_seconds": rc.seconds,
                "dcn_accuracy": float((dcn.labels == y).mean()),
                "rc_accuracy": float((rc.labels == y).mean()),
                "dcn_forward_examples": dcn.forward_examples,
                "rc_forward_examples": rc.forward_examples,
                "dcn_model_forwards": total + flagged * ctx.dcn.corrector.samples,
                "rc_model_forwards": total * ctx.rc.samples,
                "dcn_backward_examples": dcn.backward_examples,
                "rc_backward_examples": rc.backward_examples,
            }

        units.append(
            WorkUnit(
                experiment="table6",
                dataset=ctx.dataset.name,
                attack="cw-l2",
                chunk=f"frac{int(round(100 * fraction)):03d}",
                fn=fn,
                networks=lambda: _model_nets(ctx),
                digest=f"seed={seed},index={index},total={total}",
            )
        )
    return units


def assemble_table6(result: RunResult, units: list[WorkUnit]) -> list[dict[str, float]]:
    rows = []
    for unit in units:
        record = result.records.get(unit.key)
        if record is not None and record.get("status") == "ok":
            rows.append(dict(record["payload"]))
    return rows


# ---------------------------------------------------------------------------
# Fig. 4 — corrector accuracy/runtime vs m
# ---------------------------------------------------------------------------


def plan_fig4(
    ctx,
    sample_counts: tuple[int, ...] = (10, 25, 50, 100, 250, 500, 1000),
    seed: int = 505,
) -> list[WorkUnit]:
    from ..core import Corrector

    units = []
    for m in sample_counts:

        def fn(m=m):
            pool = ctx.pool("cw-l2")
            adv_images, adv_labels, _ = pool.successful()
            corrector = Corrector(ctx.model, radius=ctx.radius, samples=m, seed=seed)
            before = ctx.model.engine.counters.examples
            start = monotonic()
            labels = corrector.correct(adv_images)
            seconds = monotonic() - start
            return {
                "m": m,
                "recovery_accuracy": float((labels == adv_labels).mean()),
                "seconds": seconds,
                # Measured early-exit forwards; the paper's model charges m.
                "forwards_per_row": (ctx.model.engine.counters.examples - before)
                / max(1, len(adv_images)),
            }

        units.append(
            WorkUnit(
                experiment="fig4",
                dataset=ctx.dataset.name,
                attack="cw-l2",
                chunk=f"m{m:04d}",
                fn=fn,
                networks=lambda: _model_nets(ctx),
                digest=f"seed={seed}",
            )
        )
    return units


def assemble_fig4(result: RunResult, units: list[WorkUnit]) -> list[dict[str, float]]:
    rows = []
    for unit in units:
        record = result.records.get(unit.key)
        if record is not None and record.get("status") == "ok":
            rows.append(dict(record["payload"]))
    return rows
