"""Benchmark regression gate: classify deltas between ``BENCH_*.json`` files.

The standalone benchmarks persist their numbers (plus a provenance
``context`` block — git SHA, NumPy version, dataset fingerprint, run
parameters) as ``BENCH_<name>.json``.  This module diffs two such
payloads and classifies every comparable metric as a **regression**, an
**improvement** or **unchanged** against a relative threshold — the
delta-rs-benchmarking pattern the ROADMAP names.

Comparability is decided by metric name, not by schema knowledge:

* ``*_per_sec`` and ``*speedup`` are rates — higher is better;
* ``*seconds`` are durations — lower is better;
* every other numeric leaf (error bounds, counters, amounts) is carried
  as informational context and never gates.

Run-parameter drift makes numbers incomparable (a ``--smoke`` run against
a full baseline, a different batch size, a different input pool), so
context keys other than pure provenance (git SHA, timestamps, toolchain
versions) are diffed too.  Any such mismatch is reported per key and no
metric is classified: the comparison is not ``ok`` and ends with
``context mismatch, not compared``.

CLI: ``python -m repro bench --compare base.json [current.json]``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "REPO_ROOT_HINT",
    "MetricDelta",
    "BenchComparison",
    "compare_payloads",
    "compare_files",
    "format_comparison",
    "metric_direction",
]

#: Repo root — where the committed ``BENCH_*.json`` baselines live.
REPO_ROOT_HINT = Path(__file__).resolve().parents[2]

# Context keys that legitimately differ between runs being compared.
_PROVENANCE_KEYS = frozenset({"git_sha", "timestamp_utc", "python", "numpy", "platform"})


def metric_direction(name: str) -> str:
    """``"higher"``, ``"lower"`` or ``"info"`` for a flattened metric name."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("_per_sec") or leaf.endswith("speedup"):
        return "higher"
    if leaf.endswith("seconds"):
        return "lower"
    # Latency-style names: milliseconds, percentile leaves (p50/p95/p99,
    # bare or with a unit suffix), and anything naming latency outright.
    if leaf.endswith("_ms") or "latency" in leaf:
        return "lower"
    # A percentile leaf ends in pNN, optionally followed by one unit
    # suffix ("serve_p95", "tail_p99_us", bare "p50").  The token must be
    # terminal: "top_p5_accuracy" is an accuracy, not a latency.
    stem = leaf
    for unit in ("_ms", "_us", "_ns", "_sec", "_s"):
        if stem.endswith(unit):
            stem = stem[: -len(unit)]
            break
    tail = stem.rsplit("_", 1)[-1]
    if len(tail) >= 2 and tail[0] == "p" and tail[1:].isdigit():
        return "lower"
    return "info"


def _flatten(node, prefix: str = "") -> dict[str, float]:
    """Numeric scalar leaves of a nested results dict, dot-joined paths."""
    flat: dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            flat.update(_flatten(value, path))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        flat[prefix] = float(node)
    return flat


@dataclass(frozen=True)
class MetricDelta:
    """One compared metric."""

    name: str
    base: float
    current: float
    change: float  # signed relative change in the metric's value
    classification: str  # "regression" | "improvement" | "unchanged" | "info"

    @property
    def gated(self) -> bool:
        return self.classification in ("regression", "improvement", "unchanged")


@dataclass
class BenchComparison:
    """Outcome of one base-vs-current diff."""

    threshold: float
    deltas: list[MetricDelta] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # in base, not in current
    added: list[str] = field(default_factory=list)  # in current, not in base
    context_mismatches: dict[str, tuple] = field(default_factory=dict)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.classification == "regression"]

    @property
    def improvements(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.classification == "improvement"]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.context_mismatches


def _classify(name: str, base: float, current: float, threshold: float) -> MetricDelta:
    direction = metric_direction(name)
    if base == 0 or not math.isfinite(base) or not math.isfinite(current):
        change = math.nan
    else:
        change = current / base - 1.0
    if direction == "info" or math.isnan(change):
        cls = "info"
    else:
        # "Better" is positive change for rates, negative for durations.
        better = change if direction == "higher" else -change
        if better < -threshold:
            cls = "regression"
        elif better > threshold:
            cls = "improvement"
        else:
            cls = "unchanged"
    return MetricDelta(name=name, base=base, current=current, change=change, classification=cls)


def compare_payloads(base: dict, current: dict, threshold: float = 0.10) -> BenchComparison:
    """Diff two persisted benchmark payloads (see module docstring)."""
    comparison = BenchComparison(threshold=threshold)

    base_ctx = base.get("context", {}) or {}
    current_ctx = current.get("context", {}) or {}
    for key in sorted(set(base_ctx) | set(current_ctx)):
        if key in _PROVENANCE_KEYS:
            continue
        if base_ctx.get(key) != current_ctx.get(key):
            comparison.context_mismatches[key] = (base_ctx.get(key), current_ctx.get(key))

    base_metrics = _flatten(base.get("results", {}))
    current_metrics = _flatten(current.get("results", {}))
    comparison.missing = sorted(set(base_metrics) - set(current_metrics))
    comparison.added = sorted(set(current_metrics) - set(base_metrics))
    if not comparison.context_mismatches:
        comparison.deltas = [
            _classify(name, base_metrics[name], current_metrics[name], threshold)
            for name in sorted(base_metrics.keys() & current_metrics.keys())
        ]
    return comparison


def compare_files(base_path: str | Path, current_path: str | Path, threshold: float = 0.10) -> BenchComparison:
    base = json.loads(Path(base_path).read_text())
    current = json.loads(Path(current_path).read_text())
    return compare_payloads(base, current, threshold)


def format_comparison(comparison: BenchComparison) -> str:
    """Human-readable classification table, regressions first."""
    lines = []
    order = {"regression": 0, "improvement": 1, "unchanged": 2, "info": 3}
    gated = sorted(
        (d for d in comparison.deltas if d.gated),
        key=lambda d: (order[d.classification], d.name),
    )
    width = max((len(d.name) for d in gated), default=4)
    if gated:
        lines.append(
            f"{'metric':<{width}}  {'base':>12}  {'current':>12}  {'change':>8}  class"
        )
    for delta in gated:
        marker = {"regression": "✗", "improvement": "✓", "unchanged": " "}[delta.classification]
        lines.append(
            f"{delta.name:<{width}}  {delta.base:>12.4g}  {delta.current:>12.4g}  "
            f"{delta.change:>+7.1%}  {marker} {delta.classification}"
        )
    for key, (b, c) in comparison.context_mismatches.items():
        lines.append(f"WARNING: context mismatch {key}: base={b!r} current={c!r} (numbers may be incomparable)")
    for name in comparison.missing:
        lines.append(f"WARNING: metric {name} missing from current")
    for name in comparison.added:
        lines.append(f"note: new metric {name} (no baseline)")
    if comparison.context_mismatches:
        lines.append(f"context mismatch, not compared: {', '.join(comparison.context_mismatches)}")
    else:
        lines.append(
            f"{len(comparison.regressions)} regression(s), {len(comparison.improvements)} "
            f"improvement(s), threshold ±{comparison.threshold:.0%}"
        )
    return "\n".join(lines)
