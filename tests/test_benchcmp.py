"""The benchmark regression gate: classification, direction rules, CLI."""

import json
import math

import pytest

from repro.benchcmp import (
    BenchComparison,
    compare_files,
    compare_payloads,
    format_comparison,
    metric_direction,
)
from repro.cli import main


def payload(results, context=None):
    return {"results": results, "context": context or {}}


class TestDirectionRules:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("cnn.engine.epochs_per_sec", "higher"),
            ("plan-batch.examples_per_sec", "higher"),
            ("cnn.speedup", "higher"),
            ("plan_vs_percall_speedup", "higher"),
            ("plan-batch.seconds", "lower"),
            ("workers-4.seconds", "lower"),
            ("cnn.examples", "info"),
            ("f32_max_rel_error", "info"),
            # Latency-style names (the serving benchmark's leaves).
            ("gate.serve_p50_ms", "lower"),
            ("frac_05.serve_p95_ms", "lower"),
            ("mean_ms", "lower"),
            ("queue_latency", "lower"),
            ("latency_p99_us", "lower"),
            ("tail_p99", "lower"),
            ("p50", "lower"),
            # Percentile tokens must be terminal; p-ish names are not latencies.
            ("top_p5_accuracy", "info"),
            ("num_p2p_links", "info"),
            ("warp_speed", "info"),
        ],
    )
    def test_metric_direction(self, name, expected):
        assert metric_direction(name) == expected


class TestClassification:
    def test_rate_drop_is_regression_and_duration_drop_improvement(self):
        base = payload({"a": {"examples_per_sec": 100.0, "seconds": 10.0}})
        curr = payload({"a": {"examples_per_sec": 80.0, "seconds": 8.0}})
        cmp = compare_payloads(base, curr, threshold=0.10)
        by_name = {d.name: d for d in cmp.deltas}
        assert by_name["a.examples_per_sec"].classification == "regression"
        assert by_name["a.seconds"].classification == "improvement"
        assert not cmp.ok

    def test_within_threshold_is_unchanged(self):
        base = payload({"a": {"examples_per_sec": 100.0}})
        curr = payload({"a": {"examples_per_sec": 95.0}})
        cmp = compare_payloads(base, curr, threshold=0.10)
        assert cmp.deltas[0].classification == "unchanged"
        assert cmp.ok and not cmp.improvements

    def test_threshold_is_configurable(self):
        base = payload({"a": {"examples_per_sec": 100.0}})
        curr = payload({"a": {"examples_per_sec": 95.0}})
        assert not compare_payloads(base, curr, threshold=0.02).ok

    def test_info_metrics_never_gate(self):
        base = payload({"a": {"examples": 100, "max_abs_error": 1e-6}})
        curr = payload({"a": {"examples": 1, "max_abs_error": 1.0}})
        cmp = compare_payloads(base, curr)
        assert cmp.ok
        assert all(d.classification == "info" for d in cmp.deltas)

    def test_zero_or_nonfinite_base_is_info_not_crash(self):
        base = payload({"a": {"examples_per_sec": 0.0, "seconds": math.inf}})
        curr = payload({"a": {"examples_per_sec": 50.0, "seconds": 1.0}})
        cmp = compare_payloads(base, curr)
        assert cmp.ok
        assert all(d.classification == "info" and math.isnan(d.change) for d in cmp.deltas)

    def test_missing_and_added_metrics_reported(self):
        base = payload({"a": {"seconds": 1.0}, "b": {"seconds": 2.0}})
        curr = payload({"a": {"seconds": 1.0}, "c": {"seconds": 3.0}})
        cmp = compare_payloads(base, curr)
        assert cmp.missing == ["b.seconds"]
        assert cmp.added == ["c.seconds"]

    def test_booleans_are_not_metrics(self):
        cmp = compare_payloads(payload({"ok": True}), payload({"ok": False}))
        assert cmp.deltas == [] and cmp.missing == [] and cmp.added == []


class TestContextDiff:
    def test_parameter_drift_warns_but_provenance_does_not(self):
        base = payload({"a": {"seconds": 1.0}},
                       {"git_sha": "aaa", "numpy": "1.0", "batch_size": 64})
        curr = payload({"a": {"seconds": 1.0}},
                       {"git_sha": "bbb", "numpy": "2.0", "batch_size": 8})
        cmp = compare_payloads(base, curr)
        assert cmp.context_mismatches == {"batch_size": (64, 8)}
        assert "context mismatch batch_size" in format_comparison(cmp)

    def test_context_mismatch_classifies_nothing(self):
        base = payload({"a": {"seconds": 1.0, "examples_per_sec": 10.0}, "b": {"seconds": 1.0}},
                       {"batch_size": 64, "calls": 50})
        curr = payload({"a": {"seconds": 0.01, "examples_per_sec": 1000.0}},
                       {"batch_size": 8, "calls": 3})
        cmp = compare_payloads(base, curr)
        assert cmp.deltas == [] and not cmp.improvements and not cmp.regressions
        assert cmp.missing == ["b.seconds"]
        assert not cmp.ok
        text = format_comparison(cmp)
        assert text.splitlines()[-1] == "context mismatch, not compared: batch_size, calls"
        assert "improvement" not in text and "regression(s)" not in text

    def test_format_orders_regressions_first(self):
        base = payload({"a": {"examples_per_sec": 100.0}, "b": {"examples_per_sec": 100.0}})
        curr = payload({"a": {"examples_per_sec": 200.0}, "b": {"examples_per_sec": 10.0}})
        text = format_comparison(compare_payloads(base, curr))
        assert text.index("b.examples_per_sec") < text.index("a.examples_per_sec")
        assert "✗ regression" in text and "✓ improvement" in text
        assert "1 regression(s), 1 improvement(s)" in text

    def test_empty_comparison_formats(self):
        assert "0 regression(s)" in format_comparison(BenchComparison(threshold=0.1))


class TestBenchCli:
    def write(self, tmp_path, name, results, context=None):
        path = tmp_path / name
        path.write_text(json.dumps(payload(results, context)))
        return path

    def test_regression_fails_unless_warn_only(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", {"a": {"examples_per_sec": 100.0}})
        curr = self.write(tmp_path, "curr.json", {"a": {"examples_per_sec": 50.0}})
        assert main(["bench", "--compare", str(base), str(curr)]) == 1
        assert "regression" in capsys.readouterr().out
        assert main(["bench", "--compare", str(base), str(curr), "--warn-only"]) == 0
        assert "warn-only" in capsys.readouterr().out

    def test_clean_compare_exits_zero(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", {"a": {"seconds": 1.0}})
        curr = self.write(tmp_path, "curr.json", {"a": {"seconds": 1.01}})
        assert main(["bench", "--compare", str(base), str(curr)]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_context_mismatch_fails_unless_warn_only(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", {"a": {"seconds": 1.0}}, {"batch_size": 64})
        curr = self.write(tmp_path, "curr.json", {"a": {"seconds": 0.01}}, {"batch_size": 8})
        assert main(["bench", "--compare", str(base), str(curr)]) == 1
        out = capsys.readouterr().out
        assert "context mismatch, not compared: batch_size" in out
        assert "improvement" not in out
        assert main(["bench", "--compare", str(base), str(curr), "--warn-only"]) == 0
        assert "warn-only" in capsys.readouterr().out

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", {"a": {"seconds": 1.0}})
        assert main(["bench", "--compare", str(base), str(tmp_path / "nope.json")]) == 2

    def test_compare_files_reads_json(self, tmp_path):
        base = self.write(tmp_path, "base.json", {"a": {"seconds": 2.0}})
        curr = self.write(tmp_path, "curr.json", {"a": {"seconds": 1.0}})
        cmp = compare_files(base, curr)
        assert cmp.improvements and cmp.ok
