"""Tests for table formatting, timing helpers, and scale configs."""

import time

import numpy as np
import pytest

from repro.eval import (
    format_fig4,
    format_table2,
    format_table3,
    format_table45,
    format_table6,
    scale_config,
    stopwatch,
    time_defense,
)


class TestFormatting:
    def test_table2(self):
        text = format_table2({"mnist": {"false_negative": 0.037, "false_positive": 0.0031}})
        assert "3.70%" in text
        assert "0.31%" in text
        assert "mnist" in text

    def test_table3(self):
        rows = {
            "mnist": {
                name: {"accuracy": 0.99, "seconds": 1.5}
                for name in ("standard", "distillation", "rc", "dcn")
            }
        }
        text = format_table3(rows)
        assert "99.00%" in text
        assert "Distillation" in text and "Our DCN" in text

    def test_table45(self):
        cells = {"targeted": 1.0, "untargeted": 0.44}
        rows = {
            defense: {attack: cells for attack in ("cw-l0", "cw-l2", "cw-linf")}
            for defense in ("standard", "distillation", "rc", "dcn")
        }
        text = format_table45(rows, "mnist")
        assert "100.00%" in text and "44.00%" in text
        assert "T-L0" in text and "U-Linf" in text

    def test_table6(self):
        rows = [{"fraction": 0.5, "dcn_seconds": 1.0, "rc_seconds": 50.0, "dcn_accuracy": 0.9, "rc_accuracy": 0.88}]
        text = format_table6(rows, "mnist")
        assert "50" in text and "50.00" in text

    def test_fig4(self):
        rows = [{"m": 50, "recovery_accuracy": 0.93, "seconds": 0.4}]
        text = format_fig4(rows, "mnist")
        assert "50" in text and "93.00%" in text

    def test_table6_reports_measured_and_model_forwards(self):
        rows = [{"fraction": 0.1, "dcn_seconds": 0.3, "rc_seconds": 40.0, "dcn_accuracy": 0.9,
                 "rc_accuracy": 0.88, "dcn_forward_examples": 431, "dcn_model_forwards": 600,
                 "rc_forward_examples": 50712, "rc_model_forwards": 100000}]
        text = format_table6(rows, "mnist")
        assert "n+f·m" in text and "n·m" in text
        assert "431" in text and "600" in text and "50712" in text and "100000" in text

    def test_fig4_reports_forwards_per_row(self):
        rows = [{"m": 50, "recovery_accuracy": 0.93, "seconds": 0.4, "forwards_per_row": 33.3}]
        text = format_fig4(rows, "mnist")
        assert "fwd/row" in text and "33.3" in text


class TestTiming:
    def test_stopwatch_measures(self):
        with stopwatch() as held:
            time.sleep(0.05)
        assert held[0] >= 0.05

    def test_time_defense(self):
        class _Defense:
            name = "d"

            def classify(self, x):
                time.sleep(0.02)
                return np.zeros(len(x), dtype=int)

        labels, seconds = time_defense(_Defense(), np.zeros((3, 1, 2, 2)))
        assert seconds >= 0.02
        assert labels.shape == (3,)

    def test_profile_defense_reports_backward_counters(self, tiny_model):
        from repro.eval import profile_defense

        network, x, _ = tiny_model

        class _GradientDefense:
            name = "grad"

            def classify(self, inputs):
                # A defense that differentiates through the model (one
                # backward batch) before predicting.
                network.grad_engine.logit_input_grad(inputs, np.zeros(len(inputs), dtype=int))
                return network.predict(inputs)

        profile = profile_defense(
            _GradientDefense(), x[:4], network.engine, grad_engine=network.grad_engine
        )
        assert profile.labels.shape == (4,)
        assert profile.backward_batches == 1
        assert profile.backward_examples == 4
        assert profile.backward["batches"] == 1
        # Forward counters come from the inference engine's own delta.
        # (The predict may be a memo hit, so assert on requests, not examples.)
        assert profile.forward["requests"] >= 1

    def test_profile_defense_without_grad_engine_has_zero_backwards(self, tiny_model):
        from repro.eval import profile_defense

        network, x, _ = tiny_model

        class _Plain:
            name = "plain"

            def classify(self, inputs):
                return network.predict(inputs)

        profile = profile_defense(_Plain(), x[:3], network.engine)
        assert profile.backward_batches == 0
        assert profile.backward == {}


class _RuleDetector:
    def __init__(self, network, rule):
        self.network = network
        self._rule = rule

    def is_adversarial(self, logits):
        return self._rule(np.asarray(logits))


class TestTable6Cost:
    """The paper's Table 6 / Fig. 5 cost claim, asserted on engine counts."""

    def test_dcn_pays_n_plus_flagged_m_and_rc_pays_n_m(self, tiny_correct):
        from repro.core import DCN, Corrector
        from repro.defenses.region import RegionClassifier, _staged_vote
        from repro.eval import profile_defense

        network, x, _ = tiny_correct
        n, m = 12, 20
        rows = x[:n]
        rule = lambda logits: logits.argmax(axis=-1) % 2 == 0  # noqa: E731
        dcn = DCN(network, _RuleDetector(network, rule),
                  Corrector(network, radius=0.1, samples=m, seed=0))
        rc = RegionClassifier(network, radius=0.1, samples=m, seed=0)
        mask = rule(network.engine.logits(rows, memo=False))
        flagged = int(mask.sum())
        assert 0 < flagged < n
        # Each row's exit point from the vote kernel itself: the early-exit
        # vote pays decided_at forwards per row, m // 2 + 1 <= it <= m.
        corrector_at = _staged_vote(network, rows[mask], 0.1, m, 0)[1]
        rc_at = _staged_vote(network, rows, 0.1, m, 0)[1]
        # The fixture is shared: drop the memo so the DCN's one forward over
        # the batch is counted rather than served from an earlier call.
        network.engine.invalidate()
        engines = dict(engine=network.engine, grad_engine=network.grad_engine)
        dcn_cost = profile_defense(dcn, rows, **engines)
        rc_cost = profile_defense(rc, rows, **engines)
        assert dcn_cost.forward_examples == n + int(corrector_at.sum())
        assert rc_cost.forward_examples == int(rc_at.sum())
        # The paper's cost model (Table 6 / Fig. 5) is the upper bound.
        assert dcn_cost.forward_examples <= n + flagged * m
        assert rc_cost.forward_examples <= n * m
        assert ((m // 2 + 1 <= rc_at) & (rc_at <= m)).all()
        for profile in (dcn_cost, rc_cost):
            assert profile.backward_examples == 0
            assert profile.backward_batches == 0


class TestScaleConfig:
    def test_default_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_config().name == "fast"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert scale_config().name == "paper"
        assert scale_config().mnist == "mnist-like"

    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert scale_config("fast").name == "fast"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            scale_config("huge")

    def test_paper_scale_sizes_exceed_fast(self):
        fast, paper = scale_config("fast"), scale_config("paper")
        assert paper.robustness_seeds > fast.robustness_seeds
        assert paper.benign_mnist > fast.benign_mnist
        # Both keep the paper's m parameters.
        assert fast.rc_samples == paper.rc_samples == 1000
        assert fast.corrector_samples == paper.corrector_samples == 50
