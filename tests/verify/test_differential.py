"""The differential verifier itself: fuzzing, metrics, CLI plumbing.

The hypothesis harness generates architectures in the differ's block
language; because :func:`build_case` tolerates any block order (skipping
geometry-incompatible blocks), hypothesis can shrink a failing example
block-by-block down to a minimal layer stack.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.nn import Conv2D, Dense, Dropout, MaxPool2D, Tanh
from repro.verify import GuardViolation
from repro.verify.differ import REL_BUDGET, build_case, diff_case, run_verify, ulp_distance
from repro.verify.report import Report

BLOCK = st.one_of(
    st.tuples(st.just("dense"), st.integers(3, 8)),
    st.tuples(st.just("act"), st.sampled_from(["relu", "tanh"])),
    st.tuples(st.just("dropout"), st.sampled_from([0.3, 0.5])),
    st.tuples(
        st.just("conv"), st.integers(1, 3), st.integers(2, 3), st.integers(1, 2), st.integers(0, 1)
    ),
    st.tuples(st.just("maxpool"), st.integers(2, 3), st.integers(1, 2)),
)


class TestUlpDistance:
    def test_identical_is_zero(self):
        x = np.random.default_rng(0).normal(size=8)
        assert ulp_distance(x, x.copy()) == 0.0

    def test_adjacent_floats_are_one(self):
        a = np.array([1.0, -3.5])
        b = np.nextafter(a, np.inf)
        assert ulp_distance(a, b) == 1.0

    def test_nan_is_inf(self):
        assert ulp_distance(np.array([np.nan]), np.array([0.0])) == float("inf")

    def test_measured_in_requested_dtype(self):
        a = np.array([1.0])
        b = np.array([1.0 + 1e-7])
        assert ulp_distance(a, b, dtype=np.float64) > 1e8
        assert ulp_distance(a, b, dtype=np.float32) <= 2.0

    def test_near_zero_entries_ignored(self):
        # 1e-30 vs 2e-30 is billions of ULPs apart but numerically
        # irrelevant next to the O(1) entries; the mask must exclude it.
        a = np.array([1.0, 1e-30])
        b = np.array([1.0, 2e-30])
        assert ulp_distance(a, b) == 0.0

    def test_empty(self):
        assert ulp_distance(np.zeros(0), np.zeros(0)) == 0.0


class TestBuildCase:
    def test_incompatible_blocks_are_skipped(self):
        # conv after dense, pool wider than the map: all silently dropped,
        # so any shrunk block list still builds.
        case = build_case(
            [("dense", 4), ("conv", 2, 3, 1, 0), ("maxpool", 9, 1), ("act", "relu")],
            side=4,
        )
        kinds = [type(layer) for layer in case.network.layers]
        assert Conv2D not in kinds
        assert MaxPool2D not in kinds
        assert kinds.count(Dense) == 2  # requested + final head

    def test_empty_blocks_build_linear_head(self):
        case = build_case([], side=3)
        assert case.network.predict(case.x).shape == (len(case.x),)

    def test_blocks_map_to_layers(self):
        case = build_case([("conv", 2, 2, 1, 0), ("act", "tanh"), ("dense", 5)], side=5)
        kinds = [type(layer) for layer in case.network.layers]
        assert Conv2D in kinds and Tanh in kinds

    def test_deterministic_in_seed(self):
        a = build_case([("dense", 4)], seed=9)
        b = build_case([("dense", 4)], seed=9)
        np.testing.assert_array_equal(a.x, b.x)
        for pa, pb in zip(a.network.parameters(), b.network.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


class TestDiffCase:
    def test_restores_network_state(self):
        case = build_case([("dense", 5), ("dropout", 0.5), ("act", "relu")], side=4, seed=3)
        (dropout,) = [layer for layer in case.network.layers if isinstance(layer, Dropout)]
        generator = dropout._rng
        before = {key: value.copy() for key, value in case.network.state().items()}
        diff_case(case, np.float32)
        after = case.network.state()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])
        assert dropout._rng is generator  # the reseeded training runs leave no trace
        assert all(p.grad is None for p in case.network.parameters())

    def test_flags_nothing_on_healthy_network(self):
        case = build_case([("conv", 2, 2, 1, 1), ("act", "tanh"), ("maxpool", 2, 2)], seed=5)
        report = diff_case(case, np.float64)
        assert report.ok, report.format()

    def test_traps_nan_parameters(self):
        case = build_case([("dense", 4)], seed=1)
        case.network.layers[-1].params["weight"].data[0, 0] = np.nan
        with pytest.raises(GuardViolation):
            diff_case(case, np.float32)

    def test_report_flags_over_budget(self):
        report = Report()
        report.cases = 1
        report.record("case", "infer-fwd", "network", "float32", rel=1e-2, ulp=9.0, budget=1e-4)
        assert not report.ok
        assert "DIVERGENCES" in report.format()
        assert report.divergences[0].max_rel == pytest.approx(1e-2)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    blocks=st.lists(BLOCK, max_size=5),
    batch=st.integers(1, 3),
    scale=st.sampled_from([0.5, 3.0, 30.0]),
    seed=st.integers(0, 2**16),
    quantize=st.booleans(),
)
def test_engines_agree_with_autograd(blocks, batch, scale, seed, quantize):
    """All four paths agree within budget on arbitrary shrunk stacks."""
    case = build_case(blocks, batch=batch, scale=scale, seed=seed, quantize=quantize)
    for dtype in (np.float32, np.float64):
        report = diff_case(case, dtype)
        assert report.ok, f"\n{report.format()}"


class TestRunVerify:
    def test_sweep_is_clean(self):
        report = run_verify(seed=0, cases=4)
        assert report.ok
        assert report.cases == 4
        text = report.format()
        assert "max ulp" in text and "all paths agree within budget" in text

    def test_budgets(self):
        assert REL_BUDGET[np.dtype(np.float32)] == 1e-4
        assert REL_BUDGET[np.dtype(np.float64)] == 1e-10


class TestCli:
    def test_verify_command(self, capsys):
        assert main(["verify", "--seed", "0", "--cases", "2"]) == 0
        out = capsys.readouterr().out
        assert "differential verification: 2 case(s)" in out
        assert "all paths agree within budget" in out

    def test_verify_single_dtype(self, capsys):
        assert main(["verify", "--seed", "1", "--cases", "1", "--dtype", "float32"]) == 0
        out = capsys.readouterr().out
        assert "float32" in out and "float64" not in out
