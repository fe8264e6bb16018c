"""Unit tests for CW attack internals (no network required where possible)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.attacks.cw import _to_w, CarliniWagnerL2
from repro.nn.tensor import Tensor
from tests.nn.test_grad_engine import _margin_loss

finite = {"allow_nan": False, "allow_infinity": False}


class TestTanhTransform:
    @given(
        hnp.arrays(np.float64, (2, 1, 3, 3), elements=st.floats(-0.5, 0.5, **finite))
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, x):
        recovered = np.tanh(_to_w(x)) * 0.5
        np.testing.assert_allclose(recovered, np.clip(x, -0.4999995, 0.4999995), atol=1e-6)

    def test_boundary_values_finite(self):
        w = _to_w(np.array([-0.5, 0.5]))
        assert np.isfinite(w).all()


class TestMarginLoss:
    def test_zero_when_target_wins_with_confidence(self):
        logits = Tensor(np.array([[10.0, 0.0, 0.0]]))
        onehot = np.array([[1.0, 0.0, 0.0]])
        f = _margin_loss(logits, onehot, confidence=5.0)
        assert float(f.data[0]) == 0.0

    def test_positive_when_target_loses(self):
        logits = Tensor(np.array([[0.0, 3.0, 0.0]]))
        onehot = np.array([[1.0, 0.0, 0.0]])
        f = _margin_loss(logits, onehot, confidence=0.0)
        assert float(f.data[0]) == pytest.approx(3.0)

    def test_confidence_raises_requirement(self):
        logits = Tensor(np.array([[2.0, 0.0, 0.0]]))
        onehot = np.array([[1.0, 0.0, 0.0]])
        assert float(_margin_loss(logits, onehot, 0.0).data[0]) == 0.0
        assert float(_margin_loss(logits, onehot, 5.0).data[0]) == pytest.approx(3.0)

    def test_gradient_flows_when_hinge_active(self):
        raw = np.array([[0.0, 1.0, 0.0]])
        logits = Tensor(raw, requires_grad=True)
        onehot = np.array([[1.0, 0.0, 0.0]])
        _margin_loss(logits, onehot, confidence=0.0).sum().backward()
        # Pushes target up, runner-up down.
        assert logits.grad[0, 0] < 0
        assert logits.grad[0, 1] > 0


class TestRecordBest:
    def _state(self, n=3):
        from repro.attacks.cw import _L2State

        return _L2State(
            best_adv=np.zeros((n, 2)),
            best_l2=np.full(n, np.inf),
            found=np.zeros(n, dtype=bool),
        )

    def test_success_recorded(self):
        state = self._state()
        adv = np.ones((3, 2))
        CarliniWagnerL2._record_best(state, adv, np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.5, -1.0]), None)
        np.testing.assert_array_equal(state.found, [True, False, True])
        assert state.best_l2[0] == 1.0

    def test_keeps_smaller_l2(self):
        state = self._state(1)
        adv_big = np.full((1, 2), 5.0)
        adv_small = np.full((1, 2), 1.0)
        CarliniWagnerL2._record_best(state, adv_big, np.array([4.0]), np.array([-1.0]), None)
        CarliniWagnerL2._record_best(state, adv_small, np.array([2.0]), np.array([-1.0]), None)
        assert state.best_l2[0] == 2.0
        np.testing.assert_array_equal(state.best_adv[0], adv_small[0])
        # A later, larger solution must not overwrite.
        CarliniWagnerL2._record_best(state, adv_big, np.array([3.0]), np.array([-1.0]), None)
        assert state.best_l2[0] == 2.0

    def test_margin_zero_counts_as_success(self):
        state = self._state(1)
        CarliniWagnerL2._record_best(state, np.ones((1, 2)), np.array([1.0]), np.array([0.0]), None)
        assert state.found[0]


class TestWarmStart:
    def test_initial_guess_reduces_iterations_needed(self, tiny_correct):
        network, x, y = tiny_correct
        targets = (y[:4] + 1) % 10
        full = CarliniWagnerL2(binary_search_steps=2, max_iterations=100)
        first = full.perturb(network, x[:4], y[:4], targets)
        # Warm-started short run should succeed where a cold short run may not.
        short = CarliniWagnerL2(binary_search_steps=1, max_iterations=15)
        warm = short.perturb(network, x[:4], y[:4], targets, initial_guess=first.adversarial)
        assert warm.success.sum() >= 1


class TestParameterValidation:
    def test_l0_rejects_bad_params(self):
        from repro.attacks import CarliniWagnerL0

        with pytest.raises(ValueError):
            CarliniWagnerL0(max_rounds=0)
        with pytest.raises(ValueError):
            CarliniWagnerL0(freeze_fraction=0.0)
        with pytest.raises(ValueError):
            CarliniWagnerL0(freeze_fraction=1.0)

    def test_linf_rejects_bad_params(self):
        from repro.attacks import CarliniWagnerLinf

        with pytest.raises(ValueError):
            CarliniWagnerLinf(max_rounds=0)
        with pytest.raises(ValueError):
            CarliniWagnerLinf(tau_decay=1.0)
