"""Runtime-guard tests: the three trap classes at engine boundaries."""

import numpy as np
import pytest

from repro.nn import (
    Dense,
    Flatten,
    GradientEngine,
    InferenceEngine,
    Network,
    SGD,
    Adam,
    TrainingEngine,
)
from repro.verify import guards
from repro.verify.guards import GuardViolation


def _net(seed=0):
    rng = np.random.default_rng(seed)
    return Network([Flatten(), Dense(4, 3, rng)], (1, 2, 2))


class TestActivation:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        assert not guards.active()

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        assert guards.active()
        monkeypatch.setenv("REPRO_VERIFY", "0")
        assert not guards.active()

    def test_enforce_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        with guards.enforce(False):
            assert not guards.active()
        assert guards.active()

    def test_enforce_restores_on_exit(self):
        with guards.enforce(True):
            with guards.enforce(False):
                assert not guards.active()
            assert guards.active()


class TestFiniteTrap:
    def test_nan_logits_trapped_in_inference(self):
        net = _net()
        net.layers[1].params["weight"].data[0, 0] = np.nan
        x = np.ones((2, 1, 2, 2))
        engine = InferenceEngine(net, dtype=np.float32)
        with guards.enforce(True), pytest.raises(GuardViolation, match="non-finite"):
            engine.logits(x, memo=False)

    def test_nan_passes_when_disabled(self):
        net = _net()
        net.layers[1].params["weight"].data[0, 0] = np.nan
        engine = InferenceEngine(net, dtype=np.float32)
        with guards.enforce(False):
            out = engine.logits(np.ones((2, 1, 2, 2)), memo=False)
        assert np.isnan(out).any()

    def test_nan_gradient_trapped(self):
        net = _net()
        net.layers[1].params["weight"].data[0, 0] = np.inf
        engine = GradientEngine(net, dtype=np.float32)
        with guards.enforce(True), pytest.raises(GuardViolation, match="non-finite"):
            engine.forward(np.ones((2, 1, 2, 2)))

    def test_nan_training_loss_trapped(self):
        net = _net()
        net.layers[1].params["bias"].data[0] = np.nan
        engine = TrainingEngine(net, dtype=np.float64)
        with guards.enforce(True), pytest.raises(GuardViolation):
            engine.train_batch(np.ones((2, 1, 2, 2)), np.array([0, 1]))


class TestDtypeTrap:
    def test_check_dtype_direct(self):
        with guards.enforce(True):
            guards.check_dtype("x", np.zeros(3, dtype=np.float32), np.float32)
            with pytest.raises(GuardViolation, match="drifted"):
                guards.check_dtype("x", np.zeros(3, dtype=np.float64), np.float32)


class TestAliasTrap:
    def _aliased_net(self):
        net = _net()
        p = net.parameters()[0]
        p.grad = p.data  # the in-place update would corrupt this gradient
        return net

    def test_sgd_rejects_aliased_gradient(self):
        net = self._aliased_net()
        opt = SGD(net.parameters(), lr=0.1)
        with guards.enforce(True), pytest.raises(GuardViolation, match="aliases"):
            opt.step()

    def test_adam_rejects_aliased_gradient(self):
        net = self._aliased_net()
        opt = Adam(net.parameters(), lr=0.1)
        with guards.enforce(True), pytest.raises(GuardViolation, match="aliases"):
            opt.step()

    def test_view_of_data_also_trapped(self):
        net = _net()
        p = net.parameters()[0]
        p.grad = p.data[:2]  # partial overlap, still aliasing
        opt = SGD(net.parameters(), lr=0.1)
        with guards.enforce(True), pytest.raises(GuardViolation, match="aliases"):
            opt.step()

    def test_honest_gradients_pass(self):
        net = _net()
        for p in net.parameters():
            p.grad = np.zeros_like(p.data)
        opt = SGD(net.parameters(), lr=0.1)
        with guards.enforce(True):
            opt.step()
