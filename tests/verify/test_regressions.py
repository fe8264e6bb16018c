"""Regression tests for every divergence the differential verifier found.

Each class pins one fixed bug; each test fails on the pre-fix code.
"""

import numpy as np
import pytest

from repro.nn import (
    Dense,
    Dropout,
    Flatten,
    GradientEngine,
    InferenceEngine,
    Network,
    Tanh,
    Tensor,
    TrainingEngine,
    losses,
)
from repro.nn.tensor import no_grad
from repro.verify import guards


def _saturating_net(seed=0):
    """Dense→Tanh stack whose pre-activations reach ±10⁴ on an all-25 input.

    MagNet's autoencoder ends in ``Tanh``; this pins that saturated output
    on every computation path.
    """
    rng = np.random.default_rng(seed)
    net = Network([Flatten(), Dense(4, 3, rng), Tanh(), Dense(3, 3, rng)], (1, 2, 2))
    weight = net.layers[1].params["weight"]
    weight.data = np.tile([100.0, -100.0, 100.0], (4, 1))  # 4 inputs · 25 · ±100
    return net


class TestTanhSaturation:
    """Saturated tanh must neither trap nor diverge on any of the four paths.

    The four-path saturation check of the sigmoid ``exp``-overflow fix, kept
    on the saturating activation the system still runs.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_all_engines_saturated(self, dtype):
        net = _saturating_net()
        x = np.full((2, 1, 2, 2), 25.0)
        labels = np.array([0, 1])
        with guards.enforce(True), np.errstate(all="raise"):
            inp = Tensor(x, requires_grad=True)
            logits = net.forward(inp)
            losses.cross_entropy(logits, labels).backward()
            ref, ref_grad = logits.data, inp.grad
            net.zero_grad()
            out = InferenceEngine(net, dtype=dtype).logits(x, memo=False)
            gradient = GradientEngine(net, dtype=dtype)
            grad_logits, _ = gradient.forward(x)
            input_grad = gradient.cross_entropy_input_grad(x, labels)
            TrainingEngine(net, dtype=dtype).train_batch(x, labels)
        hidden = np.tanh(x.reshape(2, 4) @ net.layers[1].params["weight"].data)
        np.testing.assert_array_equal(np.abs(hidden), 1.0)  # saturated, not merely large
        assert np.abs(out - ref).max() < 1e-4
        assert np.abs(grad_logits - ref).max() < 1e-4
        assert np.abs(input_grad - ref_grad).max() < 1e-4
        assert all(np.isfinite(p.grad).all() for p in net.parameters())


class TestEmptyBatch:
    """reshape((0, -1)) is ambiguous to NumPy; loss means nan-propagate."""

    def _net(self):
        return Network([Flatten(), Dense(9, 5, np.random.default_rng(0))], (1, 3, 3))

    def test_autograd_flatten(self):
        net = self._net()
        with no_grad():
            out = net.forward(Tensor(np.zeros((0, 1, 3, 3)))).data
        assert out.shape == (0, 5)

    def test_inference_engine(self):
        out = InferenceEngine(self._net()).logits(np.zeros((0, 1, 3, 3)))
        assert out.shape == (0, 5)

    def test_gradient_engine(self):
        net = self._net()
        grad = GradientEngine(net).cross_entropy_input_grad(
            np.zeros((0, 1, 3, 3)), np.zeros(0, dtype=int)
        )
        assert grad.shape == (0, 1, 3, 3)

    def test_training_engine_no_nan_no_grads(self):
        net = self._net()
        value, logits = TrainingEngine(net).train_batch(
            np.zeros((0, 1, 3, 3)), np.zeros(0, dtype=int)
        )
        assert value == 0.0
        assert logits.shape == (0, 5)
        # No examples → no gradient contribution, not a zero-filled one.
        assert all(p.grad is None for p in net.parameters())


class TestMemoAliasing:
    """The memo could freeze the caller's array and serve rewritable views."""

    def _identity_net(self):
        # Dropout is an inference-time identity, so the kernel stack hands
        # back whatever aliasing the layer kernels produce.
        return Network([Dropout(0.5, np.random.default_rng(0))], (3,))

    def test_caller_array_stays_writable(self):
        net = self._identity_net()
        x = np.zeros((2, 3), dtype=np.float32)
        engine = InferenceEngine(net, dtype=np.float32)
        engine.logits(x)  # memo on: used to freeze x itself
        x[0, 0] = 1.0  # must not raise ValueError (read-only array)

    def test_memoised_result_not_rewritten_by_input_edits(self):
        net = self._identity_net()
        engine = InferenceEngine(net, dtype=np.float32)
        x = np.zeros((2, 3), dtype=np.float32)
        first = engine.logits(x).copy()
        x[:] = 7.0  # in-place edit of the caller's buffer
        key_x = np.zeros((2, 3), dtype=np.float32)
        again = engine.logits(key_x)  # same digest as the first call
        np.testing.assert_array_equal(first, again)

    def test_memoised_result_is_read_only_copy(self):
        net = self._identity_net()
        engine = InferenceEngine(net, dtype=np.float32)
        x = np.zeros((2, 3), dtype=np.float32)
        out = engine.logits(x)
        assert out is not x
        assert not out.flags.writeable
        assert not np.shares_memory(out, x)
