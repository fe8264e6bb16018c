"""Tests for the Network container: inference API, serialisation, gradients."""

import numpy as np
import pytest

from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, Network, ReLU
from repro.nn import losses
from repro.nn.tensor import Tensor


@pytest.fixture
def small_cnn():
    rng = np.random.default_rng(0)
    layers = [
        Conv2D(1, 4, 3, rng, padding=1),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Dense(4 * 4 * 4, 10, rng),
    ]
    return Network(layers, (1, 8, 8))


@pytest.fixture
def mlp():
    rng = np.random.default_rng(1)
    return Network([Dense(6, 8, rng), ReLU(), Dense(8, 3, rng)], (6,))


class TestShapes:
    def test_output_shape(self, small_cnn):
        assert small_cnn.output_shape == (10,)
        assert small_cnn.num_classes == 10

    def test_logits_shape(self, small_cnn):
        out = small_cnn.logits(np.zeros((5, 1, 8, 8)))
        assert out.shape == (5, 10)

    def test_num_parameters(self, mlp):
        assert mlp.num_parameters() == 6 * 8 + 8 + 8 * 3 + 3

    def test_non_vector_output_rejected(self):
        rng = np.random.default_rng(0)
        net = Network([Conv2D(1, 2, 3, rng)], (1, 8, 8))
        with pytest.raises(ValueError):
            net.num_classes


class TestInference:
    def test_softmax_rows_normalised(self, small_cnn):
        probs = small_cnn.softmax(np.random.default_rng(0).normal(size=(4, 1, 8, 8)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4))
        assert (probs >= 0).all()

    def test_predict_matches_argmax(self, small_cnn):
        x = np.random.default_rng(0).normal(size=(6, 1, 8, 8))
        np.testing.assert_array_equal(small_cnn.predict(x), small_cnn.logits(x).argmax(axis=1))

    def test_batched_logits_match_single_pass(self, small_cnn):
        # Inference runs on the engine's float32 kernels, where BLAS
        # blocking differs per batch shape — tolerance, not bit equality.
        x = np.random.default_rng(0).normal(size=(7, 1, 8, 8))
        np.testing.assert_allclose(
            small_cnn.logits(x, batch_size=2), small_cnn.logits(x, batch_size=256), atol=1e-5
        )

    def test_temperature_softmax_flatter(self, small_cnn):
        x = np.random.default_rng(0).normal(size=(3, 1, 8, 8))
        sharp = small_cnn.softmax(x, temperature=1.0)
        flat = small_cnn.softmax(x, temperature=50.0)
        assert flat.max() < sharp.max() + 1e-9
        np.testing.assert_allclose(flat.sum(axis=1), np.ones(3))

    def test_accuracy(self, mlp):
        x = np.random.default_rng(2).normal(size=(10, 6))
        y = mlp.predict(x)
        assert mlp.accuracy(x, y) == 1.0


class TestSerialisation:
    def test_state_roundtrip(self, small_cnn, tmp_path):
        x = np.random.default_rng(0).normal(size=(2, 1, 8, 8))
        expected = small_cnn.logits(x)
        path = tmp_path / "weights.npz"
        small_cnn.save(path)

        rng = np.random.default_rng(42)
        clone = Network(
            [
                Conv2D(1, 4, 3, rng, padding=1),
                ReLU(),
                MaxPool2D(2),
                Flatten(),
                Dense(4 * 4 * 4, 10, rng),
            ],
            (1, 8, 8),
        )
        assert not np.allclose(clone.logits(x), expected)
        clone.load(path)
        np.testing.assert_allclose(clone.logits(x), expected)

    def test_missing_layer_state_raises(self, mlp):
        with pytest.raises(KeyError):
            mlp.load_state({"layer0.weight": np.zeros((6, 8)), "layer0.bias": np.zeros(8)})


def _input_gradient(network, x, labels):
    """Float64 autograd ``∂CE/∂x`` and the loss value."""
    inp = Tensor(x, requires_grad=True)
    loss = losses.cross_entropy(network.forward(inp), labels)
    loss.backward()
    return inp.grad, float(loss.data)


class TestInputGradient:
    def test_matches_finite_difference(self, mlp):
        x = np.random.default_rng(3).normal(size=(2, 6))
        labels = np.array([0, 2])
        grad, value = _input_gradient(mlp, x, labels)
        assert grad.shape == x.shape
        eps = 1e-6
        for i in (0, 3):
            bumped = x.copy()
            bumped[0, i] += eps
            logits = mlp.forward(Tensor(bumped))
            upper = float(losses.cross_entropy(logits, labels).data)
            assert (upper - value) / eps == pytest.approx(grad[0, i], abs=1e-4)

    def test_gradient_nonzero(self, small_cnn):
        x = np.random.default_rng(4).normal(size=(1, 1, 8, 8)) * 0.1
        grad, _ = _input_gradient(small_cnn, x, np.array([3]))
        assert np.abs(grad).max() > 0
