"""Serialisation round-trips through every layer type at once."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    Network,
    ReLU,
    Tanh,
    Tensor,
    TrainConfig,
    fit,
)


def _kitchen_sink_network(seed=0):
    rng = np.random.default_rng(seed)
    layers = [
        Conv2D(1, 4, 3, rng, padding=1),
        ReLU(),
        MaxPool2D(2),
        Conv2D(4, 6, 3, rng, padding=1),
        Tanh(),
        MaxPool2D(2),
        Flatten(),
        Dense(6 * 2 * 2, 16, rng),
        ReLU(),
        Dropout(0.1, rng),
        Dense(16, 10, rng),
    ]
    return Network(layers, (1, 8, 8))


class TestKitchenSink:
    def test_forward_shape(self):
        net = _kitchen_sink_network()
        out = net.logits(np.random.default_rng(0).normal(size=(3, 1, 8, 8)) * 0.1)
        assert out.shape == (3, 10)
        assert np.isfinite(out).all()

    def test_trains_without_error(self):
        net = _kitchen_sink_network()
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.5, 0.5, size=(64, 1, 8, 8))
        y = rng.integers(0, 10, 64)
        history = fit(
            net, Adam(net.parameters(), lr=1e-3), x, y,
            TrainConfig(epochs=3, batch_size=16), np.random.default_rng(2),
        )
        assert len(history.loss) == 3
        assert np.isfinite(history.loss).all()

    def test_state_roundtrip_after_training(self, tmp_path):
        net = _kitchen_sink_network()
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.5, 0.5, size=(32, 1, 8, 8))
        y = rng.integers(0, 10, 32)
        fit(net, Adam(net.parameters()), x, y, TrainConfig(epochs=2, batch_size=16), rng)
        path = tmp_path / "net.npz"
        net.save(path)
        clone = _kitchen_sink_network(seed=99)
        clone.load(path)
        probe = x[:5]
        np.testing.assert_allclose(clone.logits(probe), net.logits(probe), atol=1e-12)

    def test_input_gradient_through_all_layers(self):
        from repro.nn.losses import cross_entropy

        net = _kitchen_sink_network()
        x = np.random.default_rng(4).uniform(-0.4, 0.4, size=(2, 1, 8, 8))
        inp = Tensor(x, requires_grad=True)
        cross_entropy(net.forward(inp), np.array([1, 2])).backward()
        grad = inp.grad
        assert grad.shape == x.shape
        assert np.isfinite(grad).all()
        assert np.abs(grad).max() > 0
