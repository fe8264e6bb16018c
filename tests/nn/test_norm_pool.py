"""Tests for BatchNorm and AvgPool2D."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    AvgPool2D,
    BatchNorm1D,
    BatchNorm2D,
    Dense,
    Flatten,
    GradientEngine,
    InferenceEngine,
    Network,
    ReLU,
    TrainConfig,
    fit,
    ops,
)
from repro.nn.gradcheck import check_gradients
from repro.nn.tensor import Tensor


class TestAvgPool:
    def test_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = ops.avg_pool2d(Tensor(x), 2).data
        np.testing.assert_allclose(out, [[[[2.5, 4.5], [10.5, 12.5]]]])

    def test_gradient(self):
        check_gradients(lambda x: ops.avg_pool2d(x, 2), [(2, 2, 4, 4)])

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            ops.avg_pool2d(Tensor(np.zeros((1, 1, 5, 5))), 2)

    def test_layer_shape(self):
        layer = AvgPool2D(2)
        assert layer.output_shape((3, 8, 8)) == (3, 4, 4)
        out = layer(Tensor(np.zeros((2, 3, 8, 8))))
        assert out.shape == (2, 3, 4, 4)

    def test_indivisible_input_rejected_by_every_path(self):
        # The shape walk used to floor 7 // 2 and fail later, inside a
        # plan's reshape, with no hint of the cause.
        rng = np.random.default_rng(0)
        network = Network([AvgPool2D(2), Flatten(), Dense(9, 3, rng)], (1, 7, 7))
        x = np.zeros((2, 1, 7, 7))
        message = r"spatial dims \(7, 7\) not divisible by pool size 2"
        with pytest.raises(ValueError, match=message):
            network.output_shape
        with pytest.raises(ValueError, match=message):
            InferenceEngine(network).logits(x)
        with pytest.raises(ValueError, match=message):
            GradientEngine(network).cross_entropy_input_grad(x, np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match=message):
            network.forward(Tensor(x))


class TestBatchNorm2D:
    def test_training_normalises_batch(self):
        rng = np.random.default_rng(0)
        bn = BatchNorm2D(3)
        x = rng.normal(loc=5.0, scale=3.0, size=(16, 3, 4, 4))
        out = bn(Tensor(x), training=True).data
        assert abs(out.mean()) < 1e-6
        assert out.std() == pytest.approx(1.0, abs=0.01)

    def test_running_stats_track_data(self):
        rng = np.random.default_rng(1)
        bn = BatchNorm2D(2, momentum=0.0)  # adopt the batch stats directly
        x = rng.normal(loc=2.0, scale=0.5, size=(64, 2, 3, 3))
        bn(Tensor(x), training=True)
        np.testing.assert_allclose(bn.running_mean, x.mean(axis=(0, 2, 3)), atol=1e-9)

    def test_inference_uses_running_stats(self):
        bn = BatchNorm2D(1, momentum=0.0)
        train_batch = np.random.default_rng(2).normal(loc=3.0, size=(32, 1, 2, 2))
        bn(Tensor(train_batch), training=True)
        # A wildly different inference batch must be normalised by the
        # running stats, not its own.
        test_batch = np.full((4, 1, 2, 2), 3.0)
        out = bn(Tensor(test_batch), training=False).data
        assert abs(out.mean()) < 0.5

    def test_gamma_beta_trainable(self):
        bn = BatchNorm2D(2)
        assert len(list(bn.parameters())) == 2
        x = Tensor(np.random.default_rng(3).normal(size=(8, 2, 2, 2)))
        out = bn(x, training=True)
        out.sum().backward()
        assert bn.params["gamma"].grad is not None
        assert bn.params["beta"].grad is not None

    def test_state_roundtrip_includes_running_stats(self):
        bn = BatchNorm2D(2)
        bn(Tensor(np.random.default_rng(4).normal(size=(8, 2, 2, 2))), training=True)
        state = bn.state()
        clone = BatchNorm2D(2)
        clone.load_state(state)
        np.testing.assert_array_equal(clone.running_mean, bn.running_mean)
        np.testing.assert_array_equal(clone.running_var, bn.running_var)

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            BatchNorm2D(2, momentum=1.0)


class TestBatchNorm1D:
    def test_shapes(self):
        bn = BatchNorm1D(5)
        out = bn(Tensor(np.random.default_rng(0).normal(size=(7, 5))), training=True)
        assert out.shape == (7, 5)

    def test_network_with_batchnorm_trains(self):
        rng = np.random.default_rng(5)
        centers = np.array([[2.0, 2.0], [-2.0, -2.0]])
        labels = rng.integers(0, 2, 150)
        x = centers[labels] + rng.normal(scale=0.5, size=(150, 2))
        net = Network(
            [Dense(2, 16, rng), BatchNorm1D(16), ReLU(), Dense(16, 2, rng)], (2,)
        )
        fit(net, Adam(net.parameters(), lr=0.01), x, labels,
            TrainConfig(epochs=25, batch_size=32), np.random.default_rng(6))
        assert net.accuracy(x, labels) > 0.9
