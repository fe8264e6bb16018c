"""Training-loop tests: a small network must learn simple problems."""

import numpy as np
import pytest

from repro.nn import Adam, Dense, Network, ReLU, TrainConfig, fit, soft_cross_entropy_loss
from repro.nn.losses import one_hot

from .test_train_engine import autograd_fit


def _two_blob_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[2.0, 2.0], [-2.0, -2.0]])
    labels = rng.integers(0, 2, size=n)
    x = centers[labels] + rng.normal(scale=0.5, size=(n, 2))
    return x, labels


def _make_net(seed=0, outputs=2):
    rng = np.random.default_rng(seed)
    return Network([Dense(2, 16, rng), ReLU(), Dense(16, outputs, rng)], (2,))


class TestFit:
    def test_learns_separable_blobs(self):
        x, y = _two_blob_data()
        net = _make_net()
        history = fit(
            net, Adam(net.parameters(), lr=0.01), x, y,
            TrainConfig(epochs=30, batch_size=32), np.random.default_rng(1),
        )
        assert net.accuracy(x, y) > 0.95
        assert history.loss[-1] < history.loss[0]

    def test_history_lengths(self):
        x, y = _two_blob_data(50)
        net = _make_net()
        history = fit(
            net, Adam(net.parameters()), x, y,
            TrainConfig(epochs=5, batch_size=16), np.random.default_rng(0),
        )
        assert len(history.loss) == 5
        assert len(history.accuracy) == 5
        assert history.seconds > 0

    def test_length_mismatch_rejected(self):
        net = _make_net()
        with pytest.raises(ValueError):
            fit(
                net, Adam(net.parameters()), np.zeros((10, 2)), np.zeros(5, dtype=int),
                TrainConfig(epochs=1), np.random.default_rng(0),
            )

    def test_empty_training_set_rejected(self):
        net = _make_net()
        with pytest.raises(ValueError, match="empty training set"):
            fit(
                net, Adam(net.parameters()), np.zeros((0, 2)), np.zeros(0, dtype=int),
                TrainConfig(epochs=1), np.random.default_rng(0),
            )

    def test_zero_batch_size_rejected(self):
        x, y = _two_blob_data(10)
        net = _make_net()
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            fit(
                net, Adam(net.parameters()), x, y,
                TrainConfig(epochs=1, batch_size=0), np.random.default_rng(0),
            )

    def test_soft_targets_supported(self):
        x, y = _two_blob_data(100)
        soft = one_hot(y, 2) * 0.9 + 0.05
        net = _make_net()
        fit(
            net, Adam(net.parameters(), lr=0.01), x, soft,
            TrainConfig(epochs=20, batch_size=32), np.random.default_rng(0),
            loss=soft_cross_entropy_loss(),
        )
        assert net.accuracy(x, y) > 0.9

    def test_lr_decay_applied(self):
        x, y = _two_blob_data(40)
        net = _make_net()
        opt = Adam(net.parameters(), lr=0.01)
        fit(net, opt, x, y, TrainConfig(epochs=3, lr_decay=0.5), np.random.default_rng(0))
        assert opt.lr == pytest.approx(0.01 * 0.5**3)

    def test_deterministic_given_seed(self):
        x, y = _two_blob_data(60)
        results = []
        for _ in range(2):
            net = _make_net(seed=7)
            fit(
                net, Adam(net.parameters(), lr=0.01), x, y,
                TrainConfig(epochs=3, batch_size=16), np.random.default_rng(5),
            )
            results.append(net.logits(x[:5]))
        np.testing.assert_array_equal(results[0], results[1])

    def test_params_stay_float64_after_engine_fit(self):
        """float32 engine training must restore the serialisation dtype."""
        x, y = _two_blob_data(40)
        net = _make_net()
        fit(net, Adam(net.parameters()), x, y, TrainConfig(epochs=2), np.random.default_rng(0))
        assert all(p.data.dtype == np.float64 for p in net.parameters())
        assert net.train_engine.counters.batches > 0

    def test_engine_and_autograd_agree_seed_for_seed(self):
        """float64 engine fit reproduces the float64 autograd fit exactly."""
        x, y = _two_blob_data(60)
        outputs = []
        for train in (fit, autograd_fit):
            net = _make_net(seed=3)
            train(
                net, Adam(net.parameters(), lr=0.01), x, y,
                TrainConfig(epochs=3, batch_size=16, dtype="float64"),
                np.random.default_rng(5),
            )
            outputs.append(net.logits(x[:5]))
        np.testing.assert_allclose(outputs[0], outputs[1], atol=1e-9)

    def test_float32_engine_matches_autograd_accuracy(self):
        x, y = _two_blob_data()
        accuracies = []
        for train in (fit, autograd_fit):
            net = _make_net(seed=1)
            train(
                net, Adam(net.parameters(), lr=0.01), x, y,
                TrainConfig(epochs=30, batch_size=32),
                np.random.default_rng(1),
            )
            accuracies.append(net.accuracy(x, y))
        assert accuracies[0] > 0.95
        assert abs(accuracies[0] - accuracies[1]) <= 0.02


class TestSchedules:
    def test_epoch_seconds_recorded(self):
        x, y = _two_blob_data(40)
        net = _make_net()
        history = fit(
            net, Adam(net.parameters()), x, y,
            TrainConfig(epochs=4), np.random.default_rng(0),
        )
        assert len(history.epoch_seconds) == 4
        assert all(s > 0 for s in history.epoch_seconds)
        assert sum(history.epoch_seconds) <= history.seconds
