"""Tests for classification metrics and the gradcheck utility."""

import numpy as np
import pytest

from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, Network, Tanh, ops
from repro.nn.gradcheck import GradientCheckError, check_gradients, check_network_input_gradients
from repro.nn.metrics import confusion_matrix, expected_calibration_error, per_class_accuracy
from repro.nn.tensor import Tensor


class TestMetrics:
    def test_confusion_matrix(self):
        matrix = confusion_matrix(np.array([0, 0, 1, 2]), np.array([0, 1, 1, 2]), 3)
        expected = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        np.testing.assert_array_equal(matrix, expected)

    def test_confusion_rejects_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.zeros(3, int), np.zeros(4, int), 2)

    def test_per_class_accuracy(self):
        true = np.array([0, 0, 1, 1, 1])
        pred = np.array([0, 1, 1, 1, 0])
        acc = per_class_accuracy(true, pred, 3)
        assert acc[0] == pytest.approx(0.5)
        assert acc[1] == pytest.approx(2 / 3)
        assert np.isnan(acc[2])

    def test_ece_perfectly_calibrated(self):
        # Confidence 1.0 and always right -> zero calibration error.
        probs = np.zeros((10, 3))
        probs[:, 0] = 1.0
        labels = np.zeros(10, dtype=int)
        assert expected_calibration_error(probs, labels) == pytest.approx(0.0)

    def test_ece_overconfident(self):
        # Confidence ~1.0 but only 50% right -> ECE near 0.5.
        probs = np.zeros((10, 2))
        probs[:, 0] = 0.99
        probs[:, 1] = 0.01
        labels = np.array([0, 1] * 5)
        assert expected_calibration_error(probs, labels) == pytest.approx(0.49, abs=0.01)


class TestGradcheckUtility:
    def test_passes_for_correct_op(self):
        check_gradients(ops.tanh, [(3, 3)])

    def test_fails_for_broken_op(self):
        def broken(a):
            out = ops.tanh(a)

            def bad_backward(grad):
                a._accumulate(grad * 0.123)  # wrong gradient on purpose

            return Tensor._from_op(out.data, (a,), bad_backward)

        with pytest.raises(GradientCheckError):
            check_gradients(broken, [(4,)])

    def test_positive_option(self):
        check_gradients(ops.log, [(5,)], positive=True)

    @staticmethod
    def _conv_tanh_pool_dense():
        rng = np.random.default_rng(0)
        return Network(
            [Conv2D(1, 2, 3, rng, padding=1), Tanh(), MaxPool2D(2), Flatten(), Dense(8, 3, rng)],
            (1, 4, 4),
        )

    def test_network_input_gradients_pass_on_float64_stack(self):
        x = np.random.default_rng(1).normal(size=(2, 1, 4, 4))
        seed = np.random.default_rng(2).normal(size=(2, 3))
        check_network_input_gradients(self._conv_tanh_pool_dense(), x)
        check_network_input_gradients(self._conv_tanh_pool_dense(), x, seed=seed)

    def test_network_input_gradients_catch_wrong_layer_backward(self, monkeypatch):
        network = self._conv_tanh_pool_dense()

        def broken(x, training):
            out = ops.tanh(x)

            def bad_backward(grad):
                x._accumulate(grad * (1.0 - out.data**2) * 0.5)  # half the true gradient

            return Tensor._from_op(out.data, (x,), bad_backward)

        monkeypatch.setattr(network.layers[1], "forward", broken)
        x = np.random.default_rng(1).normal(size=(2, 1, 4, 4))
        with pytest.raises(GradientCheckError):
            check_network_input_gradients(network, x)
