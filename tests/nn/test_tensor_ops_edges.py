"""Edge-case tests for Tensor operators and less-travelled op paths."""

import numpy as np
import pytest

from repro.nn import ops
from repro.nn.tensor import Tensor, as_tensor


class TestOperatorSugar:
    def test_radd_rsub_rmul(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        out = 1.0 + t - 0.5 + (3.0 * t)
        assert float(out.data[0]) == pytest.approx(8.5)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [4.0])

    def test_rtruediv(self):
        t = Tensor(np.array([4.0]), requires_grad=True)
        out = 8.0 / t
        assert float(out.data[0]) == 2.0
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [-0.5])

    def test_neg(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        (-t).sum().backward()
        np.testing.assert_allclose(t.grad, [-1.0])

    def test_pow_operator(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        (t**3).sum().backward()
        np.testing.assert_allclose(t.grad, [12.0])

    def test_len_and_repr(self):
        t = Tensor(np.zeros((5, 2)), requires_grad=True)
        assert len(t) == 5
        assert "requires_grad=True" in repr(t)
        assert "shape=(5, 2)" in repr(t)

    def test_item(self):
        assert Tensor(np.array(3.5)).item() == 3.5

    def test_as_tensor_passthrough(self):
        t = Tensor(np.zeros(2))
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_method_chaining(self):
        t = Tensor(np.arange(6.0), requires_grad=True)
        out = t.reshape(2, 3).transpose().sum(axis=1).mean()
        assert float(out.data) == pytest.approx(np.arange(6.0).mean() * 2)


class TestOpEdges:
    def test_getitem_integer_index(self):
        t = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = t[1]
        assert out.shape == (4,)
        out.sum().backward()
        expected = np.zeros((3, 4))
        expected[1] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_getitem_boolean_mask(self):
        t = Tensor(np.arange(4.0), requires_grad=True)
        mask = np.array([True, False, True, False])
        t[mask].sum().backward()
        np.testing.assert_allclose(t.grad, [1.0, 0.0, 1.0, 0.0])

    def test_pad2d_zero_is_identity(self):
        t = Tensor(np.ones((1, 1, 3, 3)))
        assert ops.pad2d(t, 0) is t

    def test_sum_negative_axis(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        out = ops.sum_(t, axis=-1)
        assert out.shape == (2,)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3)))

    def test_mean_tuple_axes(self):
        t = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = ops.mean(t, axis=(1, 2))
        assert out.shape == (2,)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.full((2, 3, 4), 1 / 12))

    def test_dropout_rate_zero_identity(self):
        rng = np.random.default_rng(0)
        t = Tensor(np.ones((3, 3)))
        assert ops.dropout(t, 0.0, rng, training=True) is t

    def test_conv_bias_gradient_accumulates_over_positions(self):
        x = Tensor(np.zeros((2, 1, 4, 4)))
        w = Tensor(np.zeros((3, 1, 3, 3)))
        b = Tensor(np.zeros(3), requires_grad=True)
        ops.conv2d(x, w, b).sum().backward()
        # 2 batch x 2x2 output positions each = 8 per channel.
        np.testing.assert_allclose(b.grad, [8.0, 8.0, 8.0])
