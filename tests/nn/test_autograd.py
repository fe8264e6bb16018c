"""Numerical gradient checks for the autograd primitives."""

import numpy as np
import pytest

from repro.nn import ops
from repro.nn.tensor import Tensor, no_grad


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``fn`` at ``x``."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = fn(x)
        flat[i] = original - eps
        lower = fn(x)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2 * eps)
    return grad


def check_gradient(op, *shapes, tol=1e-6, positive=False, seed=0):
    """Compare autograd gradients of ``sum(op(*inputs))`` against finite differences."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=shape) for shape in shapes]
    if positive:
        arrays = [np.abs(a) + 0.5 for a in arrays]
    for target in range(len(arrays)):
        tensors = [Tensor(a.copy(), requires_grad=(i == target)) for i, a in enumerate(arrays)]
        out = op(*tensors)
        out.sum().backward()
        analytic = tensors[target].grad

        def scalar_fn(value, target=target):
            inputs = [value if i == target else arrays[i] for i in range(len(arrays))]
            with no_grad():
                return float(op(*[Tensor(v) for v in inputs]).sum().data)

        numeric = numerical_gradient(scalar_fn, arrays[target].copy())
        np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


class TestElementwise:
    def test_add(self):
        check_gradient(ops.add, (3, 4), (3, 4))

    def test_add_broadcast_rows(self):
        check_gradient(ops.add, (3, 4), (4,))

    def test_add_broadcast_scalar(self):
        check_gradient(ops.add, (3, 4), (1,))

    def test_mul(self):
        check_gradient(ops.mul, (5,), (5,))

    def test_mul_broadcast(self):
        check_gradient(ops.mul, (2, 3, 4), (3, 4))

    def test_div(self):
        check_gradient(ops.div, (4, 2), (4, 2), positive=True)

    def test_power(self):
        check_gradient(lambda a: ops.power(a, 3.0), (6,))

    def test_exp(self):
        check_gradient(ops.exp, (3, 3))

    def test_log(self):
        check_gradient(ops.log, (7,), positive=True)

    def test_tanh(self):
        check_gradient(ops.tanh, (4, 4))

    def test_relu(self):
        # Avoid kink at zero by shifting away from it.
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 5))
        x[np.abs(x) < 0.1] += 0.2
        t = Tensor(x, requires_grad=True)
        ops.relu(t).sum().backward()
        np.testing.assert_allclose(t.grad, (x > 0).astype(float))

    def test_maximum(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(6,)), rng.normal(size=(6,))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        ops.maximum(ta, tb).sum().backward()
        np.testing.assert_allclose(ta.grad, (a >= b).astype(float))
        np.testing.assert_allclose(tb.grad, (a < b).astype(float))


class TestMatmulReductions:
    def test_matmul(self):
        check_gradient(ops.matmul, (3, 4), (4, 2))

    def test_sum_all(self):
        check_gradient(lambda a: ops.sum_(a), (3, 4))

    def test_sum_axis(self):
        check_gradient(lambda a: ops.sum_(a, axis=1), (3, 4))

    def test_sum_keepdims(self):
        check_gradient(lambda a: ops.sum_(a, axis=0, keepdims=True), (3, 4))

    def test_mean_all(self):
        check_gradient(lambda a: ops.mean(a), (4, 5))

    def test_mean_axis(self):
        check_gradient(lambda a: ops.mean(a, axis=-1), (4, 5))

    def test_max_axis(self):
        # Distinct values avoid ties at the max.
        x = np.arange(12.0).reshape(3, 4) + np.random.default_rng(0).normal(scale=0.01, size=(3, 4))
        t = Tensor(x, requires_grad=True)
        ops.max_(t, axis=1).sum().backward()
        expected = np.zeros_like(x)
        expected[np.arange(3), x.argmax(axis=1)] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_max_tie_splits_gradient(self):
        x = np.array([[1.0, 1.0, 0.0]])
        t = Tensor(x, requires_grad=True)
        ops.max_(t, axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.5, 0.5, 0.0]])


class TestShapeOps:
    def test_reshape(self):
        check_gradient(lambda a: ops.reshape(a, (6, 2)), (3, 4))

    def test_transpose_default(self):
        check_gradient(lambda a: ops.transpose(a), (3, 4))

    def test_transpose_axes(self):
        check_gradient(lambda a: ops.transpose(a, (2, 0, 1)), (2, 3, 4))

    def test_getitem_slice(self):
        check_gradient(lambda a: ops.getitem(a, (slice(0, 2), slice(1, 3))), (4, 4))

    def test_getitem_fancy_accumulates(self):
        x = np.ones((4,))
        t = Tensor(x, requires_grad=True)
        ops.getitem(t, np.array([0, 0, 2])).sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0, 0.0])

    def test_pad2d(self):
        check_gradient(lambda a: ops.pad2d(a, 2), (2, 1, 4, 4))


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = ops.softmax(Tensor(rng.normal(size=(5, 10)))).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(5))

    def test_softmax_gradient(self):
        check_gradient(lambda a: ops.mul(ops.softmax(a), np.arange(4.0)).sum(), (3, 4))

    def test_log_softmax_gradient(self):
        check_gradient(lambda a: ops.mul(ops.log_softmax(a), np.arange(4.0)).sum(), (3, 4))

    def test_softmax_temperature_flattens(self):
        logits = Tensor(np.array([[10.0, 0.0, -10.0]]))
        sharp = ops.softmax(logits, temperature=1.0).data
        flat = ops.softmax(logits, temperature=100.0).data
        assert sharp.max() > 0.99
        assert flat.max() < 0.4

    def test_temperature_gradient(self):
        check_gradient(
            lambda a: ops.mul(ops.softmax(a, temperature=5.0), np.arange(4.0)).sum(), (2, 4)
        )

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(4, 6)))
        np.testing.assert_allclose(
            ops.log_softmax(x).data, np.log(ops.softmax(x).data), atol=1e-12
        )

    def test_softmax_stability_large_logits(self):
        out = ops.softmax(Tensor(np.array([[1000.0, 999.0, 0.0]]))).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.sum(), 1.0)


class TestConvPool:
    def test_conv2d_gradient_input(self):
        check_gradient(
            lambda x, w, b: ops.conv2d(x, w, b), (2, 2, 5, 5), (3, 2, 3, 3), (3,), tol=1e-5
        )

    def test_conv2d_stride2(self):
        check_gradient(
            lambda x, w, b: ops.conv2d(x, w, b, stride=2), (1, 1, 6, 6), (2, 1, 2, 2), (2,), tol=1e-5
        )

    def test_conv2d_padding(self):
        check_gradient(
            lambda x, w, b: ops.conv2d(x, w, b, padding=1), (1, 2, 4, 4), (2, 2, 3, 3), (2,), tol=1e-5
        )

    def test_conv2d_matches_naive(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        out = ops.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        naive = np.zeros_like(out)
        for n in range(2):
            for f in range(4):
                for i in range(4):
                    for j in range(4):
                        patch = x[n, :, i : i + 3, j : j + 3]
                        naive[n, f, i, j] = (patch * w[f]).sum() + b[f]
        np.testing.assert_allclose(out, naive, atol=1e-10)

    def test_maxpool_fast_path(self):
        check_gradient(lambda x: ops.max_pool2d(x, 2), (2, 2, 4, 4), tol=1e-5)

    def test_maxpool_general_path(self):
        check_gradient(lambda x: ops.max_pool2d(x, 3, stride=2), (1, 2, 7, 7), tol=1e-5)

    def test_maxpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = ops.max_pool2d(Tensor(x), 2).data
        np.testing.assert_allclose(out, [[[[5.0, 7.0], [13.0, 15.0]]]])

    def test_maxpool_tie_routes_to_single_input(self):
        x = np.ones((1, 1, 2, 2))
        t = Tensor(x, requires_grad=True)
        ops.max_pool2d(t, 2).sum().backward()
        assert t.grad.sum() == pytest.approx(1.0)
        assert (t.grad > 0).sum() == 1

    def test_im2col_col2im_roundtrip_counts(self):
        # col2im(im2col(x)) multiplies each pixel by its window membership count.
        x = np.random.default_rng(0).normal(size=(1, 1, 4, 4))
        cols = ops.im2col(x, 2, 1)
        back = ops.col2im(cols, x.shape, 2, 1)
        counts = ops.col2im(np.ones_like(cols), x.shape, 2, 1)
        np.testing.assert_allclose(back, x * counts, atol=1e-12)


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((3,)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2.0).backward()

    def test_backward_without_grad_flag_raises(self):
        t = Tensor(np.ones(()))
        with pytest.raises(RuntimeError):
            t.backward()

    def test_grad_accumulates_across_uses(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        out = t * 3.0 + t * 4.0
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_no_grad_disables_recording(self):
        with no_grad():
            t = Tensor(np.ones((2,)), requires_grad=True)
            out = t * 2.0
        assert not out.requires_grad
        assert not t.requires_grad

    def test_detach_cuts_graph(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        out = (t * 2.0).detach() * 3.0
        assert not out.requires_grad

    def test_deep_chain_does_not_overflow(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        out = t
        for _ in range(3000):
            out = out * 1.0001
        out.sum().backward()
        assert t.grad is not None
        assert np.isfinite(t.grad).all()

    def test_diamond_graph_gradient(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        a = t * 2.0
        b = t * 5.0
        (a * b).sum().backward()
        # d/dt (2t * 5t) = 20t = 60
        np.testing.assert_allclose(t.grad, [60.0])
