"""Differentiable primitive operations on :class:`~repro.nn.tensor.Tensor`.

Every function here takes tensors (or array-likes), computes the forward
value with NumPy, and registers a closure that propagates gradients to the
inputs.  Convolution and pooling use im2col/col2im so that the heavy lifting
runs inside BLAS matmuls — essential on the single-core CPU substrate this
reproduction targets.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor, _unbroadcast

__all__ = [
    "add",
    "mul",
    "div",
    "power",
    "matmul",
    "exp",
    "log",
    "tanh",
    "relu",
    "maximum",
    "sum_",
    "mean",
    "max_",
    "reshape",
    "transpose",
    "getitem",
    "pad2d",
    "conv2d",
    "max_pool2d",
    "dropout",
    "softmax",
    "log_softmax",
    "im2col",
    "col2im",
]


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.shape))

    return Tensor._from_op(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.shape))

    return Tensor._from_op(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-grad * a.data / (b.data**2), b.shape))

    return Tensor._from_op(out_data, (a, b), backward)


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    exponent = float(exponent)
    out_data = a.data**exponent

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * exponent * a.data ** (exponent - 1.0))

    return Tensor._from_op(out_data, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ grad)

    return Tensor._from_op(out_data, (a, b), backward)


# ---------------------------------------------------------------------------
# Elementwise nonlinearities
# ---------------------------------------------------------------------------


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * out_data)

    return Tensor._from_op(out_data, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.log(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad / a.data)

    return Tensor._from_op(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * (1.0 - out_data**2))

    return Tensor._from_op(out_data, (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    out_data = np.where(mask, a.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * mask)

    return Tensor._from_op(out_data, (a,), backward)


def maximum(a, b) -> Tensor:
    """Elementwise max; ties send the full gradient to ``a``."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data >= b.data
    out_data = np.where(take_a, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * take_a, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * ~take_a, b.shape))

    return Tensor._from_op(out_data, (a, b), backward)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _restore_reduced_axes(grad: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Reshape a reduced gradient so it broadcasts back over ``shape``."""
    if keepdims or axis is None:
        return grad
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = tuple(ax % len(shape) for ax in axes)
    expanded = list(grad.shape)
    for ax in sorted(axes):
        expanded.insert(ax, 1)
    return grad.reshape(expanded)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            g = _restore_reduced_axes(np.asarray(grad), a.shape, axis, keepdims)
            a._accumulate(np.broadcast_to(g, a.shape).copy())

    return Tensor._from_op(np.asarray(out_data), (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else np.prod([a.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            g = _restore_reduced_axes(np.asarray(grad), a.shape, axis, keepdims)
            a._accumulate(np.broadcast_to(g, a.shape).copy() / count)

    return Tensor._from_op(np.asarray(out_data), (a,), backward)


def max_(a, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; gradient splits equally among tied maxima."""
    a = as_tensor(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        if not a.requires_grad:
            return
        expanded = out_data if keepdims or axis is None else _restore_reduced_axes(
            np.asarray(out_data), a.shape, axis, keepdims
        )
        mask = a.data == expanded
        counts = mask.sum(axis=axis, keepdims=True)
        g = _restore_reduced_axes(np.asarray(grad), a.shape, axis, keepdims)
        a._accumulate(mask * (g / counts))

    return Tensor._from_op(np.asarray(out_data), (a,), backward)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad.reshape(a.shape))

    return Tensor._from_op(out_data, (a,), backward)


def transpose(a, axes: tuple[int, ...] | None = None) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.transpose(axes)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            if axes is None:
                a._accumulate(grad.transpose())
            else:
                inverse = np.argsort(axes)
                a._accumulate(grad.transpose(inverse))

    return Tensor._from_op(out_data, (a,), backward)


def getitem(a, index) -> Tensor:
    a = as_tensor(a)
    out_data = a.data[index]

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, index, grad)
            a._accumulate(full)

    return Tensor._from_op(np.asarray(out_data), (a,), backward)


def pad2d(a, padding: int) -> Tensor:
    """Zero-pad the last two (spatial) axes of an NCHW tensor."""
    a = as_tensor(a)
    if padding == 0:
        return a
    pad_width = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    out_data = np.pad(a.data, pad_width)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad[:, :, padding:-padding, padding:-padding])

    return Tensor._from_op(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# im2col-based convolution and pooling (NCHW layout)
# ---------------------------------------------------------------------------


def _conv_output_size(size: int, kernel: int, stride: int) -> int:
    return (size - kernel) // stride + 1


def im2col(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Rearrange sliding windows of ``x`` (N,C,H,W) into columns.

    Returns an array of shape ``(N * out_h * out_w, C * kernel * kernel)``
    ready to be multiplied with a flattened filter bank.
    """
    n, c, h, w = x.shape
    out_h = _conv_output_size(h, kernel, stride)
    out_w = _conv_output_size(w, kernel, stride)
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(strides[0], strides[1], strides[2] * stride, strides[3] * stride, strides[2], strides[3]),
        writeable=False,
    )
    # (N, out_h, out_w, C, kh, kw) -> rows are spatial positions.
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kernel * kernel)
    return np.ascontiguousarray(cols)


def col2im(cols: np.ndarray, x_shape: tuple[int, ...], kernel: int, stride: int) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into an image."""
    n, c, h, w = x_shape
    out_h = _conv_output_size(h, kernel, stride)
    out_w = _conv_output_size(w, kernel, stride)
    cols6 = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 1, 2, 4, 5)
    x = np.zeros(x_shape, dtype=cols.dtype)
    for i in range(kernel):
        for j in range(kernel):
            x[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride] += cols6[:, :, :, :, i, j]
    return x


def conv2d(x, weight, bias, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution over NCHW input.

    Parameters
    ----------
    x:
        Input tensor, shape ``(N, C_in, H, W)``.
    weight:
        Filter bank, shape ``(C_out, C_in, K, K)``.
    bias:
        Per-output-channel bias, shape ``(C_out,)``.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if padding:
        x = pad2d(x, padding)
    n, c_in, h, w = x.shape
    c_out, _, kernel, _ = weight.shape
    out_h = _conv_output_size(h, kernel, stride)
    out_w = _conv_output_size(w, kernel, stride)

    cols = im2col(x.data, kernel, stride)
    w_mat = weight.data.reshape(c_out, -1)
    out_mat = cols @ w_mat.T + bias.data
    out_data = out_mat.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    out_data = np.ascontiguousarray(out_data)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, c_out)
        if weight.requires_grad:
            weight._accumulate((grad_mat.T @ cols).reshape(weight.shape))
        if bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=0))
        if x.requires_grad:
            grad_cols = grad_mat @ w_mat
            x._accumulate(col2im(grad_cols, x.shape, kernel, stride))

    return Tensor._from_op(out_data, (x, weight, bias), backward)


def max_pool2d(x, size: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling over NCHW input (non-overlapping fast path for stride==size)."""
    x = as_tensor(x)
    stride = size if stride is None else stride
    n, c, h, w = x.shape
    if stride == size and h % size == 0 and w % size == 0:
        return _max_pool2d_fast(x, size)
    out_h = _conv_output_size(h, size, stride)
    out_w = _conv_output_size(w, size, stride)
    # General path via per-channel im2col.
    flat = x.data.reshape(n * c, 1, h, w)
    cols = im2col(flat, size, stride)  # (n*c*out_h*out_w, size*size)
    arg = cols.argmax(axis=1)
    out_data = cols[np.arange(cols.shape[0]), arg].reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_cols = np.zeros_like(cols)
        grad_cols[np.arange(cols.shape[0]), arg] = grad.reshape(-1)
        grad_x = col2im(grad_cols, (n * c, 1, h, w), size, stride)
        x._accumulate(grad_x.reshape(x.shape))

    return Tensor._from_op(out_data, (x,), backward)


def _max_pool2d_fast(x: Tensor, size: int) -> Tensor:
    n, c, h, w = x.shape
    out_h, out_w = h // size, w // size
    blocks = x.data.reshape(n, c, out_h, size, out_w, size)
    out_data = blocks.max(axis=(3, 5))
    mask = blocks == out_data[:, :, :, None, :, None]
    # Break ties: keep only the first maximal element per block so the
    # gradient is routed to exactly one input, matching argmax semantics.
    flat = mask.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, out_h, out_w, size * size)
    first = flat.argmax(axis=-1)
    one_hot = np.zeros_like(flat)
    np.put_along_axis(one_hot, first[..., None], True, axis=-1)
    mask = one_hot.reshape(n, c, out_h, out_w, size, size).transpose(0, 1, 2, 4, 3, 5)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_blocks = mask * grad[:, :, :, None, :, None]
        x._accumulate(grad_blocks.reshape(x.shape))

    return Tensor._from_op(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# Regularisation and probability transforms
# ---------------------------------------------------------------------------


def dropout(x, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0."""
    x = as_tensor(x)
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep) / keep
    out_data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._from_op(out_data, (x,), backward)


def softmax(x, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """Numerically stable softmax with optional distillation temperature."""
    x = as_tensor(x)
    scaled = x.data / temperature
    shifted = scaled - scaled.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (grad - dot) / temperature)

    return Tensor._from_op(out_data, (x,), backward)


def log_softmax(x, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """Numerically stable log-softmax with optional temperature."""
    x = as_tensor(x)
    scaled = x.data / temperature
    shifted = scaled - scaled.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_norm
    probs = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            total = grad.sum(axis=axis, keepdims=True)
            x._accumulate((grad - probs * total) / temperature)

    return Tensor._from_op(out_data, (x,), backward)
