"""Neural-network layers built on the autograd primitives.

Layers hold their parameters as :class:`~repro.nn.tensor.Tensor` objects with
``requires_grad=True`` and implement ``__call__(x, training)``.  They expose
``parameters()`` for optimisers and ``state()``/``load_state()`` for
serialisation.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import init, ops
from .tensor import Tensor

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "Flatten",
    "ReLU",
    "Tanh",
    "Dropout",
]


class Layer:
    """Base class for layers.

    Subclasses override :meth:`forward`; parameterised subclasses also
    populate :attr:`params` (an ordered dict of name -> Tensor).
    """

    def __init__(self) -> None:
        self.params: dict[str, Tensor] = {}

    def forward(self, x: Tensor, training: bool) -> Tensor:
        raise NotImplementedError

    def __call__(self, x: Tensor, training: bool = False) -> Tensor:
        return self.forward(x, training)

    def parameters(self) -> Iterable[Tensor]:
        return self.params.values()

    def state(self) -> dict[str, np.ndarray]:
        """Return a copy of the parameter arrays for serialisation."""
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for name, param in self.params.items():
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ValueError(
                    f"{type(self).__name__}.{name}: shape {value.shape} does not match {param.shape}"
                )
            param.data = value.astype(param.data.dtype)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape of the output for a single (batchless) input shape."""
        return input_shape


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.params = {
            "weight": Tensor(init.he_normal(rng, (in_features, out_features), in_features), requires_grad=True),
            "bias": Tensor(init.zeros((out_features,)), requires_grad=True),
        }

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ops.add(ops.matmul(x, self.params["weight"]), self.params["bias"])

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (self.out_features,)


class Conv2D(Layer):
    """2-D convolution (NCHW) with square kernels."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.params = {
            "weight": Tensor(
                init.he_normal(rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in),
                requires_grad=True,
            ),
            "bias": Tensor(init.zeros((out_channels,)), requires_grad=True),
        }

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ops.conv2d(x, self.params["weight"], self.params["bias"], self.stride, self.padding)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        _, h, w = input_shape
        h_out = (h + 2 * self.padding - self.kernel_size) // self.stride + 1
        w_out = (w + 2 * self.padding - self.kernel_size) // self.stride + 1
        return (self.out_channels, h_out, w_out)


class MaxPool2D(Layer):
    """Max pooling (NCHW)."""

    def __init__(self, size: int = 2, stride: int | None = None):
        super().__init__()
        self.size = size
        self.stride = size if stride is None else stride

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ops.max_pool2d(x, self.size, self.stride)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        h_out = (h - self.size) // self.stride + 1
        w_out = (w - self.size) // self.stride + 1
        return (c, h_out, w_out)


class Flatten(Layer):
    """Flatten all but the batch dimension."""

    def forward(self, x: Tensor, training: bool) -> Tensor:
        # Explicit feature count: reshape((0, -1)) is ambiguous to NumPy and
        # raises on empty batches even though the target shape is well-defined.
        return x.reshape((x.shape[0], int(np.prod(x.shape[1:]))))

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(input_shape)),)


class ReLU(Layer):
    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ops.relu(x)


class Tanh(Layer):
    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ops.tanh(x)


class Dropout(Layer):
    """Inverted dropout, active only during training."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ops.dropout(x, self.rate, self._rng, training)
