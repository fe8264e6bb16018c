"""The :class:`Network` container — a sequential model with the paper's API.

The DCN paper treats the protected model as a function exposing *logits*
``H(x)`` (pre-softmax) and the softmax probability vector; every attack and
defense in this reproduction goes through this interface.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .layers import Layer
from .tensor import Tensor

__all__ = ["Network"]


class Network:
    """A sequential stack of layers.

    Parameters
    ----------
    layers:
        Layers applied in order.
    input_shape:
        Shape of a single input example (e.g. ``(1, 28, 28)``), used for
        validation and for computing the flattened feature sizes of
        downstream tooling.
    """

    def __init__(self, layers: Sequence[Layer], input_shape: tuple[int, ...]):
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self._engine = None
        self._grad_engine = None
        self._train_engine = None

    # -- inference engine -------------------------------------------------------

    @property
    def engine(self):
        """The attached :class:`~repro.nn.engine.InferenceEngine` (lazy).

        Every non-differentiable prediction (``logits`` / ``softmax`` /
        ``predict`` / ``accuracy``) delegates here; attach a custom engine
        via :meth:`attach_engine` to change dtype, batch plan or memo size.
        """
        if self._engine is None:
            from .engine import InferenceEngine  # deferred: engine imports layers

            self._engine = InferenceEngine(self)
        return self._engine

    def attach_engine(self, engine) -> "Network":
        """Replace the attached inference engine; returns ``self``."""
        self._engine = engine
        return self

    @property
    def grad_engine(self):
        """The attached :class:`~repro.nn.grad_engine.GradientEngine` (lazy).

        Gradient-based attacks delegate their input-gradient computations
        here; attach a custom engine via :meth:`attach_grad_engine` to
        change dtype or batch plan (e.g. float64 for bit-level parity with
        the autograd path).
        """
        if self._grad_engine is None:
            from .grad_engine import GradientEngine  # deferred: engine imports layers

            self._grad_engine = GradientEngine(self)
        return self._grad_engine

    def attach_grad_engine(self, engine) -> "Network":
        """Replace the attached gradient engine; returns ``self``."""
        self._grad_engine = engine
        return self

    @property
    def train_engine(self):
        """The attached :class:`~repro.nn.train_engine.TrainingEngine` (lazy).

        :func:`repro.nn.train.fit` routes mini-batches here whenever the
        loss is engine-seedable; attach a custom engine via
        :meth:`attach_train_engine` to change dtype (e.g. float64 for
        bit-level parity with the autograd path).
        """
        if self._train_engine is None:
            from .train_engine import TrainingEngine  # deferred: engine imports layers

            self._train_engine = TrainingEngine(self)
        return self._train_engine

    def attach_train_engine(self, engine) -> "Network":
        """Replace the attached training engine; returns ``self``."""
        self._train_engine = engine
        return self

    # -- shape bookkeeping ----------------------------------------------------

    @property
    def output_shape(self) -> tuple[int, ...]:
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    @property
    def num_classes(self) -> int:
        out = self.output_shape
        if len(out) != 1:
            raise ValueError(f"network output is not a class vector: {out}")
        return out[0]

    # -- forward passes ---------------------------------------------------------

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        """Differentiable forward pass returning logits."""
        out = x
        for layer in self.layers:
            out = layer(out, training=training)
        return out

    def logits(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Non-differentiable batched logits, served by the attached engine."""
        return self.engine.logits(x, batch_size=batch_size)

    def softmax(self, x: np.ndarray, temperature: float = 1.0, batch_size: int = 256) -> np.ndarray:
        """Softmax probabilities, optionally temperature-scaled."""
        return self.engine.softmax(x, temperature=temperature, batch_size=batch_size)

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Hard labels: ``argmax_i softmax(H(x))_i``."""
        return self.engine.predict(x, batch_size=batch_size)

    def accuracy(self, x: np.ndarray, labels: np.ndarray, batch_size: int = 256) -> float:
        return self.engine.accuracy(x, labels, batch_size=batch_size)

    # -- parameters ---------------------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.parameters()]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- serialisation ---------------------------------------------------------------

    def state(self) -> dict[str, np.ndarray]:
        """Flat dict of all parameter arrays, keyed ``layer{i}.{name}``."""
        state: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for name, value in layer.state().items():
                state[f"layer{i}.{name}"] = value
        return state

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for i, layer in enumerate(self.layers):
            prefix = f"layer{i}."
            layer_state = {
                key[len(prefix) :]: value for key, value in state.items() if key.startswith(prefix)
            }
            if layer.params and not layer_state:
                raise KeyError(f"no parameters found for layer {i} ({type(layer).__name__})")
            if layer_state:
                layer.load_state(layer_state)

    def save(self, path) -> None:
        np.savez_compressed(path, **self.state())

    def load(self, path) -> None:
        with np.load(path) as archive:
            self.load_state({key: archive[key] for key in archive.files})
