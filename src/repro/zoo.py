"""Model zoo: standard architectures, training recipes, and a weight cache.

The paper trains the CNN architectures of Carlini & Wagner (two conv blocks
followed by two fully-connected layers).  On this NumPy/CPU substrate we use
the same topology with reduced widths (``paper`` preset) plus a smaller
``fast`` preset for the reduced-scale datasets; DESIGN.md §2 records the
substitution.  Trained weights are cached on disk so the expensive training
runs happen once per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import memoize_arrays
from .datasets import Dataset, load_dataset
from .nn import Adam, Conv2D, Dense, Dropout, Flatten, MaxPool2D, Network, ReLU, TrainConfig, fit

__all__ = ["ModelConfig", "MODEL_CONFIGS", "build_network", "train_network", "load_model", "model_for_dataset"]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture + training recipe for a standard classifier."""

    name: str
    conv_channels: tuple[int, ...]  # channels of the two conv blocks
    dense_units: tuple[int, ...]
    epochs: int
    batch_size: int = 64
    learning_rate: float = 1e-3
    dropout: float = 0.2
    seed: int = 11


MODEL_CONFIGS: dict[str, ModelConfig] = {
    config.name: config
    for config in (
        # Reduced Carlini-style CNN: conv-conv-pool twice, then dense-dense.
        ModelConfig("cnn-paper", conv_channels=(16, 32), dense_units=(128, 128), epochs=12),
        # Small CNNs for the -fast datasets (16x16 inputs).  The objects
        # family is harder and needs a wider net and longer schedule.
        ModelConfig("cnn-fast", conv_channels=(8, 16), dense_units=(64,), epochs=12),
        ModelConfig("cnn-fast-wide", conv_channels=(12, 24), dense_units=(96,), epochs=35, learning_rate=2e-3),
    )
}

# Default model preset per dataset.
_DATASET_MODEL = {
    "mnist-like": "cnn-paper",
    "cifar-like": "cnn-paper",
    "mnist-fast": "cnn-fast",
    "cifar-fast": "cnn-fast-wide",
}


def build_network(
    config: ModelConfig, input_shape: tuple[int, int, int], num_classes: int, seed: int | None = None
) -> Network:
    """Instantiate the (untrained) network for ``config``."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    channels_in = input_shape[0]
    layers: list = []
    for channels in config.conv_channels:
        layers += [
            Conv2D(channels_in, channels, 3, rng, padding=1),
            ReLU(),
            Conv2D(channels, channels, 3, rng, padding=1),
            ReLU(),
            MaxPool2D(2),
        ]
        channels_in = channels
    layers.append(Flatten())
    spatial = input_shape[1] // (2 ** len(config.conv_channels))
    features = config.conv_channels[-1] * spatial * spatial
    for units in config.dense_units:
        layers += [Dense(features, units, rng), ReLU()]
        if config.dropout:
            layers.append(Dropout(config.dropout, rng))
        features = units
    layers.append(Dense(features, num_classes, rng))
    return Network(layers, input_shape)


def train_network(
    network: Network,
    dataset: Dataset,
    config: ModelConfig,
    train_dtype: str = "float32",
) -> float:
    """Train ``network`` on the dataset's training split; returns test accuracy.

    ``train_dtype`` selects the fused-kernel compute dtype of the
    :class:`~repro.nn.train_engine.TrainingEngine`; weights are always
    float64 after training (the serialisation dtype).
    """
    rng = np.random.default_rng(config.seed + 1)
    optimizer = Adam(network.parameters(), lr=config.learning_rate)
    train_config = TrainConfig(
        epochs=config.epochs, batch_size=config.batch_size, lr_decay=0.92, dtype=train_dtype
    )
    fit(network, optimizer, dataset.x_train, dataset.y_train, train_config, rng)
    return network.accuracy(dataset.x_test, dataset.y_test)


def _dtype_key(key: dict, train_dtype: str) -> dict:
    """Extend a cache key with the training dtype, float64 staying legacy.

    Entries trained on the float64 path keep their pre-engine keys, so
    every previously cached ``.npz`` still loads byte-identically; only
    non-default dtypes fork new entries.
    """
    if train_dtype != "float64":
        key = {**key, "train_dtype": train_dtype}
    return key


def load_model(
    dataset: Dataset,
    model_name: str | None = None,
    cache: bool = True,
    train_dtype: str = "float32",
) -> Network:
    """Return a trained standard classifier for ``dataset`` (cached on disk)."""
    model_name = model_name or _DATASET_MODEL.get(dataset.name, "cnn-fast")
    config = MODEL_CONFIGS[model_name]
    network = build_network(config, dataset.input_shape, 10)

    def build() -> dict[str, np.ndarray]:
        train_network(network, dataset, config, train_dtype=train_dtype)
        return network.state()

    if cache:
        key = _dtype_key({"kind": "model", "dataset": dataset.name, **config.__dict__}, train_dtype)
        network.load_state(memoize_arrays(key, build))
    else:
        build()
    return network


def model_for_dataset(name: str) -> tuple[Dataset, Network]:
    """Convenience: load the named dataset and its trained standard model."""
    dataset = load_dataset(name)
    return dataset, load_model(dataset)
