"""Adversarial training (Goodfellow et al., 2015).

The other classic robustness defense the paper cites in its introduction:
augment each training batch with FGSM adversarial examples crafted against
the current model.  Included as an additional comparison row for the
extension benches (the paper itself compares only distillation and RC).

Both halves of the loop run on fused kernels: FGSM crafting goes through
the network's :class:`~repro.nn.grad_engine.GradientEngine` and the
weighted clean+adversarial objective is accumulated by two scaled
:meth:`~repro.nn.train_engine.TrainingEngine.train_batch` calls into one
optimiser step.
"""

from __future__ import annotations

import numpy as np

from ..cache import memoize_arrays
from ..datasets import Dataset
from ..nn import Adam, TrainConfig
from ..nn.network import Network
from ..nn.train_engine import train_engine_for
from ..zoo import MODEL_CONFIGS, ModelConfig, _dtype_key, build_network

__all__ = ["AdversariallyTrainedClassifier", "train_adversarial"]


class AdversariallyTrainedClassifier:
    """Classifier hardened with FGSM data augmentation."""

    name = "adv-training"

    def __init__(self, network: Network, epsilon: float):
        self.network = network
        self.epsilon = epsilon

    def classify(self, x: np.ndarray) -> np.ndarray:
        return self.network.engine.predict(x)


def _fgsm_batch(network: Network, x: np.ndarray, y: np.ndarray, epsilon: float) -> np.ndarray:
    """Untargeted FGSM against the current weights (training-time crafting)."""
    grad = network.grad_engine.cross_entropy_input_grad(x, y)
    return np.clip(x + epsilon * np.sign(grad), -0.5, 0.5)


def train_adversarial(
    dataset: Dataset,
    model: str | ModelConfig,
    epsilon: float = 0.1,
    adversarial_weight: float = 0.5,
    cache: bool = True,
    train_dtype: str = "float32",
) -> AdversariallyTrainedClassifier:
    """Adversarially train the named architecture on ``dataset``.

    Each step optimises ``(1-w)*CE(clean) + w*CE(fgsm(clean))`` with the
    adversarial examples regenerated against the evolving model.
    """
    config = MODEL_CONFIGS[model] if isinstance(model, str) else model
    network = build_network(config, dataset.input_shape, 10, seed=config.seed + 200)

    def build() -> dict[str, np.ndarray]:
        rng = np.random.default_rng(config.seed + 201)
        optimizer = Adam(network.parameters(), lr=config.learning_rate)
        train_config = TrainConfig(epochs=config.epochs, batch_size=config.batch_size)
        engine = train_engine_for(network, train_dtype)
        x, y = dataset.x_train, dataset.y_train
        indices = np.arange(len(x))
        with engine.parameters_bound():
            for _ in range(train_config.epochs):
                rng.shuffle(indices)
                for begin in range(0, len(x), train_config.batch_size):
                    batch_idx = indices[begin : begin + train_config.batch_size]
                    xb, yb = x[batch_idx], y[batch_idx]
                    adversarial = _fgsm_batch(network, xb, yb, epsilon)
                    optimizer.zero_grad()
                    # Two scaled seeds accumulate the weighted objective's
                    # gradient before a single optimiser step.
                    engine.train_batch(xb, yb, scale=1.0 - adversarial_weight)
                    engine.train_batch(adversarial, yb, scale=adversarial_weight)
                    optimizer.step()
        return network.state()

    if cache:
        key = _dtype_key(
            {
                "kind": "advtrain",
                "dataset": dataset.name,
                "epsilon": epsilon,
                "weight": adversarial_weight,
                **config.__dict__,
            },
            train_dtype,
        )
        network.load_state(memoize_arrays(key, build))
    else:
        build()
    return AdversariallyTrainedClassifier(network, epsilon)
