"""Mini-batch training loop with history tracking.

Every batch runs through the fused
:class:`~repro.nn.train_engine.TrainingEngine`; the objective is a
:class:`~repro.nn.train_engine.TrainLoss` the engine seeds natively — the
default cross-entropy, distillation's soft targets, the autoencoder MSE.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .network import Network
from .optim import Optimizer
from .train_engine import CROSS_ENTROPY, TrainLoss, train_engine_for

__all__ = ["TrainConfig", "History", "fit"]


@dataclass
class TrainConfig:
    """Hyper-parameters for :func:`fit`."""

    epochs: int = 10
    batch_size: int = 128
    # Per-epoch multiplicative LR decay: epoch ``e`` trains at
    # ``lr · lr_decay**e`` (1.0 = constant).
    lr_decay: float = 1.0
    # Compute dtype of the fused training kernels ("float32"/"float64").
    dtype: str = "float32"


@dataclass
class History:
    """Per-epoch training metrics.

    ``interrupted`` marks a history cut short by ``KeyboardInterrupt``:
    :func:`fit` flushes the completed-epoch metrics, attaches the partial
    history to the exception (``exc.partial_history``) and re-raises, so
    an interrupted run exits cleanly without losing what it measured.
    """

    loss: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    seconds: float = 0.0
    interrupted: bool = False


def fit(
    network: Network,
    optimizer: Optimizer,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
    loss: TrainLoss = CROSS_ENTROPY,
) -> History:
    """Train ``network`` on ``(x, y)``, reshuffling with ``rng`` every epoch.

    ``y`` may be integer labels (the default cross-entropy) or per-example
    target rows (distillation soft labels, autoencoder images) for a
    matching ``loss``.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if len(x) != len(y):
        raise ValueError(f"x and y lengths differ: {len(x)} vs {len(y)}")
    if len(x) == 0:
        raise ValueError("cannot fit on an empty training set (0 rows)")
    if config.batch_size < 1:
        raise ValueError(f"TrainConfig.batch_size must be >= 1, got {config.batch_size}")
    engine = train_engine_for(network, config.dtype)
    base_lr = optimizer.lr

    history = History()
    start = time.perf_counter()
    indices = np.arange(len(x))
    try:
        with engine.parameters_bound():
            for epoch in range(config.epochs):
                optimizer.lr = base_lr * config.lr_decay**epoch
                epoch_start = time.perf_counter()
                rng.shuffle(indices)
                epoch_loss = 0.0
                correct = 0
                for begin in range(0, len(x), config.batch_size):
                    batch_idx = indices[begin : begin + config.batch_size]
                    xb, yb = x[batch_idx], y[batch_idx]
                    optimizer.zero_grad()
                    loss_value, logits = engine.train_batch(xb, yb, loss=loss)
                    optimizer.step()
                    epoch_loss += loss_value * len(xb)
                    hard = yb if yb.ndim == 1 else yb.argmax(axis=-1)
                    correct += int((logits.argmax(axis=-1) == hard).sum())
                history.loss.append(epoch_loss / len(x))
                history.accuracy.append(correct / len(x))
                history.epoch_seconds.append(time.perf_counter() - epoch_start)
        # Leave the optimiser at the post-training rate, as a per-epoch
        # multiplicative decay applied after each epoch would.
        optimizer.lr = base_lr * config.lr_decay**config.epochs
    except KeyboardInterrupt as exc:
        # Exit cleanly: flush what the completed epochs measured, hand the
        # partial history to the caller via the exception, and re-raise so
        # the interrupt still unwinds (the runner journals it).
        history.seconds = time.perf_counter() - start
        history.interrupted = True
        exc.partial_history = history
        raise
    history.seconds = time.perf_counter() - start
    return history
