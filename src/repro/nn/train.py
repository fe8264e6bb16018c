"""Mini-batch training loop with history tracking.

The loop is served by the fused
:class:`~repro.nn.train_engine.TrainingEngine` whenever the loss is one
the engine can seed natively (a :class:`~repro.nn.train_engine.TrainLoss`
— the default cross-entropy, distillation's soft targets, the
autoencoder MSE).  A custom autograd ``loss_fn`` callable keeps the
legacy float64 Tensor-graph path, as does ``TrainConfig(engine=False)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .losses import cross_entropy
from .network import Network
from .optim import Optimizer
from .schedules import Schedule
from .tensor import Tensor
from .train_engine import CROSS_ENTROPY, TrainLoss, train_engine_for

__all__ = ["TrainConfig", "History", "fit"]


@dataclass
class TrainConfig:
    """Hyper-parameters for :func:`fit`."""

    epochs: int = 10
    batch_size: int = 128
    shuffle: bool = True
    verbose: bool = False
    # Optional per-epoch multiplicative LR decay (1.0 = constant); a thin
    # shim over `schedule` — ignored when a schedule is given.
    lr_decay: float = 1.0
    # Optional LR schedule: a `Schedule` or any `epoch -> lr` callable,
    # applied before each epoch (and once more with `epochs` at the end,
    # matching the legacy post-epoch decay semantics).
    schedule: Schedule | Callable[[int], float] | None = None
    # Compute dtype of the fused training kernels ("float32"/"float64").
    dtype: str = "float32"
    # Route batches through the TrainingEngine; False = legacy autograd.
    engine: bool = True


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
    val_accuracy: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    seconds: float = 0.0
    interrupted: bool = False


def _resolve_schedule(config: TrainConfig, base_lr: float) -> Callable[[int], float] | None:
    """The effective epoch->lr callable, or None for a constant rate."""
    if config.schedule is not None:
        sched = config.schedule
        return sched.rate if isinstance(sched, Schedule) else sched
    if config.lr_decay != 1.0:
        return lambda epoch: base_lr * config.lr_decay**epoch
    return None


def fit(
    network: Network,
    optimizer: Optimizer,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
    loss_fn: Callable[[Tensor, np.ndarray], Tensor] = cross_entropy,
    x_val: np.ndarray | None = None,
    y_val: np.ndarray | None = None,
    loss: TrainLoss | None = None,
) -> History:
    """Train ``network`` on ``(x, y)``.

    ``y`` may be integer labels (default cross-entropy) or per-example
    target rows (distillation soft labels, autoencoder images).  Pass a
    :class:`~repro.nn.train_engine.TrainLoss` via ``loss`` for the fused
    engine path with a non-default objective; a plain ``loss_fn``
    callable (autograd Tensor loss) forces the legacy float64 loop.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if len(x) != len(y):
        raise ValueError(f"x and y lengths differ: {len(x)} vs {len(y)}")
    if loss is None and loss_fn is cross_entropy:
        loss = CROSS_ENTROPY
    use_engine = config.engine and loss is not None
    if use_engine:
        engine = train_engine_for(network, config.dtype)
        bound = engine.parameters_bound()
    else:
        x = np.asarray(x, dtype=np.float64)
        engine, bound = None, None
        if loss is not None:
            loss_fn = loss.tensor_fn

    history = History()
    schedule = _resolve_schedule(config, getattr(optimizer, "lr", 0.0))
    start = time.perf_counter()
    indices = np.arange(len(x))
    if bound is not None:
        bound.__enter__()
    try:
        for epoch in range(config.epochs):
            if schedule is not None and hasattr(optimizer, "lr"):
                optimizer.lr = schedule(epoch)
            epoch_start = time.perf_counter()
            if config.shuffle:
                rng.shuffle(indices)
            epoch_loss = 0.0
            correct = 0
            for begin in range(0, len(x), config.batch_size):
                batch_idx = indices[begin : begin + config.batch_size]
                xb, yb = x[batch_idx], y[batch_idx]
                optimizer.zero_grad()
                if engine is not None:
                    loss_value, logits_data = engine.train_batch(xb, yb, loss=loss)
                else:
                    logits = network.forward(Tensor(xb), training=True)
                    loss_t = loss_fn(logits, yb)
                    loss_t.backward()
                    loss_value, logits_data = float(loss_t.data), logits.data
                optimizer.step()
                epoch_loss += loss_value * len(xb)
                predicted = logits_data.argmax(axis=-1)
                hard = yb if yb.ndim == 1 else yb.argmax(axis=-1)
                correct += int((predicted == hard).sum())
            history.loss.append(epoch_loss / len(x))
            history.accuracy.append(correct / len(x))
            history.epoch_seconds.append(time.perf_counter() - epoch_start)
            if x_val is not None and y_val is not None:
                history.val_accuracy.append(network.accuracy(x_val, y_val))
            if config.verbose:
                val = f" val_acc={history.val_accuracy[-1]:.4f}" if history.val_accuracy else ""
                print(
                    f"epoch {epoch + 1}/{config.epochs}: "
                    f"loss={history.loss[-1]:.4f} acc={history.accuracy[-1]:.4f}{val}"
                )
        # Leave the optimiser at the post-training rate, exactly as the
        # legacy per-epoch multiplicative decay did.
        if schedule is not None and hasattr(optimizer, "lr"):
            optimizer.lr = schedule(config.epochs)
    except KeyboardInterrupt as exc:
        # Exit cleanly: flush what the completed epochs measured, hand the
        # partial history to the caller via the exception, and re-raise so
        # the interrupt still unwinds (the runner journals it).
        history.seconds = time.perf_counter() - start
        history.interrupted = True
        exc.partial_history = history
        raise
    finally:
        if bound is not None:
            bound.__exit__(None, None, None)
    history.seconds = time.perf_counter() - start
    return history
