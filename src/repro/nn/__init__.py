"""NumPy deep-learning substrate: autograd, layers, losses, optimisers.

This package replaces the Keras/TensorFlow stack the paper used; see
DESIGN.md §2 for the substitution rationale.
"""

from . import gradcheck, init, losses, metrics, ops, optim
from .engine import EngineCounters, InferenceEngine, PlanEngine
from .grad_engine import GradientEngine
from .layers import Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU, Tanh
from .network import Network
from .optim import SGD, Adam
from .plan import DEFAULT_PLAN_ENTRIES, CompiledPlan, compile_plan
from .tensor import Tensor, as_tensor, no_grad
from .train import History, TrainConfig, fit
from .train_engine import (
    CROSS_ENTROPY,
    MSE,
    TrainingEngine,
    TrainLoss,
    soft_cross_entropy_loss,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "Network",
    "PlanEngine",
    "InferenceEngine",
    "EngineCounters",
    "GradientEngine",
    "TrainingEngine",
    "TrainLoss",
    "CROSS_ENTROPY",
    "MSE",
    "soft_cross_entropy_loss",
    "CompiledPlan",
    "compile_plan",
    "DEFAULT_PLAN_ENTRIES",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "Flatten",
    "ReLU",
    "Tanh",
    "Dropout",
    "SGD",
    "Adam",
    "TrainConfig",
    "History",
    "fit",
    "ops",
    "losses",
    "optim",
    "init",
    "metrics",
    "gradcheck",
]
