"""Input-gradient helpers shared by the gradient-based attacks.

These are thin wrappers over the network's lazily attached
:class:`~repro.nn.grad_engine.GradientEngine`: compiled-plan raw-NumPy
forward+backward kernels (float32 by default); a network with a layer
that has no plan op is rejected when the engine is built.  All three
helpers return arrays in the engine's compute dtype — ``float32`` unless
a custom engine was attached via ``Network.attach_grad_engine``.  Callers
doing float64 accumulation (optimiser state, distance bookkeeping) get
the usual NumPy promotion when they combine these with float64 operands.
"""

from __future__ import annotations

import numpy as np

from ..nn.network import Network

__all__ = ["cross_entropy_gradient", "logit_gradient", "jacobian"]


def cross_entropy_gradient(network: Network, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``∂ CE(H(x), labels) / ∂x`` summed over the batch (per-example rows).

    Sum (not mean) reduction, so each example's gradient is independent of
    the batch it rides in.  Returned in the gradient engine's dtype.
    """
    return network.grad_engine.cross_entropy_input_grad(x, labels)


def logit_gradient(network: Network, x: np.ndarray, class_index: np.ndarray) -> np.ndarray:
    """``∂ H(x)_{class_index} / ∂x`` for a per-example class index.

    Returned in the gradient engine's dtype.
    """
    return network.grad_engine.logit_input_grad(x, class_index)


def jacobian(network: Network, x: np.ndarray) -> np.ndarray:
    """Full Jacobian ``∂H(x)_c / ∂x`` of the logits for a batch.

    Returns shape ``(N, num_classes, *input_shape)`` in the gradient
    engine's dtype (float32 by default — callers needing float64 should
    cast or attach a float64 engine).  On the engine's native path this is
    one forward pass plus ``num_classes`` seeded backwards sharing the
    stashed activations; used by JSMA and DeepFool.
    """
    return network.grad_engine.jacobian(x)
