"""The gradient engine: input gradients for the attack hot path.

Every gradient-based attack (FGSM/IGSM/PGD, L-BFGS, DeepFool, JSMA, the CW
suite and the adaptive detector-aware CW) recomputes ``∂loss/∂x``
thousands of times.  :class:`GradientEngine` is the
:class:`~repro.nn.engine.PlanEngine` in ``grad`` mode: dtype-configurable
(float32 by default) compiled forward and backward kernels with no
:class:`~repro.nn.tensor.Tensor` wrappers at all.

Compiled plans with stashed activations
    :meth:`GradientEngine.forward` executes a grad-mode
    :class:`~repro.nn.plan.CompiledPlan`, whose ops stash exactly what each
    backward needs (ReLU masks, pool selection masks, tanh outputs), and
    returns ``(logits, ctx)``.  :meth:`GradientEngine.backward` seeds the
    logits with an arbitrary cotangent and replays the stack in reverse.
    Because the context is reusable, :meth:`GradientEngine.jacobian` does
    **one** forward followed by ``C`` seeded backwards.  Contexts are
    generation-stamped: a backward against a context that a later
    same-shape forward has overwritten raises
    :class:`~repro.verify.guards.GuardViolation` (``kind="stale-context"``)
    instead of silently reading the newer activations.

Row-padded convolution
    Convolution copies each image's window columns out of a padded frame
    bound at compile time, every row one contiguous run of the frame, a
    cache-sized block of images at a time; the input gradient is the
    per-image ``Wᵀ @ grad`` on ``(kh, kw, c)``-ordered weight rows
    followed by a col2im that is, at stride 1, one reduction per block
    over a strided view holding every frame element's ``k·k`` terms, and
    the bias rides the forward matmul as its last term, so steady-state
    attack iterations spend their time inside BLAS matmuls, not index
    arithmetic or per-slab NumPy calls.  A one-chunk gradient call hands
    back its chunk's arrays with no staging copy.

``engine.counters`` counts public gradient calls as ``requests`` and seeded
backwards as ``batches``.  Dtype policy: attacks default to float32 through
this engine; see DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from ..verify import guards
from .engine import PlanEngine

__all__ = ["GradientEngine", "margin_seed"]

# Offset excluding the target class from max_{i != t} Z_i (matches attacks.cw).
_EXCLUDE = 1e6


def margin_seed(
    logits: np.ndarray, target_labels: np.ndarray, confidence: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangent of the CW objective ``f = max(max_{i≠t} Z_i − Z_t + κ, 0)``.

    Returns ``(seed, margin)`` where ``seed`` is the float64 ``∂Σf/∂Z``
    matrix (rows zero once the hinge is inactive) and ``margin`` is the raw
    per-example margin (without the hinge).  Shared by
    :meth:`GradientEngine.margin_input_grad` and the detector-aware
    adaptive attack, which needs the seed alone to compose losses across
    two networks before a single backward pass.
    """
    target_labels = np.asarray(target_labels)
    z = np.asarray(logits, dtype=np.float64)
    n = len(z)
    rows = np.arange(n)
    z_target = z[rows, target_labels]
    masked = z.copy()
    masked[rows, target_labels] -= _EXCLUDE
    other = masked.argmax(axis=-1)
    margin = masked[rows, other] - z_target + confidence
    active = (margin >= 0.0).astype(np.float64)
    seed = np.zeros_like(z)
    seed[rows, other] += active
    seed[rows, target_labels] -= active
    return seed, margin


class GradientEngine(PlanEngine):
    """Batched, instrumented, dtype-configurable input gradients for one network.

    Parameters
    ----------
    network:
        The :class:`~repro.nn.network.Network` to differentiate through.
        Parameters are read live: rebinding them (optimiser step,
        ``load_state``) invalidates the cast cache automatically.
    dtype:
        Compute dtype of the fused kernels.  ``float32`` (default) roughly
        doubles BLAS throughput; ``float64`` tracks the autograd reference
        to ~1e-10.
    batch_size:
        Default batch plan of the public gradient methods; per-call
        ``batch_size`` overrides it.
    plan_entries:
        Capacity of the compiled-plan LRU (keyed by exact batch shape).
        ``0`` keeps the plan layer but recompiles per call.
    """

    mode = "grad"

    # -- public API -----------------------------------------------------------

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        """One unbatched forward pass returning ``(logits, context)``.

        The context stashes every activation the backward needs and may be
        seeded repeatedly (:meth:`jacobian` runs ``C`` backwards against
        one context).  This is the advanced API; most callers want the
        loss-specific helpers below, which batch.
        """
        out, ctx = self._run_forward(x)
        guards.check_output("GradientEngine.forward", out, self.dtype)
        return out, ctx

    def backward(self, ctx: object, seed: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Input gradient for the cotangent ``seed`` (``∂Σ(seed·Z)/∂x``).

        ``seed`` has the logits' shape; the result is in the engine dtype,
        written into ``out`` (any input-shaped view) when one is given.
        """
        self.counters.batches += 1
        self.counters.examples += ctx.batch_len
        # The plan copies the seed before any in-place transform and hands
        # back its own gradient buffer; copy at the boundary.
        grad = self._run_backward(ctx, seed)
        if out is None:
            out = grad.copy()
        else:
            np.copyto(out, grad)
        guards.check_output("GradientEngine.backward", out, self.dtype)
        return out

    def cross_entropy_input_grad(
        self, x: np.ndarray, labels: np.ndarray, batch_size: int | None = None
    ) -> np.ndarray:
        """``∂ CE(H(x), labels) / ∂x`` summed over the batch (per-example rows).

        The softmax seed is computed in float64 for stability, the network
        passes in the engine dtype; the result is in the engine dtype.
        """
        self.counters.requests += 1
        x, labels = np.asarray(x), np.asarray(labels)
        grads = []
        for begin, end in self._chunks(len(x), batch_size):
            logits, ctx = self.forward(x[begin:end])
            z = logits.astype(np.float64)
            shifted = z - z.max(axis=-1, keepdims=True)
            exps = np.exp(shifted)
            seed = exps / exps.sum(axis=-1, keepdims=True)
            seed[np.arange(end - begin), labels[begin:end]] -= 1.0
            grads.append(self.backward(ctx, seed))
        return self._join(grads) if grads else np.empty(x.shape, dtype=self.dtype)

    def logit_input_grad(
        self, x: np.ndarray, class_index: np.ndarray, batch_size: int | None = None
    ) -> np.ndarray:
        """``∂ H(x)_{class_index} / ∂x`` for a per-example class index."""
        self.counters.requests += 1
        x, class_index = np.asarray(x), np.asarray(class_index)
        grads = []
        for begin, end in self._chunks(len(x), batch_size):
            logits, ctx = self.forward(x[begin:end])
            seed = np.zeros(logits.shape, dtype=self.dtype)
            seed[np.arange(end - begin), class_index[begin:end]] = 1.0
            grads.append(self.backward(ctx, seed))
        return self._join(grads) if grads else np.empty(x.shape, dtype=self.dtype)

    def margin_input_grad(
        self,
        x: np.ndarray,
        target_labels: np.ndarray,
        confidence: float = 0.0,
        batch_size: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gradient of the CW objective ``f(x) = max(max_{i≠t} Z_i − Z_t + κ, 0)``.

        Returns ``(grad, logits, margin)``: the per-example ``∂f/∂x`` rows
        (engine dtype), the logits (engine dtype) and the raw, un-hinged
        margin (float64) — everything the CW L2/L0/L∞ inner loops need from
        one fused pass.
        """
        self.counters.requests += 1
        x, target_labels = np.asarray(x), np.asarray(target_labels)
        grads, logits_out, margins = [], [], []
        for begin, end in self._chunks(len(x), batch_size):
            logits, ctx = self.forward(x[begin:end])
            seed, margin = margin_seed(logits, target_labels[begin:end], confidence)
            grads.append(self.backward(ctx, seed))
            logits_out.append(logits)
            margins.append(margin)
        if not grads:  # 0 rows: no chunk, and no plan compiled
            empty_logits = np.empty((0, self.network.num_classes), dtype=self.dtype)
            return np.empty(x.shape, dtype=self.dtype), empty_logits, np.empty(0)
        return self._join(grads), self._join(logits_out), self._join(margins)

    def jacobian(
        self, x: np.ndarray, batch_size: int | None = None, with_logits: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Full logits Jacobian ``∂H(x)_c / ∂x``, shape ``(N, C, *input_shape)``.

        This is one forward followed by ``C`` seeded backwards against the
        *same* stashed activations, each copying the plan's gradient buffer
        straight into its slot of the result.  The result (and, with
        ``with_logits=True``, the accompanying logits) is in the engine
        dtype.
        """
        self.counters.requests += 1
        x = np.asarray(x)
        num_classes = self.network.num_classes
        rows = np.empty((len(x), num_classes) + x.shape[1:], dtype=self.dtype)
        logits_out = np.empty((len(x), num_classes), dtype=self.dtype)
        for begin, end in self._chunks(len(x), batch_size):
            logits, ctx = self.forward(x[begin:end])
            logits_out[begin:end] = logits
            seed = np.zeros((end - begin, num_classes), dtype=self.dtype)
            for c in range(num_classes):
                seed[:, c] = 1.0
                self.backward(ctx, seed, out=rows[begin:end, c])
                seed[:, c] = 0.0
        return (rows, logits_out) if with_logits else rows
