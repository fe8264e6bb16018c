"""Cross-engine differential verifier: four paths, one reference.

Every numerical result in this reproduction comes from one of four
computation paths over the same :class:`~repro.nn.network.Network`:

1. **float64 autograd** — ``network.forward`` + ``Tensor.backward``, the
   reference semantics;
2. **InferenceEngine** — compiled-plan raw-NumPy forward;
3. **GradientEngine** — compiled forward + input-gradient plans;
4. **TrainingEngine** — compiled forward + loss + parameter-gradient plans.

This module builds randomized layer stacks over the plan vocabulary
(``Dense``, ``Conv2D``, ``MaxPool2D``, ``Flatten``, ``ReLU``, ``Tanh``,
``Dropout``) and inputs (including the edge flavours that historically
diverged: tanh saturation at large magnitudes, quantized inputs that tie
max-pool windows, batches of one), pushes each case down all four paths,
and folds the results into a :class:`~repro.verify.report.Report` —
per-layer max ULP distance plus path-level relative error against the
budget (1e-4 in float32, 1e-10 in float64).  Because the compiled plans reuse arena buffers across calls,
the differ additionally replays the deterministic paths (a second
same-input call after pushing a different batch shape through the plan
cache) under a **zero** budget: any cross-call state leak in a reused
buffer is a bitwise difference.  Every comparison runs with runtime
guards enforced and with
overflow/invalid/divide trapped as hard errors, so a kernel that saturates
through ``exp`` or emits a NaN fails the case even when the final numbers
happen to agree.

Architectures are described by a flat list of *blocks* (see
:func:`build_case`).  The builder tolerates any block order — incompatible
blocks (a pool too wide for the current feature map, a conv after
flattening) are skipped rather than rejected — so a property-based test
can shrink a failing stack block-by-block to a minimal reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..nn import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GradientEngine,
    InferenceEngine,
    MaxPool2D,
    Network,
    ReLU,
    Tanh,
    Tensor,
    TrainingEngine,
    losses,
)
from ..nn.tensor import no_grad
from . import guards
from .report import Report

__all__ = ["REL_BUDGET", "Case", "build_case", "diff_case", "run_verify", "ulp_distance"]

# Path-level relative-error budget per compute dtype (max |a-b| / max(1, max |ref|)).
REL_BUDGET = {np.dtype(np.float32): 1e-4, np.dtype(np.float64): 1e-10}

NUM_CLASSES = 4

_ACTIVATIONS = {"relu": ReLU, "tanh": Tanh}

_ERRSTATE = dict(over="raise", invalid="raise", divide="raise", under="ignore")


def ulp_distance(a: np.ndarray, b: np.ndarray, dtype=None, significance: float = 1e-3) -> float:
    """Max units-in-the-last-place distance between two same-shape arrays.

    Both arrays are compared in ``dtype`` (default: ``a``'s dtype) — pass
    the *engine* dtype when the quantities were produced through a reduced
    precision pipeline but stored wider, otherwise the wider storage makes
    every rounding step look like millions of ULPs.  Entries whose
    magnitude (in both arrays) is below ``significance`` × the array scale
    are excluded: the ULP distance between two near-zero values is
    enormous yet numerically irrelevant, and those entries are already
    covered by the relative-error comparison.

    Uses the lexicographic ordered-integer transform of the IEEE bit
    patterns, so the distance is exact for nearby values; huge distances
    come back through float64 (approximate but monotone).  NaN anywhere
    yields ``inf``.
    """
    dtype = np.dtype(dtype if dtype is not None else np.asarray(a).dtype)
    a = np.ascontiguousarray(a, dtype=dtype)
    b = np.ascontiguousarray(b, dtype=dtype)
    if a.size == 0:
        return 0.0
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return float("inf")
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()))
    if scale == 0.0:
        return 0.0
    keep = (np.abs(a) >= significance * scale) | (np.abs(b) >= significance * scale)
    int_type = {2: np.int16, 4: np.int32, 8: np.int64}[dtype.itemsize]
    low = np.int64(np.iinfo(int_type).min)
    ai = a.view(int_type).astype(np.int64)[keep]
    bi = b.view(int_type).astype(np.int64)[keep]
    ai = np.where(ai >= 0, ai, low - ai)
    bi = np.where(bi >= 0, bi, low - bi)
    # Exact int64 subtraction where it cannot overflow (same-sign or small
    # distances); the float64 approximation — which cannot represent a ±1
    # difference between 2^62-scale ordinals — only for values so far
    # apart that precision is irrelevant.
    approx = np.abs(ai.astype(np.float64) - bi.astype(np.float64))
    exact = approx < 2.0**52
    if exact.any():
        approx[exact] = np.abs(ai[exact] - bi[exact]).astype(np.float64)
    return float(approx.max(initial=0.0))


def _rel_error(value: np.ndarray, reference: np.ndarray) -> float:
    """max |value − reference| / max(1, max |reference|), in float64."""
    value = np.asarray(value, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if value.size == 0:
        return 0.0
    scale = max(1.0, float(np.abs(reference).max(initial=0.0)))
    return float(np.abs(value - reference).max(initial=0.0)) / scale


@dataclass
class Case:
    """One architecture + input pairing shared by all four paths."""

    network: Network
    x: np.ndarray
    labels: np.ndarray
    blocks: tuple
    seed: int

    def describe(self) -> str:
        stack = "/".join(type(layer).__name__ for layer in self.network.layers)
        return f"seed={self.seed} batch={len(self.x)} stack={stack}"


def build_case(
    blocks: Sequence[tuple],
    *,
    channels: int = 1,
    side: int = 6,
    batch: int = 3,
    scale: float = 1.0,
    seed: int = 0,
    classes: int = NUM_CLASSES,
    quantize: bool = False,
) -> Case:
    """Materialize a block list into a network plus a matching input batch.

    Blocks: ``("dense", out)``, ``("act", name)``, ``("dropout", rate)``,
    ``("conv", out_c, kernel, stride, padding)``, ``("maxpool", size,
    stride)``.  Blocks that do not fit the running feature-map geometry
    are skipped, so *every* block list (including any shrunk sublist)
    builds a valid network.  A final ``Dense`` head to ``classes`` logits
    is always appended.
    """
    rng = np.random.default_rng(seed)
    layers: list = []
    c, s = channels, side
    features: int | None = None  # set once the stack flattens

    for block in blocks:
        kind = block[0]
        if kind == "conv" and features is None:
            _, out_c, kernel, stride, padding = block
            new_s = (s + 2 * padding - kernel) // stride + 1
            if s + 2 * padding < kernel or new_s < 1:
                continue
            layers.append(Conv2D(c, out_c, kernel, rng, stride=stride, padding=padding))
            c, s = out_c, new_s
        elif kind == "maxpool" and features is None:
            _, size, stride = block
            new_s = (s - size) // stride + 1
            if s < size or new_s < 1:
                continue
            layers.append(MaxPool2D(size, stride=stride))
            s = new_s
        elif kind == "act":
            layers.append(_ACTIVATIONS[block[1]]())
        elif kind == "dropout":
            layers.append(Dropout(block[1], rng))
        elif kind == "dense":
            if features is None:
                layers.append(Flatten())
                features = c * s * s
            layers.append(Dense(features, block[1], rng))
            features = block[1]

    if features is None:
        layers.append(Flatten())
        features = c * s * s
    layers.append(Dense(features, classes, rng))

    network = Network(layers, (channels, side, side))
    x = rng.normal(scale=scale, size=(batch, channels, side, side))
    if quantize:
        # Coarse grid → repeated values → max-pool ties, the argmax-order
        # hazard between the strided autograd pool and the im2col kernels.
        x = np.clip(np.round(x * 4) / 4, -scale, scale)
    labels = rng.integers(0, classes, size=batch)
    return Case(network=network, x=x, labels=labels, blocks=tuple(blocks), seed=seed)


# -- reference (float64 autograd) ---------------------------------------------


def _autograd_layer_outputs(network: Network, x: np.ndarray) -> list[np.ndarray]:
    """Per-layer inference-mode activations of the float64 reference path."""
    with no_grad():
        out = Tensor(np.asarray(x, dtype=np.float64))
        activations = []
        for layer in network.layers:
            out = layer.forward(out, training=False)
            activations.append(out.data)
    return activations


def _autograd_input_grad(network: Network, x: np.ndarray, seed: np.ndarray) -> np.ndarray:
    inp = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
    logits = network.forward(inp)
    logits.backward(np.asarray(seed, dtype=np.float64))
    assert inp.grad is not None
    return inp.grad


def _named_parameters(network: Network):
    """(label, param) pairs in a stable walk order; labels aggregate by type."""
    for layer in network.layers:
        for name, param in getattr(layer, "params", {}).items():
            yield f"{type(layer).__name__}.{name}", param


# -- the differ ----------------------------------------------------------------


def diff_case(case: Case, dtype, report: Report | None = None, label: str = "") -> Report:
    """Push one case down all four paths and fold the evidence into a report."""
    report = report if report is not None else Report()
    report.cases += 1
    dtype = np.dtype(dtype)
    budget = REL_BUDGET[dtype]
    dtype_name = dtype.name
    case_label = label or case.describe()
    network, x, labels = case.network, case.x, case.labels

    with guards.enforce(True), np.errstate(**_ERRSTATE):
        reference = _autograd_layer_outputs(network, x)
        ref_logits = reference[-1]

        # Path 2: InferenceEngine, layer by layer then end to end.
        engine = InferenceEngine(network, dtype=dtype, memo_entries=0)
        x_cast = np.ascontiguousarray(x, dtype=dtype)
        plan = engine._plan_for(x_cast.shape)
        for layer, out, ref in zip(network.layers, plan.layer_outputs(x_cast), reference):
            report.record(
                case_label,
                "infer-fwd",
                type(layer).__name__,
                dtype_name,
                _rel_error(out, ref),
                ulp_distance(out, ref),
            )
        logits = engine.logits(x, memo=False)
        report.record(
            case_label,
            "infer-fwd",
            "network",
            dtype_name,
            _rel_error(logits, ref_logits),
            ulp_distance(logits, ref_logits),
            budget,
        )
        # Replay determinism: run a different batch shape through the same
        # engine (exercising a second cached plan), then repeat the original
        # call.  The arena buffers are reused across calls, so any cross-call
        # state leak shows up as a bitwise difference — the budget is 0.
        if len(x) > 1:
            engine.logits(x[:1], memo=False)
        replay = engine.logits(x, memo=False)
        report.record(
            case_label,
            "infer-replay",
            "network",
            dtype_name,
            _rel_error(replay, logits),
            ulp_distance(replay, logits),
            0.0,
        )

        # Path 3: GradientEngine forward + backward against autograd grads.
        cotangent = np.random.default_rng(case.seed + 1).normal(size=ref_logits.shape)
        gradient = GradientEngine(network, dtype=dtype)
        g_logits, ctx = gradient.forward(x)
        report.record(
            case_label,
            "grad-fwd",
            "network",
            dtype_name,
            _rel_error(g_logits, ref_logits),
            ulp_distance(g_logits, ref_logits),
            budget,
        )
        input_grad = gradient.backward(ctx, cotangent.astype(dtype))
        ref_grad = _autograd_input_grad(network, x, cotangent)
        report.record(
            case_label,
            "grad-bwd",
            "network",
            dtype_name,
            _rel_error(input_grad, ref_grad),
            ulp_distance(input_grad, ref_grad),
            budget,
        )
        # Replay determinism through the gradient plan's reused buffers:
        # eval-mode semantics are deterministic, so a second forward +
        # backward must reproduce both results bitwise (budget 0).
        g_logits2, ctx2 = gradient.forward(x)
        input_grad2 = gradient.backward(ctx2, cotangent.astype(dtype))
        report.record(
            case_label,
            "grad-replay",
            "network",
            dtype_name,
            max(_rel_error(g_logits2, g_logits), _rel_error(input_grad2, input_grad)),
            max(ulp_distance(g_logits2, g_logits), ulp_distance(input_grad2, input_grad)),
            0.0,
        )

        # Path 4: TrainingEngine parameter gradients and loss.
        _diff_training(case, dtype, report, case_label, budget)

    return report


def _reseed_dropout(network: Network, seed: int) -> None:
    for layer in network.layers:
        if isinstance(layer, Dropout):
            layer._rng = np.random.default_rng(seed)


def _diff_training(case: Case, dtype: np.dtype, report: Report, label: str, budget: float) -> None:
    """Compare fused and autograd training passes from identical state.

    Both runs start with identically reseeded dropout generators, so the
    parameter gradients and the loss value must match pointwise.  Neither
    run steps a parameter; the dropout generators and cleared gradients are
    restored afterwards, so the verifier never leaves a network perturbed.
    """
    network, x, labels = case.network, case.x, case.labels
    dtype_name = dtype.name
    dropouts = [(layer, layer._rng) for layer in network.layers if isinstance(layer, Dropout)]
    try:
        _reseed_dropout(network, case.seed + 7)
        network.zero_grad()
        loss_tensor = losses.cross_entropy(
            network.forward(Tensor(np.asarray(x, dtype=np.float64)), training=True), labels
        )
        loss_tensor.backward()
        ref_loss = float(loss_tensor.data)
        ref_grads = [
            (name, None if p.grad is None else p.grad.copy())
            for name, p in _named_parameters(network)
        ]

        _reseed_dropout(network, case.seed + 7)
        network.zero_grad()
        trainer = TrainingEngine(network, dtype=dtype)
        value, _ = trainer.train_batch(x, labels)

        report.record(
            label,
            "train-loss",
            "network",
            dtype_name,
            abs(value - ref_loss) / max(1.0, abs(ref_loss)),
            ulp_distance(np.asarray(value), np.asarray(ref_loss), dtype=dtype),
            budget,
        )
        # Positional zip: both lists walk the same network in the same
        # order, so no name collisions between same-typed layers.
        for (name, ref), (_, param) in zip(ref_grads, _named_parameters(network)):
            grad = param.grad
            if ref is None or grad is None:
                continue
            report.record(
                label,
                "train-grad",
                name,
                dtype_name,
                _rel_error(grad, ref),
                ulp_distance(grad, ref, dtype=dtype),
                budget,
            )
    finally:
        for layer, rng in dropouts:
            layer._rng = rng
        network.zero_grad()


# -- randomized case sampling --------------------------------------------------


def sample_blocks(rng: np.random.Generator) -> list[tuple]:
    """One random architecture description in the differ's block language."""
    blocks: list[tuple] = []
    act = str(rng.choice(["relu", "tanh"]))
    if rng.random() < 0.6:  # conv stack
        blocks.append(
            (
                "conv",
                int(rng.choice([2, 3])),
                int(rng.choice([2, 3])),
                int(rng.choice([1, 2])),
                int(rng.choice([0, 1])),
            )
        )
        blocks.append(("act", act))
        pool = str(rng.choice(["none", "max", "max-overlap"]))
        if pool == "max":
            blocks.append(("maxpool", 2, 2))
        elif pool == "max-overlap":
            blocks.append(("maxpool", 2, 1))
    else:  # dense stack
        blocks.append(("dense", int(rng.choice([6, 10]))))
        blocks.append(("act", act))
    if rng.random() < 0.3:
        blocks.append(("dropout", 0.3))
    return blocks


def sample_case(seed: int) -> Case:
    """One random case: architecture, input scale/shape, edge flavours."""
    rng = np.random.default_rng(seed)
    blocks = sample_blocks(rng)
    # Scale 30 drives tanh deep into saturation; quantization creates
    # pooling ties; batch 1 runs a single-row Dense on its two-row buffer.
    scale = float(rng.choice([0.5, 1.0, 3.0, 30.0]))
    batch = int(rng.integers(1, 5))
    side = int(rng.choice([5, 6, 8]))
    channels = int(rng.choice([1, 2]))
    quantize = bool(rng.random() < 0.3)
    return build_case(
        blocks,
        channels=channels,
        side=side,
        batch=batch,
        scale=scale,
        seed=seed,
        quantize=quantize,
    )


def run_verify(seed: int = 0, cases: int = 25, dtypes: Sequence = (np.float32, np.float64)) -> Report:
    """Run the full differential sweep; the CLI's ``verify`` command."""
    report = Report()
    master = np.random.default_rng(seed)
    for index in range(cases):
        case_seed = int(master.integers(0, 2**31))
        case = sample_case(case_seed)
        label = f"case {index} ({case.describe()})"
        for dtype in dtypes:
            diff_case(case, dtype, report, label=label)
    # diff_case counts once per (case, dtype) pass; surface distinct cases.
    report.cases = cases
    return report
