"""Tests for the compiled-plan layer: caching, invalidation, reuse hazards."""

import hashlib
from typing import Callable

import numpy as np
import pytest

from repro.nn import GradientEngine, InferenceEngine, SGD, Tensor, TrainingEngine, no_grad
from repro.nn.kernels import conv_output_size
from repro.nn.layers import Conv2D, Dense, Dropout, Flatten, Layer, MaxPool2D, ReLU, Tanh
from repro.nn.losses import cross_entropy
from repro.nn.network import Network
from repro.nn.ops import im2col
from repro.nn import plan as plan_module
from repro.nn.plan import CompiledPlan, _ConvOp, compile_plan, unplannable
from repro.nn.train import TrainConfig, fit
from repro.verify.guards import GuardViolation
from repro.zoo import MODEL_CONFIGS, build_network

NUM_CLASSES = 3
INPUT_SHAPE = (1, 6, 6)


def _network(seed=0):
    rng = np.random.default_rng(seed)
    layers = [
        Conv2D(1, 2, 3, rng, stride=1, padding=1),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Dense(2 * 3 * 3, NUM_CLASSES, rng),
    ]
    return Network(layers, INPUT_SHAPE)


def _batch(n=4, seed=1):
    return np.random.default_rng(seed).normal(size=(n,) + INPUT_SHAPE)


def _reference_logits(network, x):
    with no_grad():
        return network.forward(Tensor(np.asarray(x, dtype=np.float64))).data


class TestPlanCacheKeys:
    def test_batch_shape_change_misses_and_refreshes(self):
        engine = InferenceEngine(_network(), memo_entries=0)
        engine.logits(_batch(4), memo=False)
        assert engine.counters.plan_misses == 1
        engine.logits(_batch(4, seed=9), memo=False)  # same shape, new content
        assert engine.counters.plan_hits == 1
        engine.logits(_batch(2), memo=False)  # new shape compiles a new plan
        assert engine.counters.plan_misses == 2

    def test_plan_lru_is_bounded(self):
        engine = InferenceEngine(_network(), memo_entries=0, plan_entries=2)
        for n in (1, 2, 3):
            engine.logits(_batch(n), memo=False)
        assert len(engine._plans) == 2
        engine.logits(_batch(1), memo=False)  # n=1 was evicted: recompile
        assert engine.counters.plan_misses == 4

    def test_plan_entries_zero_recompiles_per_call(self):
        engine = InferenceEngine(_network(), memo_entries=0, plan_entries=0)
        x = _batch(3)
        first = engine.logits(x, memo=False)
        second = engine.logits(x, memo=False)
        assert engine.counters.plan_misses == 2 and engine.counters.plan_hits == 0
        np.testing.assert_array_equal(first, second)

    def test_negative_plan_entries_rejected(self):
        with pytest.raises(ValueError):
            InferenceEngine(_network(), plan_entries=-1)


class TestParameterInvalidation:
    def test_inplace_sgd_step_changes_compiled_results(self):
        # In-place optimiser updates bump Tensor.version; the identity+
        # version-checked cast cache must feed the *new* weights into the
        # already-compiled plan.
        network = _network()
        engine = network.engine
        x = _batch(4)
        before = engine.logits(x).copy()
        trainer = TrainingEngine(network, dtype=np.float64)
        optimizer = SGD(network.parameters(), lr=0.5)
        network.zero_grad()
        trainer.train_batch(x, np.arange(len(x)) % NUM_CLASSES)
        optimizer.step()
        after = engine.logits(x)
        assert engine.counters.plan_misses == 1  # same plan, refreshed params
        assert not np.allclose(before, after)
        np.testing.assert_allclose(
            after.astype(np.float64), _reference_logits(network, x), atol=1e-4
        )

    def test_fit_dtype_swap_rebinding_keeps_engines_coherent(self):
        # fit() rebinds every parameter to float32 for the run and restores
        # float64 on exit; both rebindings change array identity, and every
        # engine cache must follow without explicit invalidation.
        network = _network()
        x = _batch(16)
        y = np.arange(16) % NUM_CLASSES
        stale = network.engine.logits(x).copy()
        fit(
            network,
            SGD(network.parameters(), lr=0.1),
            x,
            y,
            TrainConfig(epochs=2, batch_size=8),
            np.random.default_rng(0),
        )
        assert network.parameters()[0].data.dtype == np.float64
        trained = network.engine.logits(x)
        assert not np.allclose(stale, trained)
        np.testing.assert_allclose(
            trained.astype(np.float64), _reference_logits(network, x), atol=1e-4
        )

    def test_memo_stays_consistent_with_compiled_plans(self):
        network = _network()
        engine = network.engine
        x = _batch(4)
        memoised = engine.logits(x)  # primes the memo
        fresh = engine.logits(x, memo=False)  # straight through the plan
        np.testing.assert_array_equal(memoised, fresh)
        hit = engine.logits(x)
        assert engine.counters.memo_hits == 1
        np.testing.assert_array_equal(hit, fresh)


class TestEmptyBatch:
    def test_infer_plan_handles_zero_examples(self):
        network = _network()
        plan = compile_plan(network, (0,) + INPUT_SHAPE, np.float32, "infer", network.engine._cast)
        out = plan.run(np.zeros((0,) + INPUT_SHAPE, dtype=np.float32))
        assert out.shape == (0, NUM_CLASSES)

    def test_engines_handle_zero_examples_end_to_end(self):
        network = _network()
        empty = np.zeros((0,) + INPUT_SHAPE)
        labels = np.zeros((0,), dtype=int)
        assert network.engine.logits(empty).shape == (0, NUM_CLASSES)
        grad = GradientEngine(network)
        assert grad.cross_entropy_input_grad(empty, labels).shape == empty.shape
        trainer = TrainingEngine(network)
        value, logits = trainer.train_batch(empty, labels)
        assert value == 0.0 and logits.shape == (0, NUM_CLASSES)

    def test_zero_row_gradient_calls_compile_no_plan(self):
        network = _network()
        grad = GradientEngine(network)
        empty = np.zeros((0,) + INPUT_SHAPE)
        labels = np.zeros((0,), dtype=int)
        g, logits, margin = grad.margin_input_grad(empty, labels)
        assert g.shape == empty.shape and g.dtype == grad.dtype
        assert logits.shape == (0, NUM_CLASSES) and logits.dtype == grad.dtype
        assert margin.shape == (0,) and margin.dtype == np.float64
        assert grad.cross_entropy_input_grad(empty, labels).shape == empty.shape
        assert grad.logit_input_grad(empty, labels).shape == empty.shape
        assert grad.counters.plan_misses == 0 and not grad._plans

    def test_grad_plan_forward_backward_with_zero_examples(self):
        network = _network()
        grad = GradientEngine(network)
        logits, ctx = grad.forward(np.zeros((0,) + INPUT_SHAPE))
        assert logits.shape == (0, NUM_CLASSES)
        out = grad.backward(ctx, np.zeros((0, NUM_CLASSES)))
        assert out.shape == (0,) + INPUT_SHAPE


class TestContextStaleness:
    def test_backward_after_newer_forward_raises(self):
        network = _network()
        grad = GradientEngine(network)
        x = _batch(3)
        _, old_ctx = grad.forward(x)
        grad.forward(_batch(3, seed=5))  # same plan: overwrites stashes
        with pytest.raises(GuardViolation) as err:
            grad.backward(old_ctx, np.ones((3, NUM_CLASSES)))
        assert err.value.kind == "stale-context"

    def test_contexts_from_different_shapes_stay_independent(self):
        network = _network()
        grad = GradientEngine(network)
        x = _batch(3)
        _, ctx = grad.forward(x)
        grad.forward(_batch(2))  # different shape -> different plan
        out = grad.backward(ctx, np.ones((3, NUM_CLASSES)))
        assert out.shape == x.shape


class TestCompiledPlanContract:
    def test_unplannable_matches_engine_decision(self):
        network = _network()
        assert unplannable(network) == []
        network.engine  # builds: the engine accepts what unplannable() passes
        odd = Network(network.layers + [Layer()], network.input_shape)
        assert unplannable(odd) == ["Layer"]
        with pytest.raises(ValueError, match="Layer"):
            InferenceEngine(odd)

    def test_rejects_unknown_mode_and_trainless_accumulate(self):
        network = _network()
        with pytest.raises(ValueError):
            CompiledPlan(network, (1,) + INPUT_SHAPE, np.float32, "predict", network.engine._cast)
        with pytest.raises(ValueError):
            CompiledPlan(network, (1,) + INPUT_SHAPE, np.float32, "train", network.engine._cast)

    def test_caller_input_is_never_mutated(self):
        # ReLU heads the stack after conv; the compiled fusion must not
        # write through to the caller's array even when the first layer is
        # elementwise.
        rng = np.random.default_rng(3)
        network = Network([ReLU(), Flatten(), Dense(9, NUM_CLASSES, rng)], (1, 3, 3))
        x = np.random.default_rng(4).normal(size=(2, 1, 3, 3)).astype(np.float32)
        snapshot = x.copy()
        network.engine.logits(x, memo=False)
        np.testing.assert_array_equal(x, snapshot)

    def test_layer_outputs_align_with_network_layers(self):
        network = _network()
        x = np.ascontiguousarray(_batch(2), dtype=np.float64)
        engine64 = InferenceEngine(network, dtype=np.float64)
        plan = compile_plan(network, x.shape, np.float64, "infer", engine64._cast)
        outs = plan.layer_outputs(x)
        assert len(outs) == len(network.layers)
        with no_grad():
            ref = Tensor(x)
            for layer, out in zip(network.layers, outs):
                ref = layer.forward(ref, training=False)
                np.testing.assert_array_equal(out, ref.data)

    def test_arena_buffers_are_reused_across_calls(self):
        network = _network()
        engine = InferenceEngine(network, memo_entries=0)
        x = np.ascontiguousarray(_batch(4), dtype=np.float32)
        plan = engine._plan_for(x.shape)
        first = plan.run(x)
        second = plan.run(x)
        assert first is second  # same plan-owned buffer both times
        assert plan.arena_bytes > 0


# -- per-call reference kernels (the pre-plan inference path) -------------------


def max_pool_forward(x: np.ndarray, size: int, stride: int) -> np.ndarray:
    """Inference max pool; fast reshape path for aligned non-overlapping windows."""
    n, c, h, w = x.shape
    if stride == size and h % size == 0 and w % size == 0:
        return x.reshape(n, c, h // size, size, w // size, size).max(axis=(3, 5))
    out_h = conv_output_size(h, size, stride)
    out_w = conv_output_size(w, size, stride)
    cols = im2col(x.reshape(n * c, 1, h, w), size, stride)
    return cols.max(axis=1).reshape(n, c, out_h, out_w)


def build_percall_infer_kernels(
    network, cast: Callable[[object], np.ndarray]
) -> list[Callable[[np.ndarray], np.ndarray]] | None:
    """The pre-plan per-call dispatch: one allocating closure per layer.

    ``cast`` maps a parameter :class:`~repro.nn.tensor.Tensor` to its
    engine-dtype array (the engines pass their staleness-checked cast
    cache).  Returns ``None`` when the network contains an unsupported
    layer type.  This path re-decides shapes and re-allocates every
    temporary on every call, convolution as the row-major
    ``cols @ w_mat.T`` over ``im2col`` patch rows — an independent
    reference for the plan parity tests.
    """
    kernels = []
    for layer in network.layers:
        kernel = _percall_kernel(layer, cast)
        if kernel is None:
            return None
        kernels.append(kernel)
    return kernels


def _percall_kernel(layer, cast) -> Callable[[np.ndarray], np.ndarray] | None:
    if isinstance(layer, Dense):
        weight, bias = layer.params["weight"], layer.params["bias"]
        return lambda x: x @ cast(weight) + cast(bias)
    if isinstance(layer, Conv2D):
        return _percall_conv_kernel(layer, cast)
    if isinstance(layer, MaxPool2D):
        return lambda x: max_pool_forward(x, layer.size, layer.stride)
    if isinstance(layer, Flatten):
        return lambda x: x.reshape(len(x), int(np.prod(x.shape[1:])))
    if isinstance(layer, ReLU):
        return lambda x: np.maximum(x, 0.0, dtype=x.dtype)
    if isinstance(layer, Tanh):
        return np.tanh
    if isinstance(layer, Dropout):
        return lambda x: x  # inference-time identity
    return None


def _percall_conv_kernel(layer: Conv2D, cast) -> Callable[[np.ndarray], np.ndarray]:
    weight, bias = layer.params["weight"], layer.params["bias"]
    stride, padding, kernel = layer.stride, layer.padding, layer.kernel_size
    c_out = layer.out_channels

    def run(x: np.ndarray) -> np.ndarray:
        if padding:
            x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        n, _, h, w = x.shape
        out_h = conv_output_size(h, kernel, stride)
        out_w = conv_output_size(w, kernel, stride)
        cols = im2col(x, kernel, stride)
        w_mat = cast(weight).reshape(c_out, -1)
        out = cols @ w_mat.T + cast(bias)
        return np.ascontiguousarray(out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2))

    return run


def _percall_logits(network, x):
    engine = InferenceEngine(network, dtype=x.dtype)
    out = x
    for kernel in build_percall_infer_kernels(network, engine._cast):
        out = kernel(out)
    return out


_ZOO_SHAPES = {
    "cnn-fast": ("cnn-fast", (1, 16, 16)),
    "cnn-fast-wide": ("cnn-fast-wide", (3, 16, 16)),
    "cnn-paper-mnist": ("cnn-paper", (1, 28, 28)),
    "cnn-paper-cifar": ("cnn-paper", (3, 32, 32)),
}


def _zoo_architecture(name, seed=0):
    config, shape = _ZOO_SHAPES[name]
    return build_network(MODEL_CONFIGS[config], shape, 10, seed=seed), shape


def test_zoo_shapes_cover_every_model_at_every_dataset_shape():
    # The bias-in-GEMM fold and the float32 batch-independence rules hold
    # only for the conv shapes measured; a new architecture or dataset
    # shape must join _ZOO_SHAPES so TestBiasInGemm and the parity tests
    # run over it.
    from repro.datasets.registry import DATASET_CONFIGS
    from repro.zoo import _DATASET_MODEL

    covered = set(_ZOO_SHAPES.values())
    for dataset, model in _DATASET_MODEL.items():
        config = DATASET_CONFIGS[dataset]
        shape = (config.channels, config.image_size, config.image_size)
        assert (model, shape) in covered, (dataset, model, shape)
    assert set(MODEL_CONFIGS) <= {model for model, _ in covered}


class TestImageMajorConv:
    """The image-major conv lowering against the row-major per-call reference."""

    def test_columns_match_manual_patch_extraction(self):
        c, h, w, k, s = 2, 5, 5, 3, 2
        rng = np.random.default_rng(0)
        network = Network([Conv2D(c, 3, k, rng, stride=s, padding=1)], (c, h, w))
        x = np.arange(2 * c * h * w, dtype=np.float64).reshape(2, c, h, w)
        plan = compile_plan(network, x.shape, np.float64, "infer", network.engine._cast)
        plan.run(x)
        conv = plan.steps[0]
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for image in range(2):
            position = 0
            for i in range(conv.oh):
                for j in range(conv.ow):
                    patch = padded[image, :, i * s : i * s + k, j * s : j * s + k].reshape(-1)
                    np.testing.assert_array_equal(conv.cols[image, :, position], patch)
                    position += 1

    @pytest.mark.parametrize("n", [2, 7, 64])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("c_in", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_infer_plan_matches_percall_reference(self, dtype, c_in, kernel, padding, stride, n):
        rng = np.random.default_rng(0)
        conv = Conv2D(c_in, 4, kernel, rng, stride=stride, padding=padding)
        features = int(np.prod(conv.output_shape((c_in, 8, 8))))
        network = Network([conv, ReLU(), Flatten(), Dense(features, 3, rng)], (c_in, 8, 8))
        x = np.random.default_rng(1).normal(size=(n, c_in, 8, 8)).astype(dtype)
        out = InferenceEngine(network, dtype=dtype).logits(x, memo=False)
        reference = _percall_logits(network, x)
        if dtype == np.float32:
            np.testing.assert_array_equal(out, reference)
        else:
            # W @ cols and cols @ W.T hand BLAS the same product with the
            # operand roles swapped; OpenBLAS's double-precision edge kernels
            # can then round the last bit differently (seen at C*k*k = 27).
            np.testing.assert_allclose(out, reference, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("name", ["cnn-fast", "cnn-fast-wide"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zoo_architectures_bitwise_equal_to_percall(self, name, dtype):
        network, shape = _zoo_architecture(name)
        x = np.random.default_rng(0).uniform(size=(64,) + shape).astype(dtype)
        engine = InferenceEngine(network, dtype=dtype, memo_entries=0)
        for n in (2, 7, 64):
            np.testing.assert_array_equal(
                engine.logits(x[:n], memo=False), _percall_logits(network, x[:n])
            )

    @pytest.mark.parametrize("name", list(_ZOO_SHAPES))
    def test_float32_rows_independent_of_batch_size(self, name):
        # A row's float32 logits must not depend on the batch it arrives in:
        # a bucket-1 dispatch and a coalesced one must agree bit for bit.
        # cnn-paper's 1568- and 2048-input Dense layers took BLAS's
        # small-matrix kernels below 5 and 4 rows.
        network, shape = _zoo_architecture(name)
        x = np.random.default_rng(0).uniform(size=(64,) + shape).astype(np.float32)
        engine = InferenceEngine(network, memo_entries=0)
        full = engine.logits(x, memo=False)
        for n in range(1, 9):
            np.testing.assert_array_equal(engine.logits(x, batch_size=n, memo=False), full)

    @pytest.mark.parametrize(
        "name,dtype,n,digest",
        [
            ("cnn-fast", "float32", 2, "677e6ccbf02a8d3c"),
            ("cnn-fast", "float32", 7, "ffec1671b0e17da7"),
            ("cnn-fast", "float64", 2, "e7ba0614b0d22453"),
            ("cnn-fast", "float64", 7, "3a0ab9e5910f02b5"),
            ("cnn-fast-wide", "float32", 2, "af5c9517da036bb1"),
            ("cnn-fast-wide", "float32", 7, "3d248b19b0786de1"),
            ("cnn-paper-mnist", "float32", 2, "5ccaaeba117dcced"),
            ("cnn-paper-mnist", "float32", 7, "238bcbd133e77c13"),
            ("cnn-paper-cifar", "float32", 2, "30113fb576dc40b4"),
            ("cnn-paper-cifar", "float32", 7, "2f8153a859cbabc5"),
        ],
    )
    def test_grad_input_gradients_pinned(self, name, dtype, n, digest):
        # Digests of the input gradients the row-major (gather + cols @ W.T)
        # conv produced on the -fast nets, and the slab col2im on cnn-paper;
        # the conv backward must round identically on every zoo shape.
        network, shape = _zoo_architecture(name)
        x = np.random.default_rng(0).uniform(size=(n,) + shape)
        engine = GradientEngine(network, dtype=np.dtype(dtype))
        grad = engine.cross_entropy_input_grad(x, np.arange(n) % 10)
        assert hashlib.sha256(np.ascontiguousarray(grad).tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "name,n,digest",
        [
            ("cnn-fast", 7, "ff15bff0c4fcaffb"),
            ("cnn-fast", 64, "03aab248a3dfd704"),
            ("cnn-paper-mnist", 7, "d4fdb2c3b134bf97"),
            ("cnn-paper-mnist", 64, "4b864571fa78aa15"),
        ],
    )
    def test_train_parameter_gradients_pinned(self, name, n, digest):
        # Every conv but the first backpropagates an input gradient through
        # the scatter, so its producers' parameter gradients pin it too.
        network, shape = _zoo_architecture(name)
        x = np.random.default_rng(0).uniform(size=(n,) + shape)
        network.zero_grad()
        TrainingEngine(network, dtype=np.float32).train_batch(x, np.arange(n) % 10)
        digest_of = hashlib.sha256()
        for param in network.parameters():
            digest_of.update(np.ascontiguousarray(param.grad).tobytes())
        assert digest_of.hexdigest()[:16] == digest

    @pytest.mark.parametrize("mode", ["infer", "grad", "train"])
    def test_zero_rows_in_every_mode(self, mode):
        network, shape = _zoo_architecture("cnn-fast")
        x = np.zeros((0,) + shape, dtype=np.float32)
        engine = InferenceEngine(network, memo_entries=0)
        plan = compile_plan(network, x.shape, np.float32, mode, engine._cast, lambda p, g: None)
        if mode == "infer":
            assert plan.run(x).shape == (0, 10)
            return
        logits, generation = plan.run_forward(x)
        assert logits.shape == (0, 10)
        grad = plan.run_backward(np.zeros((0, 10), dtype=np.float32), generation)
        assert grad is None if mode == "train" else grad.shape == x.shape

    def test_overlapping_max_pool_matches_reference_in_every_mode(self):
        # The stride != size pool reads strided windows; max is an exact
        # selection, so the forward is bitwise, and the backward routes each
        # gradient to the first maximal element of its window.
        rng = np.random.default_rng(0)
        network = Network(
            [Conv2D(1, 2, 3, rng, padding=1), MaxPool2D(3, 2), Flatten(), Dense(18, 3, rng)],
            (1, 7, 7),
        )
        x = np.random.default_rng(1).normal(size=(5, 1, 7, 7))
        engine = InferenceEngine(network, dtype=np.float64)
        np.testing.assert_array_equal(engine.logits(x, memo=False), _percall_logits(network, x))
        grad = GradientEngine(network, dtype=np.float64).cross_entropy_input_grad(x, np.arange(5) % 3)
        xt = Tensor(x, requires_grad=True)
        cross_entropy(network.forward(xt), np.arange(5) % 3).backward()
        # The engine's gradient is of the summed loss; cross_entropy is the mean.
        np.testing.assert_allclose(grad, 5 * xt.grad, rtol=1e-10, atol=1e-12)


def _autograd(network, x, labels, training=False):
    """Float64 autograd: logits, summed-loss input grad, mean-loss param grads."""
    network.zero_grad()
    xt = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
    logits = network.forward(xt, training=training)
    cross_entropy(logits, labels).backward()
    return logits.data, len(x) * xt.grad, [p.grad.copy() for p in network.parameters()]


class TestRowPaddedConv:
    """Stride-1 convs run over whole padded rows; the junk columns stay inert."""

    def test_stride1_columns_are_padded_row_runs(self):
        c, h, w, k = 2, 5, 6, 3
        rng = np.random.default_rng(0)
        network = Network([Conv2D(c, 3, k, rng, padding=1)], (c, h, w))
        x = np.arange(2 * c * h * w, dtype=np.float64).reshape(2, c, h, w)
        plan = compile_plan(network, x.shape, np.float64, "infer", network.engine._cast)
        plan.run(x)
        conv = plan.steps[0]
        span = conv.whole.shape[-1]
        assert span == w + 2  # positions run over whole padded rows
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for image in range(2):
            for i in range(conv.oh):
                for j in range(conv.ow):
                    patch = padded[image, :, i : i + k, j : j + k].reshape(-1)
                    np.testing.assert_array_equal(conv.cols[image, :, i * span + j], patch)

    @pytest.mark.parametrize("mode", ["infer", "grad"])
    def test_junk_columns_never_leak(self, mode):
        # Poison every junk column a compiled conv owns (and the frame tail
        # its last junk columns read) with NaN, and every gradient column
        # the backward's matmul overwrites: logits and input gradients must
        # not move, the output gradient's junk must stay zero, and so must
        # the never-written zero tails of the gradient columns and the
        # frame border.
        rng = np.random.default_rng(0)
        network = Network(
            [
                Conv2D(1, 3, 3, rng, padding=1),
                ReLU(),
                Conv2D(3, 4, 3, rng),
                Tanh(),
                MaxPool2D(2),
                Flatten(),
                Dense(36, NUM_CLASSES, rng),
            ],
            (1, 8, 8),
        )
        x = np.random.default_rng(1).normal(size=(5, 1, 8, 8))
        cast = InferenceEngine(network, dtype=np.float64)._cast
        clean = compile_plan(network, x.shape, np.float64, mode, cast)
        poisoned = compile_plan(network, x.shape, np.float64, mode, cast)
        convs = [op for op in poisoned.steps if isinstance(op, _ConvOp)]
        for op in convs:
            span, k = op.whole.shape[-1], op.windows.shape[2]
            assert span > op.ow
            op.frame[..., op.frame.shape[-1] - k + 1 :] = np.nan
            op.whole[..., op.ow :] = np.nan
            op.cols.reshape(len(op.cols), -1, op.oh, span)[..., op.ow :] = np.nan
            if op.gcols is not None:
                op.gcols[..., : op.oh * span] = np.nan
        if mode == "infer":
            np.testing.assert_array_equal(poisoned.run(x), clean.run(x))
            return
        seed = np.random.default_rng(2).normal(size=(len(x), NUM_CLASSES))
        for _ in range(2):  # the second call runs on the first's leftovers
            logits, generation = poisoned.run_forward(x)
            want, want_generation = clean.run_forward(x)
            np.testing.assert_array_equal(logits, want)
            np.testing.assert_array_equal(
                poisoned.run_backward(seed, generation), clean.run_backward(seed, want_generation)
            )
            for op in convs:
                span, k = op.whole.shape[-1], op.windows.shape[2]
                assert not op.gwhole[..., op.ow :].any()
                assert not op.gcols[..., op.oh * span :].any()
                op.interior[...] = 0.0  # the next forward refreshes it
                assert not op.frame[..., : op.frame.shape[-1] - k + 1].any()

    @pytest.mark.parametrize("mode", ["infer", "grad", "train"])
    def test_conv_flatten_dense_without_pool(self, mode):
        # Flatten reads the conv's strided [..., :ow] output view directly.
        rng = np.random.default_rng(0)
        network = Network(
            [Conv2D(2, 3, 3, rng, padding=1), Flatten(), Dense(3 * 5 * 5, NUM_CLASSES, rng)],
            (2, 5, 5),
        )
        x = np.random.default_rng(1).normal(size=(4, 2, 5, 5))
        labels = np.arange(4) % NUM_CLASSES
        logits, input_grad, param_grads = _autograd(network, x, labels)
        if mode == "infer":
            got = InferenceEngine(network, dtype=np.float64).logits(x, memo=False)
            np.testing.assert_allclose(got, logits, rtol=1e-12, atol=1e-12)
        elif mode == "grad":
            got = GradientEngine(network, dtype=np.float64).cross_entropy_input_grad(x, labels)
            np.testing.assert_allclose(got, input_grad, rtol=1e-10, atol=1e-12)
        else:
            network.zero_grad()
            _, got = TrainingEngine(network, dtype=np.float64).train_batch(x, labels)
            np.testing.assert_allclose(got, logits, rtol=1e-12, atol=1e-12)
            for param, want in zip(network.parameters(), param_grads):
                np.testing.assert_allclose(param.grad, want, rtol=1e-10, atol=1e-12)

    def test_train_dropout_after_conv_draws_autograd_stream(self):
        # The fused dropout mask must draw exactly the (n, c, oh, ow) output
        # shape, junk excluded, or the Bernoulli stream would shift.
        rng = np.random.default_rng(0)
        dropout = Dropout(0.5, rng)
        network = Network(
            [Conv2D(1, 2, 3, rng, padding=1), dropout, Flatten(), Dense(2 * 6 * 6, NUM_CLASSES, rng)],
            (1, 6, 6),
        )
        x = np.random.default_rng(1).normal(size=(3, 1, 6, 6))
        labels = np.arange(3) % NUM_CLASSES
        dropout._rng = np.random.default_rng(7)
        logits, _, param_grads = _autograd(network, x, labels, training=True)
        dropout._rng = np.random.default_rng(7)
        network.zero_grad()
        _, got = TrainingEngine(network, dtype=np.float64).train_batch(x, labels)
        np.testing.assert_allclose(got, logits, rtol=1e-12, atol=1e-12)
        for param, want in zip(network.parameters(), param_grads):
            np.testing.assert_allclose(param.grad, want, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("activation", [Tanh])
    def test_protected_activation_after_conv_in_grad_mode(self, activation):
        # In grad mode tanh gets a buffer of its own; it is fed the
        # conv's [..., :ow] view, and its backward widens back into the
        # conv's row-padded gradient.
        rng = np.random.default_rng(0)
        network = Network(
            [
                Conv2D(1, 2, 3, rng, padding=1),
                activation(),
                Flatten(),
                Dense(2 * 6 * 6, NUM_CLASSES, rng),
            ],
            (1, 6, 6),
        )
        x = np.random.default_rng(1).normal(size=(4, 1, 6, 6))
        labels = np.arange(4) % NUM_CLASSES
        _, input_grad, _ = _autograd(network, x, labels)
        got = GradientEngine(network, dtype=np.float64).cross_entropy_input_grad(x, labels)
        np.testing.assert_allclose(got, input_grad, rtol=1e-10, atol=1e-12)


def _run_plan(network, x, mode, seed):
    """Logits, input gradient and parameter gradients of one compiled plan.

    Training dropout layers redraw from a fixed stream on every call.
    """
    for layer in network.layers:
        if isinstance(layer, Dropout):
            layer._rng = np.random.default_rng(7)
    grads = {}
    cast = InferenceEngine(network, dtype=x.dtype)._cast
    plan = compile_plan(
        network, x.shape, x.dtype, mode, cast, lambda p, g: grads.setdefault(id(p), np.array(g))
    )
    if mode == "infer":
        return plan.run(x).copy(), None, []
    logits, generation = plan.run_forward(x)
    logits = logits.copy()
    input_grad = plan.run_backward(seed, generation)
    input_grad = None if input_grad is None else input_grad.copy()
    return logits, input_grad, [grads[id(p)] for p in network.parameters() if id(p) in grads]


class TestMaskRoutedMaxPool:
    """The max-pool backward routes by selection masks built in the forward."""

    @staticmethod
    def _pool_relu(pool):
        rng = np.random.default_rng(0)
        features = 2 * int(np.prod(pool.output_shape((2, 7, 7))[1:]))
        return Network(
            [Conv2D(1, 2, 3, rng, padding=1), pool, ReLU(), Flatten(), Dense(features, NUM_CLASSES, rng)],
            (1, 7, 7),
        )

    @pytest.mark.parametrize("mode", ["grad", "train"])
    @pytest.mark.parametrize("pool", [(2, 2), (2, 1), (3, 2)], ids=str)
    def test_fused_bn_and_relu_over_pool_output_match_autograd(self, mode, pool):
        # ReLU fuses in place onto the pool's output buffer in grad and
        # train mode; a backward that compared windows against that buffer
        # would route nothing.  The name keeps the test's history: an eval
        # BatchNorm stage also fused here until BatchNorm left the layer
        # vocabulary, and ReLU is now the only stage over the pool.
        network = self._pool_relu(MaxPool2D(*pool))
        x = np.random.default_rng(1).normal(size=(5, 1, 7, 7))
        labels = np.arange(5) % NUM_CLASSES
        logits, input_grad, param_grads = _autograd(network, x, labels, training=mode == "train")
        if mode == "grad":
            got = GradientEngine(network, dtype=np.float64).cross_entropy_input_grad(x, labels)
            np.testing.assert_allclose(got, input_grad, rtol=1e-10, atol=1e-12)
            return
        network.zero_grad()
        _, got = TrainingEngine(network, dtype=np.float64).train_batch(x, labels)
        np.testing.assert_allclose(got, logits, rtol=1e-12, atol=1e-12)
        for param, want in zip(network.parameters(), param_grads):
            np.testing.assert_allclose(param.grad, want, rtol=1e-10, atol=1e-12)

    def test_fused_dropout_over_pool_output_in_train_mode(self):
        # Training dropout rescales the pool's output in place.
        rng = np.random.default_rng(0)
        dropout = Dropout(0.5, rng)
        network = Network(
            [Conv2D(1, 2, 3, rng, padding=1), MaxPool2D(2), dropout, Flatten(), Dense(18, NUM_CLASSES, rng)],
            (1, 6, 6),
        )
        x = np.random.default_rng(1).normal(size=(3, 1, 6, 6))
        labels = np.arange(3) % NUM_CLASSES
        dropout._rng = np.random.default_rng(7)
        _, _, param_grads = _autograd(network, x, labels, training=True)
        dropout._rng = np.random.default_rng(7)
        network.zero_grad()
        TrainingEngine(network, dtype=np.float64).train_batch(x, labels)
        for param, want in zip(network.parameters(), param_grads):
            np.testing.assert_allclose(param.grad, want, rtol=1e-10, atol=1e-12)

    @staticmethod
    def _first_max_reference(x, seed, size, stride):
        """Route each window's gradient to its first maximal element."""
        n, c, h, w = x.shape
        oh, ow = (h - size) // stride + 1, (w - size) // stride + 1
        out = np.zeros_like(x)
        grad = seed.reshape(n, c, oh, ow)
        for b, ch, r, q in np.ndindex(n, c, oh, ow):
            window = x[b, ch, r * stride : r * stride + size, q * stride : q * stride + size]
            i, j = np.unravel_index(np.argmax(window), window.shape)
            out[b, ch, r * stride + i, q * stride + j] += grad[b, ch, r, q]
        return out

    @pytest.mark.parametrize("mode", ["grad", "train"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size,stride,hw", [(2, 2, 6), (3, 3, 6), (2, 1, 5), (3, 2, 7)])
    @pytest.mark.parametrize("inputs", ["quantized", "all-equal"])
    def test_ties_route_to_first_maximal_element(self, inputs, size, stride, hw, dtype, mode):
        rng = np.random.default_rng(0)
        shape = (4, 2, hw, hw)
        if inputs == "quantized":
            x = rng.integers(-1, 2, size=shape).astype(dtype)
        else:
            x = np.full(shape, -0.5, dtype=dtype)
        network = Network([MaxPool2D(size, stride), Flatten()], shape[1:])
        features = network.output_shape[0]
        # Integer cotangents: overlapping windows' sums are exact.
        seed = rng.integers(1, 9, size=(len(x), features)).astype(dtype)
        logits, input_grad, _ = _run_plan(network, x, mode, seed)
        np.testing.assert_array_equal(logits, _reference_logits(network, x).reshape(logits.shape))
        np.testing.assert_array_equal(input_grad, self._first_max_reference(x, seed, size, stride))
        # Each window routes exactly one gradient: totals are conserved.
        assert input_grad.sum() == seed.sum()

    @pytest.mark.parametrize("mode", ["grad", "train"])
    @pytest.mark.parametrize("dtype,bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_routing_carries_exact_cotangent_bits(self, dtype, bits, mode):
        # The selected element of each window carries its cotangent's bits,
        # -0.0 and NaN included, and every other element is +0.0.  Compared
        # through an integer view: assert_array_equal treats -0.0 as 0.0.
        shape = (3, 2, 6, 6)
        x = np.random.default_rng(0).normal(size=shape).astype(dtype)
        network = Network([MaxPool2D(2), Flatten()], shape[1:])
        specials = np.array([-0.0, np.nan, np.inf, -np.inf, 0.0, 1.5, -2.25], dtype=dtype)
        seed = np.resize(specials, (len(x), network.output_shape[0]))
        _, input_grad, _ = _run_plan(network, x, mode, seed)
        want = np.zeros_like(x)
        cotangent = seed.reshape(len(x), 2, 3, 3)
        for b, ch, r, q in np.ndindex(cotangent.shape):
            window = x[b, ch, 2 * r : 2 * r + 2, 2 * q : 2 * q + 2]
            i, j = np.unravel_index(np.argmax(window), window.shape)
            want[b, ch, 2 * r + i, 2 * q + j] = cotangent[b, ch, r, q]
        np.testing.assert_array_equal(input_grad.view(bits), want.view(bits))


class TestBlockedConvLowering:
    """Convs lower a few images at a time; the block size changes no bit."""

    @pytest.mark.parametrize("n", [1, 5, 64, 100])
    @pytest.mark.parametrize("mode", ["infer", "grad", "train"])
    def test_block_budget_changes_no_output_bit(self, monkeypatch, mode, n):
        network, shape = _zoo_architecture("cnn-fast")
        x = np.random.default_rng(0).uniform(size=(n,) + shape).astype(np.float32)
        seed = np.random.default_rng(1).normal(size=(n, 10)).astype(np.float32)
        image = 9 * 16 * 18 * 4  # conv1's per-image column bytes
        results = []
        # One image per block, three (ragged at n = 5, 64, 100), the
        # default, and the whole batch in one block.
        for budget in (1, 3 * image, plan_module.COL_BLOCK_BYTES, 10**12):
            monkeypatch.setattr(plan_module, "COL_BLOCK_BYTES", budget)
            results.append(_run_plan(network, x, mode, seed))
        logits, input_grad, param_grads = results[0]
        assert len(param_grads) == (len(network.parameters()) if mode == "train" else 0)
        for other_logits, other_grad, other_params in results[1:]:
            np.testing.assert_array_equal(other_logits, logits)
            np.testing.assert_array_equal(other_grad, input_grad)
            for got, want in zip(other_params, param_grads):
                np.testing.assert_array_equal(got, want)

    def test_blocks_cover_the_batch_in_order(self, monkeypatch):
        network, shape = _zoo_architecture("cnn-fast")
        monkeypatch.setattr(plan_module, "COL_BLOCK_BYTES", 3 * 9 * 16 * 18 * 4)
        plan = compile_plan(network, (10,) + shape, np.float32, "grad", network.engine._cast)
        conv = plan.steps[0]
        spans = [(rows.start, rows.stop) for rows, *_ in conv.blocks]
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert [(rows.start, rows.stop) for rows, *_ in conv.gblocks] == spans
        assert conv.cols.shape[0] == conv.gcols.shape[0] == 3
        # Each block's matmul operand and gradient frames are its own rows.
        assert [len(gemm_cols) for *_, gemm_cols in conv.blocks] == [3, 3, 3, 1]
        image = conv.gframe.size // 10
        assert [frames.shape for _, _, frames, _ in conv.gblocks] == [(3, image)] * 3 + [(1, image)]

    @pytest.mark.parametrize("mode", ["infer", "grad", "train"])
    def test_column_scratch_does_not_grow_with_batch(self, mode):
        network, shape = _zoo_architecture("cnn-fast")
        cast = network.engine._cast

        def scratch(n):
            plan = compile_plan(network, (n,) + shape, np.float32, mode, cast, lambda p, g: None)
            convs = [op for op in plan.steps if isinstance(op, _ConvOp)]
            return [
                sum(a.nbytes for a in (op.cols, op.gcols, op.wprods) if a is not None) for op in convs
            ]

        small, large = scratch(64), scratch(256)
        assert small == large
        for op_bytes in small:
            assert 0 < op_bytes <= 3 * plan_module.COL_BLOCK_BYTES


def _with_random_biases(network, seed=0):
    rng = np.random.default_rng(seed)
    for layer in network.layers:
        if isinstance(layer, Conv2D):
            layer.params["bias"].data = rng.normal(size=layer.params["bias"].data.shape)
    return network


def _bits(a):
    return a.view(f"u{a.itemsize}")


class TestBiasInGemm:
    """The conv bias is the matmul's last reduction term, ``[W | b] @ [cols; 1]``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", list(_ZOO_SHAPES))
    def test_bitwise_the_separate_bias_add(self, name, dtype, n):
        network, shape = _zoo_architecture(name)
        _with_random_biases(network)
        x = np.random.default_rng(1).uniform(size=(n,) + shape).astype(dtype)
        cast = InferenceEngine(network, dtype=dtype)._cast
        plan = compile_plan(network, x.shape, dtype, "infer", cast)
        outs = plan.layer_outputs(x)
        convs = [op for op in plan.steps if isinstance(op, _ConvOp)]
        assert len(convs) == 4
        for op in convs:
            index = op.layer_index
            op.forward(x if index == 0 else outs[index - 1])  # no fused posts
            # The pre-change forward: W @ cols per image, then += b.
            cols = np.ascontiguousarray(op.windows).reshape(n, -1, op.out3.shape[-1])
            want = np.matmul(cast(op.weight).reshape(op.c_out, -1), cols)
            want += cast(op.bias)[:, None]
            np.testing.assert_array_equal(_bits(op.out3), _bits(want))

    @pytest.mark.parametrize("mode", ["infer", "grad", "train"])
    def test_ones_row_survives_every_mode(self, mode):
        network, shape = _with_random_biases(_zoo_architecture("cnn-fast")[0]), (1, 16, 16)
        x = np.random.default_rng(1).uniform(size=(5,) + shape).astype(np.float32)
        seed = np.random.default_rng(2).normal(size=(5, 10)).astype(np.float32)
        plan = compile_plan(network, x.shape, np.float32, mode, network.engine._cast, lambda p, g: None)
        for _ in range(2):
            if mode == "infer":
                plan.run(x)
            else:
                plan.run_backward(seed, plan.run_forward(x)[1])
            for op in plan.steps:
                if isinstance(op, _ConvOp):
                    ones = op.gemm_cols[:, -1]
                    np.testing.assert_array_equal(_bits(ones), _bits(np.ones_like(ones)))

    @pytest.mark.parametrize("mode", ["infer", "grad", "train"])
    def test_poisoned_columns_change_no_bit(self, mode):
        # NaN in every copied column row before each call (and, in train
        # mode, again before the backward, which lowers the columns anew):
        # each call rewrites all of them, so the plan matches a clean one.
        network, shape = _with_random_biases(_zoo_architecture("cnn-fast")[0]), (1, 16, 16)
        x = np.random.default_rng(1).uniform(size=(7,) + shape).astype(np.float32)
        seed = np.random.default_rng(2).normal(size=(7, 10)).astype(np.float32)
        results = []
        for poison in (False, True):
            for layer in network.layers:
                if isinstance(layer, Dropout):
                    layer._rng = np.random.default_rng(7)
            grads = []
            plan = compile_plan(
                network, x.shape, np.float32, mode, network.engine._cast, lambda p, g: grads.append(np.array(g))
            )
            convs = [op for op in plan.steps if isinstance(op, _ConvOp)]
            outputs = []
            for _ in range(2):
                for op in convs if poison else ():
                    op.cols[...] = np.nan
                if mode == "infer":
                    outputs.append(plan.run(x).copy())
                    continue
                logits, generation = plan.run_forward(x)
                outputs.append(logits.copy())
                for op in convs if poison else ():
                    op.cols[...] = np.nan
                gin = plan.run_backward(seed, generation)
                outputs.append(None if gin is None else gin.copy())
            results.append((outputs, grads))
        (clean, clean_grads), (poisoned, poisoned_grads) = results
        for got, want in zip(poisoned + poisoned_grads, clean + clean_grads, strict=True):
            if want is not None:
                np.testing.assert_array_equal(_bits(got), _bits(want))


class TestDenseRowPadding:
    def test_padding_rule(self):
        rng = np.random.default_rng(0)
        wide = Network([Flatten(), Dense(1568, 128, rng), ReLU(), Dense(128, 10, rng)], (1568,))
        cast = wide.engine._cast

        def rows(n):
            plan = compile_plan(wide, (n, 1568), np.float32, "infer", cast)
            return [len(op.padded) if op.padded is not None else n for op in plan.steps if hasattr(op, "padded")]

        assert rows(1) == [plan_module.DENSE_MIN_ROWS, 2]  # wide: off small-matrix kernels; gemv
        assert rows(4) == [plan_module.DENSE_MIN_ROWS, 4]
        assert rows(8) == [8, 8] and rows(0) == [0, 0]
