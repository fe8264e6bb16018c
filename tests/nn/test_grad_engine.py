"""Parity and instrumentation tests for the GradientEngine.

The engine's fused kernels must reproduce the float64 autograd input
gradients across random layer stacks: ≤ 1e-4 max abs error at float32,
≤ 1e-10 at float64 (the PR's acceptance bar).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn import (
    Conv2D,
    Dense,
    Flatten,
    GradientEngine,
    MaxPool2D,
    Network,
    ReLU,
    Tanh,
    Tensor,
    losses,
    ops,
)

NUM_CLASSES = 5

TOLERANCE = {np.float32: 1e-4, np.float64: 1e-10}


# -- float64 autograd references ------------------------------------------------

# Offset used to exclude the target class when computing max_{i != t} Z_i.
_EXCLUDE = 1e6


def _margin_loss(logits: Tensor, target_onehot: np.ndarray, confidence: float) -> Tensor:
    """Per-example ``f(x') = max(max_{i≠t} Z_i − Z_t + κ, 0)``."""
    z_target = ops.sum_(ops.mul(logits, target_onehot), axis=-1)
    z_other = ops.max_(logits - Tensor(target_onehot * _EXCLUDE), axis=-1)
    return ops.maximum(z_other - z_target + confidence, Tensor(np.zeros(len(target_onehot))))


def autograd_cross_entropy_grad(network, x, labels):
    inp = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
    logits = network.forward(inp)
    log_probs = ops.log_softmax(logits)
    targets = losses.one_hot(labels, logits.shape[-1])
    ops.mul(ops.sum_(ops.mul(log_probs, targets)), -1.0).backward()
    return inp.grad


def autograd_logit_grad(network, x, class_index):
    inp = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
    logits = network.forward(inp)
    selector = np.zeros(logits.shape)
    selector[np.arange(len(x)), class_index] = 1.0
    ops.sum_(ops.mul(logits, selector)).backward()
    return inp.grad


def autograd_margin_grad(network, x, target_labels, confidence):
    inp = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
    logits = network.forward(inp)
    onehot = losses.one_hot(target_labels, logits.shape[-1])
    ops.sum_(_margin_loss(logits, onehot, confidence)).backward()
    return inp.grad


def autograd_jacobian(network, x):
    rows = np.empty((len(x), NUM_CLASSES) + x.shape[1:])
    for c in range(NUM_CLASSES):
        rows[:, c] = autograd_logit_grad(network, x, np.full(len(x), c))
    return rows


# -- random layer stacks --------------------------------------------------------


@st.composite
def random_stack(draw):
    """A small random network plus a matching input batch."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    activation = draw(st.sampled_from([ReLU, Tanh]))
    batch = draw(st.integers(1, 4))

    if draw(st.booleans()):  # conv stack
        channels = draw(st.sampled_from([1, 2]))
        side = draw(st.sampled_from([6, 8]))
        kernel = draw(st.sampled_from([2, 3]))
        padding = draw(st.sampled_from([0, 1]))
        stride = draw(st.sampled_from([1, 2]))
        out_channels = draw(st.sampled_from([2, 3]))
        input_shape = (channels, side, side)
        layers = [Conv2D(channels, out_channels, kernel, rng, stride=stride, padding=padding)]
        layers.append(activation())
        conv_side = (side + 2 * padding - kernel) // stride + 1
        pool = draw(st.sampled_from(["none", "max", "max-overlap"]))
        if conv_side >= 2:
            if pool == "max":
                layers.append(MaxPool2D(2, stride=2))
            elif pool == "max-overlap":
                layers.append(MaxPool2D(2, stride=1))
        layers.append(Flatten())
    else:  # dense stack
        side = draw(st.sampled_from([3, 4]))
        input_shape = (1, side, side)
        hidden = draw(st.sampled_from([6, 10]))
        layers = [Flatten(), Dense(side * side, hidden, rng), activation()]

    network = Network(layers, input_shape)
    features = int(np.prod(network.output_shape))
    network.layers.append(Dense(features, NUM_CLASSES, rng))

    x = rng.normal(scale=0.5, size=(batch,) + input_shape)
    labels = rng.integers(0, NUM_CLASSES, size=batch)
    return network, x, labels


@st.composite
def stack_and_dtype(draw):
    network, x, labels = draw(random_stack())
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return network, x, labels, dtype


# -- parity ----------------------------------------------------------------------


class TestParity:
    @settings(max_examples=25, deadline=None)
    @given(case=stack_and_dtype())
    def test_cross_entropy_grad_matches_autograd(self, case):
        network, x, labels, dtype = case
        engine = GradientEngine(network, dtype=dtype)
        grad = engine.cross_entropy_input_grad(x, labels)
        assert grad.dtype == np.dtype(dtype)
        reference = autograd_cross_entropy_grad(network, x, labels)
        assert np.abs(grad.astype(np.float64) - reference).max() <= TOLERANCE[dtype]

    @settings(max_examples=25, deadline=None)
    @given(case=stack_and_dtype())
    def test_jacobian_matches_autograd(self, case):
        network, x, _, dtype = case
        engine = GradientEngine(network, dtype=dtype)
        jac = engine.jacobian(x)
        assert jac.dtype == np.dtype(dtype)
        assert jac.shape == (len(x), NUM_CLASSES) + x.shape[1:]
        reference = autograd_jacobian(network, x)
        assert np.abs(jac.astype(np.float64) - reference).max() <= TOLERANCE[dtype]

    @settings(max_examples=25, deadline=None)
    @given(case=stack_and_dtype(), confidence=st.sampled_from([0.0, 0.5]))
    def test_margin_grad_matches_autograd(self, case, confidence):
        network, x, labels, dtype = case
        engine = GradientEngine(network, dtype=dtype)
        grad, logits, margin = engine.margin_input_grad(x, labels, confidence)
        # Near-ties in the runner-up class or at the hinge boundary make the
        # subgradient choice dtype-dependent; parity is only defined away
        # from them.
        z = np.asarray(logits, dtype=np.float64)
        z[np.arange(len(x)), labels] = -np.inf
        top2 = np.sort(z, axis=-1)[:, -2:]
        assume(np.all(top2[:, 1] - top2[:, 0] > 1e-3))
        assume(np.all(np.abs(margin) > 1e-3))
        reference = autograd_margin_grad(network, x, labels, confidence)
        assert np.abs(grad.astype(np.float64) - reference).max() <= TOLERANCE[dtype]

    @settings(max_examples=15, deadline=None)
    @given(case=stack_and_dtype())
    def test_logit_grad_matches_autograd(self, case):
        network, x, labels, dtype = case
        engine = GradientEngine(network, dtype=dtype)
        grad = engine.logit_input_grad(x, labels)
        reference = autograd_logit_grad(network, x, labels)
        assert np.abs(grad.astype(np.float64) - reference).max() <= TOLERANCE[dtype]

    @settings(max_examples=10, deadline=None)
    @given(case=random_stack(), batch_size=st.sampled_from([1, 2]))
    def test_batch_plan_does_not_change_results(self, case, batch_size):
        network, x, labels = case
        engine = GradientEngine(network, dtype=np.float64)
        whole = engine.cross_entropy_input_grad(x, labels)
        split = engine.cross_entropy_input_grad(x, labels, batch_size=batch_size)
        np.testing.assert_allclose(split, whole, atol=1e-12)


# -- counters --------------------------------------------------------------------


class TestCounters:
    def test_counts_batches_examples_and_requests(self):
        rng = np.random.default_rng(3)
        network = Network([Flatten(), Dense(9, NUM_CLASSES, rng)], (1, 3, 3))
        engine = GradientEngine(network, batch_size=2)
        x = rng.normal(size=(5, 1, 3, 3))
        engine.cross_entropy_input_grad(x, np.zeros(5, dtype=int))
        assert engine.counters.requests == 1
        assert engine.counters.batches == 3  # ceil(5 / 2)
        assert engine.counters.examples == 5
        assert engine.counters.seconds > 0

    def test_jacobian_shares_one_forward_per_batch(self):
        rng = np.random.default_rng(4)
        network = Network([Flatten(), Dense(9, NUM_CLASSES, rng)], (1, 3, 3))
        engine = GradientEngine(network)
        engine.jacobian(rng.normal(size=(4, 1, 3, 3)))
        # One backward per class, each pushing the full batch.
        assert engine.counters.batches == NUM_CLASSES
        assert engine.counters.examples == 4 * NUM_CLASSES

    def test_reset_and_snapshot(self):
        rng = np.random.default_rng(5)
        network = Network([Flatten(), Dense(4, NUM_CLASSES, rng)], (1, 2, 2))
        engine = GradientEngine(network)
        engine.logit_input_grad(np.zeros((1, 1, 2, 2)), np.array([0]))
        before = engine.counters.snapshot()
        engine.logit_input_grad(np.zeros((1, 1, 2, 2)), np.array([0]))
        assert engine.counters.batches == before.batches + 1
        engine.reset_counters()
        assert engine.counters.batches == 0


class TestJacobianOneCopy:
    """``jacobian`` writes each seeded backward straight into its result slot."""

    @staticmethod
    def _conv_network():
        rng = np.random.default_rng(11)
        layers = [
            Conv2D(1, 2, 3, rng, stride=1, padding=1),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(2 * 3 * 3, NUM_CLASSES, rng),
        ]
        return Network(layers, (1, 6, 6))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_per_class_logit_grads(self, dtype):
        network = self._conv_network()
        engine = GradientEngine(network, dtype=dtype, batch_size=3)
        x = np.random.default_rng(12).normal(size=(7, 1, 6, 6))
        jac, logits = engine.jacobian(x, with_logits=True)
        assert jac.dtype == dtype and jac.shape == (7, NUM_CLASSES, 1, 6, 6)
        for c in range(NUM_CLASSES):
            column = engine.logit_input_grad(x, np.full(len(x), c))
            assert np.array_equal(jac[:, c], column)
        chunk_logits = [engine.forward(x[begin:begin + 3])[0] for begin in range(0, 7, 3)]
        assert np.array_equal(logits, np.concatenate(chunk_logits))

    def test_result_owns_its_memory(self):
        network = self._conv_network()
        engine = GradientEngine(network)
        rng = np.random.default_rng(13)
        first = engine.jacobian(rng.normal(size=(2, 1, 6, 6)))
        kept = first.copy()
        engine.jacobian(rng.normal(size=(2, 1, 6, 6)))  # same plan, new buffers' contents
        assert np.array_equal(first, kept)

    def test_counter_deltas(self):
        network = self._conv_network()
        engine = GradientEngine(network, batch_size=3)
        x = np.random.default_rng(14).normal(size=(7, 1, 6, 6))
        before = engine.counters.snapshot()
        engine.jacobian(x)
        assert engine.counters.requests == before.requests + 1
        assert engine.counters.batches == before.batches + 3 * NUM_CLASSES  # 3 chunks
        assert engine.counters.examples == before.examples + 7 * NUM_CLASSES

    def test_zero_rows_compile_no_plan(self):
        engine = GradientEngine(self._conv_network())
        jac, logits = engine.jacobian(np.zeros((0, 1, 6, 6)), with_logits=True)
        assert jac.shape == (0, NUM_CLASSES, 1, 6, 6) and jac.dtype == engine.dtype
        assert logits.shape == (0, NUM_CLASSES) and logits.dtype == engine.dtype
        assert engine.counters.plan_misses == 0 and not engine._plans


class TestNetworkAttachment:
    def test_lazy_property_and_attach(self):
        rng = np.random.default_rng(6)
        network = Network([Flatten(), Dense(4, NUM_CLASSES, rng)], (1, 2, 2))
        assert network._grad_engine is None
        first = network.grad_engine
        assert first is network.grad_engine  # cached
        assert first.dtype == np.float32
        replacement = GradientEngine(network, dtype=np.float64)
        assert network.attach_grad_engine(replacement) is network
        assert network.grad_engine is replacement

    def test_parameter_rebind_invalidates_cast_cache(self):
        rng = np.random.default_rng(8)
        network = Network([Flatten(), Dense(4, NUM_CLASSES, rng)], (1, 2, 2))
        engine = GradientEngine(network)
        x = rng.normal(size=(2, 1, 2, 2))
        before = engine.jacobian(x)
        weight = network.layers[1].params["weight"]
        weight.data = weight.data * 2.0  # rebinding, as optimisers/load_state do
        after = engine.jacobian(x)
        np.testing.assert_allclose(after, 2.0 * before, rtol=1e-5)
