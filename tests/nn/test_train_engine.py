"""Parity and instrumentation tests for the TrainingEngine.

The engine's fused parameter-gradient kernels must reproduce the float64
autograd training step across random layer stacks: ≤ 1e-4 relative error
at float32, ≤ 1e-10 at float64 (the PR's acceptance bar) — including
dropout mask draws, which run in training mode here (unlike the
inference/gradient engines).
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    CROSS_ENTROPY,
    MSE,
    Adam,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    Network,
    ReLU,
    Tanh,
    Tensor,
    TrainingEngine,
    losses,
    soft_cross_entropy_loss,
)

NUM_CLASSES = 5

TOLERANCE = {np.float32: 1e-4, np.float64: 1e-10}


# -- float64 autograd reference --------------------------------------------------


def autograd_step(network, x, targets, loss_fn):
    """Float64 training=True forward/backward; returns (loss, param grads)."""
    network.zero_grad()
    logits = network.forward(Tensor(np.asarray(x, dtype=np.float64)), training=True)
    loss = loss_fn(logits, targets)
    loss.backward()
    return float(loss.data), [np.array(p.grad, dtype=np.float64) for p in network.parameters()]


def autograd_fit(network, optimizer, x, y, config, rng, loss_fn=losses.cross_entropy):
    """:func:`repro.nn.fit` run through the float64 autograd graph.

    The same shuffle, batching and optimiser steps as ``fit`` at a
    constant learning rate, one :func:`autograd_step` per batch; returns
    the per-epoch mean losses.
    """
    x = np.asarray(x, dtype=np.float64)
    indices = np.arange(len(x))
    epoch_losses = []
    for _ in range(config.epochs):
        rng.shuffle(indices)
        total = 0.0
        for begin in range(0, len(x), config.batch_size):
            batch = indices[begin : begin + config.batch_size]
            value, _ = autograd_step(network, x[batch], y[batch], loss_fn)
            optimizer.step()
            total += value * len(batch)
        epoch_losses.append(total / len(x))
    return epoch_losses


def relative_error(a, b):
    scale = max(1.0, float(np.abs(b).max()))
    return float(np.abs(np.asarray(a, dtype=np.float64) - b).max()) / scale


def reseed_dropout(network, seed):
    """Give every dropout layer a fresh generator with a known seed."""
    for i, layer in enumerate(network.layers):
        if isinstance(layer, Dropout):
            layer._rng = np.random.default_rng(seed + i)


# -- random layer stacks ---------------------------------------------------------


@st.composite
def random_stack(draw):
    """A small random network plus a matching training batch."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    activation = draw(st.sampled_from([ReLU, Tanh]))
    batch = draw(st.integers(2, 4))

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
        if draw(st.booleans()):
            layers.append(Dropout(0.3, rng))

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
    def test_parameter_grads_match_autograd(self, case):
        network, x, labels, dtype = case
        engine = TrainingEngine(network, dtype=dtype)

        reseed_dropout(network, 99)
        network.zero_grad()
        value, logits = engine.train_batch(x, labels)
        engine_grads = [np.array(p.grad) for p in network.parameters()]
        assert logits.dtype == np.dtype(dtype)

        reseed_dropout(network, 99)
        ref_value, ref_grads = autograd_step(network, x, labels, losses.cross_entropy)

        tol = TOLERANCE[dtype]
        assert abs(value - ref_value) <= max(tol, tol * abs(ref_value))
        for got, want in zip(engine_grads, ref_grads):
            assert relative_error(got, want) <= tol

    @settings(max_examples=15, deadline=None)
    @given(case=stack_and_dtype(), temperature=st.sampled_from([1.0, 20.0]))
    def test_soft_cross_entropy_matches_autograd(self, case, temperature):
        network, x, labels, dtype = case
        rng = np.random.default_rng(3)
        soft = losses.one_hot(labels, NUM_CLASSES) * 0.9 + rng.uniform(
            0, 0.1 / NUM_CLASSES, size=(len(x), NUM_CLASSES)
        )
        engine = TrainingEngine(network, dtype=dtype)

        reseed_dropout(network, 7)
        network.zero_grad()
        value, _ = engine.train_batch(x, soft, loss=soft_cross_entropy_loss(temperature))
        engine_grads = [np.array(p.grad) for p in network.parameters()]

        reseed_dropout(network, 7)
        ref_value, ref_grads = autograd_step(
            network, x, soft, lambda z, t: losses.soft_cross_entropy(z, t, temperature=temperature)
        )
        tol = TOLERANCE[dtype]
        assert abs(value - ref_value) <= max(tol, tol * abs(ref_value))
        for got, want in zip(engine_grads, ref_grads):
            assert relative_error(got, want) <= tol

    @settings(max_examples=15, deadline=None)
    @given(case=stack_and_dtype())
    def test_mse_matches_autograd(self, case):
        network, x, labels, dtype = case
        rng = np.random.default_rng(4)
        targets = rng.normal(size=(len(x), NUM_CLASSES))
        engine = TrainingEngine(network, dtype=dtype)

        reseed_dropout(network, 11)
        network.zero_grad()
        value, _ = engine.train_batch(x, targets, loss=MSE)
        engine_grads = [np.array(p.grad) for p in network.parameters()]

        reseed_dropout(network, 11)
        ref_value, ref_grads = autograd_step(network, x, targets, losses.mse)
        tol = TOLERANCE[dtype]
        assert abs(value - ref_value) <= max(tol, tol * abs(ref_value))
        for got, want in zip(engine_grads, ref_grads):
            assert relative_error(got, want) <= tol

    @settings(max_examples=10, deadline=None)
    @given(case=random_stack(), scale=st.sampled_from([0.25, 0.5]))
    def test_scaled_seeds_accumulate_weighted_grads(self, case, scale):
        """Two scaled train_batch calls equal the weighted-sum objective."""
        network, x, labels = case
        engine = TrainingEngine(network, dtype=np.float64)
        x2 = x + 0.1
        reseed_dropout(network, 5)
        network.zero_grad()
        engine.train_batch(x, labels, scale=scale)
        engine.train_batch(x2, labels, scale=1.0 - scale)
        accumulated = [np.array(p.grad) for p in network.parameters()]

        reseed_dropout(network, 5)
        network.zero_grad()
        engine.train_batch(x, labels)
        first = [np.array(p.grad) for p in network.parameters()]
        network.zero_grad()
        engine.train_batch(x2, labels)
        second = [np.array(p.grad) for p in network.parameters()]
        for acc, a, b in zip(accumulated, first, second):
            np.testing.assert_allclose(acc, scale * a + (1.0 - scale) * b, atol=1e-10)


# -- parameter binding and staleness ---------------------------------------------


class TestParameterBinding:
    def _net(self, seed=0):
        rng = np.random.default_rng(seed)
        return Network([Flatten(), Dense(9, NUM_CLASSES, rng)], (1, 3, 3))

    def test_bound_params_are_engine_dtype_and_restored(self):
        network = self._net()
        engine = TrainingEngine(network)  # float32 default
        before = [p.data.copy() for p in network.parameters()]
        with engine.parameters_bound():
            assert all(p.data.dtype == np.float32 for p in network.parameters())
        assert all(p.data.dtype == np.float64 for p in network.parameters())
        for now, was in zip(network.parameters(), before):
            np.testing.assert_allclose(now.data, was, atol=1e-7)

    def test_float64_binding_is_noop(self):
        network = self._net()
        engine = TrainingEngine(network, dtype=np.float64)
        refs = [p.data for p in network.parameters()]
        with engine.parameters_bound():
            assert all(p.data is ref for p, ref in zip(network.parameters(), refs))

    def test_inplace_update_with_version_bump_is_visible(self):
        """Optimiser-style in-place writes must not serve stale casts."""
        network = self._net()
        engine = TrainingEngine(network, dtype=np.float32)
        x = np.zeros((1, 1, 3, 3))
        _, logits_before = engine.train_batch(x, np.array([0]))
        bias = network.layers[1].params["bias"]
        bias.data += 1.0  # in-place: identity unchanged
        bias.bump_version()
        _, logits_after = engine.train_batch(x, np.array([0]))
        np.testing.assert_allclose(logits_after, logits_before + 1.0, atol=1e-5)

    def test_training_then_inference_sees_fresh_weights(self):
        """InferenceEngine must track in-place optimiser updates mid-fit."""
        network = self._net()
        engine = TrainingEngine(network)
        optimizer = Adam(network.parameters(), lr=0.05)
        x = np.random.default_rng(0).normal(size=(8, 1, 3, 3))
        labels = np.zeros(8, dtype=int)
        with engine.parameters_bound():
            before = network.logits(x)
            for _ in range(3):
                optimizer.zero_grad()
                engine.train_batch(x, labels)
                optimizer.step()
            after = network.logits(x)
        assert np.abs(after - before).max() > 1e-6


# -- counters --------------------------------------------------------------------


class TestCounters:
    def test_counts_batches_examples_seconds(self):
        rng = np.random.default_rng(3)
        network = Network([Flatten(), Dense(9, NUM_CLASSES, rng)], (1, 3, 3))
        engine = TrainingEngine(network)
        x = rng.normal(size=(5, 1, 3, 3))
        engine.train_batch(x, np.zeros(5, dtype=int))
        engine.train_batch(x[:2], np.zeros(2, dtype=int))
        assert engine.counters.batches == 2
        assert engine.counters.examples == 7
        assert engine.counters.seconds > 0

    def test_reset_and_snapshot(self):
        rng = np.random.default_rng(5)
        network = Network([Flatten(), Dense(4, NUM_CLASSES, rng)], (1, 2, 2))
        engine = TrainingEngine(network)
        engine.train_batch(np.zeros((1, 1, 2, 2)), np.array([0]))
        before = engine.counters.snapshot()
        engine.train_batch(np.zeros((1, 1, 2, 2)), np.array([0]))
        assert engine.counters.batches == before.batches + 1
        engine.reset_counters()
        assert engine.counters.batches == 0


class TestNetworkAttachment:
    def test_lazy_property_and_attach(self):
        rng = np.random.default_rng(6)
        network = Network([Flatten(), Dense(4, NUM_CLASSES, rng)], (1, 2, 2))
        assert network._train_engine is None
        first = network.train_engine
        assert first is network.train_engine  # cached
        assert first.dtype == np.float32
        replacement = TrainingEngine(network, dtype=np.float64)
        assert network.attach_train_engine(replacement) is network
        assert network.train_engine is replacement


# -- loss seeds in isolation -----------------------------------------------------


class TestLossSeeds:
    def test_cross_entropy_seed_matches_autograd(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(6, NUM_CLASSES))
        labels = rng.integers(0, NUM_CLASSES, size=6)
        value, seed = CROSS_ENTROPY.value_and_seed(z, labels)
        logits = Tensor(z, requires_grad=True)
        loss = losses.cross_entropy(logits, labels)
        loss.backward()
        assert value == pytest.approx(float(loss.data))
        np.testing.assert_allclose(seed, logits.grad, atol=1e-12)

    @pytest.mark.parametrize("temperature", [1.0, 40.0])
    def test_soft_seed_matches_autograd(self, temperature):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(4, NUM_CLASSES)) * 5
        targets = rng.dirichlet(np.ones(NUM_CLASSES), size=4)
        spec = soft_cross_entropy_loss(temperature)
        value, seed = spec.value_and_seed(z, targets)
        logits = Tensor(z, requires_grad=True)
        loss = losses.soft_cross_entropy(logits, targets, temperature=temperature)
        loss.backward()
        assert value == pytest.approx(float(loss.data))
        np.testing.assert_allclose(seed, logits.grad, atol=1e-12)

    def test_mse_seed_matches_autograd(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(3, 7))
        targets = rng.normal(size=(3, 7))
        value, seed = MSE.value_and_seed(z, targets)
        preds = Tensor(z, requires_grad=True)
        loss = losses.mse(preds, targets)
        loss.backward()
        assert value == pytest.approx(float(loss.data))
        np.testing.assert_allclose(seed, preds.grad, atol=1e-12)
