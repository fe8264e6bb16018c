"""Tests for the InferenceEngine: parity, memoisation, counters, voting."""

import numpy as np
import pytest

from repro.defenses.region import region_vote
from repro.nn import GradientEngine, InferenceEngine, Tensor, TrainingEngine, no_grad
from repro.nn.layers import Layer
from repro.nn.network import Network
from repro.zoo import model_for_dataset


def legacy_logits(network, x, batch_size=256):
    """The pre-engine prediction path: float64 autograd forward, batched."""
    outputs = []
    with no_grad():
        for begin in range(0, len(x), batch_size):
            outputs.append(network.forward(Tensor(x[begin : begin + batch_size])).data)
    return np.concatenate(outputs, axis=0)


@pytest.fixture(scope="module")
def zoo_model():
    """The trained mnist-fast CNN plus a slice of test images."""
    dataset, model = model_for_dataset("mnist-fast")
    return model, dataset.x_test[:64]


class TestParity:
    def test_zoo_cnn_runs_native_kernels(self, zoo_model):
        model, x = zoo_model
        engine = InferenceEngine(model)
        engine.logits(x[:2], memo=False)
        assert engine.counters.plan_misses == 1  # compiled, not interpreted

    def test_float32_matches_legacy_within_1e4(self, zoo_model):
        model, x = zoo_model
        reference = legacy_logits(model, x)
        out = model.engine.logits(x, memo=False)
        assert out.dtype == np.float32
        assert np.max(np.abs(out.astype(np.float64) - reference)) < 1e-4
        np.testing.assert_array_equal(out.argmax(axis=-1), reference.argmax(axis=-1))

    def test_float64_engine_bit_exact_with_legacy(self, zoo_model):
        model, x = zoo_model
        engine = InferenceEngine(model, dtype=np.float64)
        np.testing.assert_array_equal(engine.logits(x, memo=False), legacy_logits(model, x))

    def test_batch_size_does_not_change_result(self, zoo_model):
        model, x = zoo_model
        # float64 BLAS blocking depends on the matrix shape, so different
        # batch plans can differ in the last ulp — a tolerance there.
        exact = InferenceEngine(model, dtype=np.float64)
        np.testing.assert_allclose(
            exact.logits(x, batch_size=7, memo=False),
            exact.logits(x, batch_size=64, memo=False),
            rtol=1e-12,
        )
        # float32 is bitwise: 64 = 9*7 + 1, so the 7-row plan sweep ends in
        # a single-row batch, which must agree with the 64-row plan exactly.
        a = model.engine.logits(x, batch_size=7, memo=False)
        b = model.engine.logits(x, batch_size=64, memo=False)
        np.testing.assert_array_equal(a, b)

    def test_empty_input(self, zoo_model):
        model, _ = zoo_model
        out = model.engine.logits(np.zeros((0,) + model.input_shape))
        assert out.shape == (0,) + model.output_shape

    @pytest.mark.parametrize(
        "engine_cls", [InferenceEngine, GradientEngine, TrainingEngine], ids=lambda cls: cls.__name__
    )
    def test_unplannable_layer_is_refused_at_construction(self, tiny_model, engine_cls):
        class Scale(Layer):
            def forward(self, x, training):
                return x * 2.0

        network, _, _ = tiny_model
        wrapped = Network(list(network.layers) + [Scale()], network.input_shape)
        with pytest.raises(ValueError, match="Scale"):
            engine_cls(wrapped)


class TestMemo:
    def test_repeat_query_hits_memo_with_identical_labels(self, zoo_model):
        model, x = zoo_model
        engine = InferenceEngine(model)
        first = engine.predict(x)
        before = engine.counters.snapshot()
        second = engine.predict(x)
        delta = engine.counters.delta(before)
        assert delta["memo_hits"] == 1
        assert delta["examples"] == 0  # nothing re-ran through the network
        np.testing.assert_array_equal(first, second)

    def test_memo_off_recomputes(self, zoo_model):
        model, x = zoo_model
        engine = InferenceEngine(model)
        engine.logits(x, memo=False)
        before = engine.counters.snapshot()
        engine.logits(x, memo=False)
        delta = engine.counters.delta(before)
        assert delta["memo_hits"] == 0
        assert delta["examples"] == len(x)

    def test_memo_invalidated_when_parameters_change(self, tiny_model):
        network, x, _ = tiny_model
        engine = InferenceEngine(network)
        stale = engine.logits(x[:4]).copy()
        saved = network.state()
        try:
            perturbed = {key: value + 0.25 for key, value in saved.items()}
            network.load_state(perturbed)
            fresh = engine.logits(x[:4])
            assert np.abs(fresh - stale).max() > 1e-6
        finally:
            network.load_state(saved)

    def test_lru_eviction_bounds_memo(self, tiny_model):
        network, x, _ = tiny_model
        engine = InferenceEngine(network, memo_entries=2)
        for i in range(4):
            engine.logits(x[i : i + 1])
        assert len(engine._memo) == 2


class TestCounters:
    def test_batch_accounting(self, tiny_model):
        network, x, _ = tiny_model
        engine = InferenceEngine(network)
        engine.logits(x[:10], batch_size=4, memo=False)
        c = engine.counters
        assert c.requests == 1
        assert c.batches == 3  # 4 + 4 + 2
        assert c.examples == 10
        assert c.memo_hits == 0 and c.memo_misses == 0
        assert c.seconds > 0.0

    def test_reset(self, tiny_model):
        network, x, _ = tiny_model
        engine = InferenceEngine(network)
        engine.predict(x[:4])
        engine.reset_counters()
        assert engine.counters.examples == 0

    def test_counter_delta(self, tiny_model):
        network, x, _ = tiny_model
        engine = InferenceEngine(network)
        before = engine.counters.snapshot()
        engine.logits(x[:6], memo=False)
        delta = engine.counters.delta(before)
        assert delta["examples"] == 6
        assert delta["requests"] == 1


def bincount_region_vote(network, x, radius, samples, rng, batch_size=512):
    """The pre-vectorisation region vote: per-row np.bincount accumulation."""
    from repro.datasets.dataset import PIXEL_MAX, PIXEL_MIN

    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    num_classes = network.num_classes
    votes = np.zeros((n, num_classes), dtype=np.int64)
    per_chunk = max(1, batch_size // max(1, samples))
    for start in range(0, n, per_chunk):
        chunk = x[start : start + per_chunk]
        noise = rng.uniform(-radius, radius, size=(len(chunk), samples) + chunk.shape[1:])
        points = np.clip(chunk[:, None] + noise, PIXEL_MIN, PIXEL_MAX)
        flat = points.reshape((-1,) + chunk.shape[1:])
        labels = network.engine.predict(flat, batch_size=batch_size, memo=False)
        labels = labels.reshape(len(chunk), samples)
        for row in range(len(chunk)):
            votes[start + row] = np.bincount(labels[row], minlength=num_classes)
    return votes.argmax(axis=1)


class TestRegionVoteVectorisation:
    def test_scatter_add_matches_bincount_loop_bitwise(self, tiny_model):
        network, x, _ = tiny_model
        vectorised = region_vote(
            network, x[:12], radius=0.3, samples=25, rng=np.random.default_rng(7)
        )
        looped = bincount_region_vote(
            network, x[:12], radius=0.3, samples=25, rng=np.random.default_rng(7)
        )
        np.testing.assert_array_equal(vectorised, looped)

    def test_zero_radius_equals_plain_prediction(self, tiny_model):
        network, x, _ = tiny_model
        labels = region_vote(network, x[:8], radius=0.0, samples=5, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(labels, network.predict(x[:8]))
