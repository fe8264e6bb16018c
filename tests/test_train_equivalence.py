"""Engine-vs-autograd training equivalence and cache compatibility.

PR 3 moved every training loop onto the fused float32 TrainingEngine.
These tests pin the two guarantees that made that switch safe:

* **equivalence** — models trained on the float32 engine reach the same
  final accuracy as float64 training — the float64 engine, and float64
  autograd for the detector MLP (seeds held fixed) — and, on the training
  benchmark's smoke shapes, the same final epoch loss as float64 autograd;
* **cache compatibility** — float64-trained artifacts keep their
  pre-engine cache keys, so weights cached before the switch still load
  byte-identically, while the float32 default forks new entries.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cache import cache_dir, cache_key
from repro.core.detector import BENIGN, ADVERSARIAL, build_detector_network
from repro.datasets import load_dataset
from repro.defenses.distillation import train_distilled
from repro.nn import Adam, TrainConfig, fit
from repro.zoo import MODEL_CONFIGS, _dtype_key, build_network, load_model, train_network
from tests.nn.test_train_engine import autograd_fit


@pytest.fixture(scope="module")
def mnist_fast():
    return load_dataset("mnist-fast")


def _short_config(epochs=3):
    return replace(MODEL_CONFIGS["cnn-fast"], epochs=epochs)


def _detector_features(rows=600):
    """Sorted logit-like features: benign rows carry one dominant logit."""
    rng = np.random.default_rng(0)
    half = rows // 2
    benign = rng.normal(0.0, 1.0, size=(half, 10))
    benign[np.arange(half), rng.integers(0, 10, half)] += 10.0
    adversarial = rng.normal(0.0, 1.0, size=(half, 10))
    features = np.sort(np.concatenate([benign, adversarial]), axis=-1)
    labels = np.concatenate([np.full(half, BENIGN), np.full(half, ADVERSARIAL)])
    return features, labels


class TestZooEquivalence:
    def test_float32_engine_matches_float64_accuracy(self, mnist_fast):
        config = _short_config()
        accuracies = {}
        for dtype in ("float32", "float64"):
            network = build_network(config, mnist_fast.input_shape, 10)
            accuracies[dtype] = train_network(network, mnist_fast, config, train_dtype=dtype)
        assert accuracies["float32"] > 0.9
        assert abs(accuracies["float32"] - accuracies["float64"]) <= 0.02

    def test_weights_serialise_as_float64(self, mnist_fast):
        config = _short_config(epochs=1)
        network = build_network(config, mnist_fast.input_shape, 10)
        train_network(network, mnist_fast, config)
        assert all(array.dtype == np.float64 for array in network.state().values())


class TestDistillationEquivalence:
    def test_float32_student_matches_float64(self, mnist_fast):
        accuracies = {}
        for dtype in ("float32", "float64"):
            distilled = train_distilled(
                mnist_fast, _short_config(epochs=2), temperature=20.0, cache=False, train_dtype=dtype
            )
            network = distilled.network
            accuracies[dtype] = network.accuracy(mnist_fast.x_test, mnist_fast.y_test)
        assert accuracies["float32"] > 0.8
        assert abs(accuracies["float32"] - accuracies["float64"]) <= 0.05


class TestDetectorEquivalence:
    def test_detector_mlp_trains_identically_under_engine(self):
        """The detector's 2-layer MLP path: float32 engine vs float64 autograd."""
        features, labels = _detector_features()
        accuracies = {}
        for train in (fit, autograd_fit):
            network = build_detector_network()
            train(
                network,
                Adam(network.parameters(), lr=1e-2),
                features,
                labels,
                TrainConfig(epochs=60, batch_size=64),
                np.random.default_rng(1),
            )
            accuracies[train] = network.accuracy(features, labels)
        assert accuracies[fit] > 0.95
        assert abs(accuracies[fit] - accuracies[autograd_fit]) <= 0.02


# Engine and float64 autograd optimise the same objective from the same
# seeds; their final epoch losses agree to float32 training noise (~1e-8).
MAX_FINAL_LOSS_DELTA = 1e-4


def _cnn_fast_run(mnist_fast):
    """``cnn-fast`` on 64 training rows for one epoch (the training bench's smoke)."""
    config = MODEL_CONFIGS["cnn-fast"]

    def build():
        network = build_network(config, mnist_fast.input_shape, 10)
        return network, Adam(network.parameters(), lr=config.learning_rate)

    x, y = mnist_fast.x_train[:64], mnist_fast.y_train[:64]
    return build, x, y, TrainConfig(epochs=1, batch_size=config.batch_size)


def _detector_mlp_run(mnist_fast):
    """The detector MLP on 600 synthetic rows for five epochs (the bench's smoke)."""

    def build():
        network = build_detector_network()
        return network, Adam(network.parameters(), lr=1e-2)

    features, labels = _detector_features()
    return build, features, labels, TrainConfig(epochs=5, batch_size=64)


class TestFinalLossAgreement:
    @pytest.mark.parametrize(
        "workload", [_cnn_fast_run, _detector_mlp_run], ids=["cnn-fast", "detector-mlp"]
    )
    def test_fit_final_loss_matches_autograd(self, workload, mnist_fast):
        build, x, y, config = workload(mnist_fast)
        network, optimizer = build()
        engine_loss = fit(network, optimizer, x, y, config, np.random.default_rng(1)).loss[-1]
        network, optimizer = build()
        autograd_loss = autograd_fit(network, optimizer, x, y, config, np.random.default_rng(1))[-1]
        assert abs(engine_loss - autograd_loss) <= MAX_FINAL_LOSS_DELTA


class TestCacheCompatibility:
    def test_float64_path_loads_legacy_entries_byte_identically(self, mnist_fast, tmp_path, monkeypatch):
        """Weights cached before the engine existed must load unchanged."""
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        config = MODEL_CONFIGS["cnn-fast"]
        # A pre-PR-3 cache entry: the key has no train_dtype field.
        legacy_key = {"kind": "model", "dataset": mnist_fast.name, **config.__dict__}
        state = build_network(config, mnist_fast.input_shape, 10, seed=99).state()
        np.savez_compressed(cache_dir() / f"model-{cache_key(legacy_key)}.npz", **state)

        model = load_model(mnist_fast, train_dtype="float64")  # must hit, not retrain
        loaded = model.state()
        assert set(loaded) == set(state)
        for name, array in state.items():
            np.testing.assert_array_equal(loaded[name], array)
            assert loaded[name].dtype == array.dtype

    def test_float64_key_is_the_legacy_key(self):
        key = {"kind": "model", "dataset": "mnist-fast"}
        assert _dtype_key(key, "float64") == key

    def test_float32_key_forks_a_new_entry(self):
        key = {"kind": "model", "dataset": "mnist-fast"}
        forked = _dtype_key(key, "float32")
        assert forked["train_dtype"] == "float32"
        assert cache_key(forked) != cache_key(key)
