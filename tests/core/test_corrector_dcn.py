"""Tests for the corrector and the DCN pipeline (tiny-model based)."""

import numpy as np
import pytest

from repro.attacks import CarliniWagnerL2
from repro.core import DCN, Corrector, LogitDetector, build_detector_network


class _StubDetector:
    """Detector stand-in with a fixed decision."""

    def __init__(self, flag_all: bool):
        self.flag_all = flag_all
        self.sort_features = True
        self.train_seed_indices = np.array([], dtype=int)

    def is_adversarial(self, logits):
        return np.full(len(logits), self.flag_all)


@pytest.fixture(scope="module")
def cw_examples(tiny_correct):
    network, x, y = tiny_correct
    targets = (y[:12] + 1) % 10
    attack = CarliniWagnerL2(binary_search_steps=3, max_iterations=100)
    result = attack.perturb(network, x[:12], y[:12], targets)
    return network, x[:12], y[:12], result


class TestCorrector:
    def test_recovers_adversarial_labels(self, cw_examples):
        network, x, y, result = cw_examples
        corrector = Corrector(network, radius=0.25, samples=50, seed=0)
        ok = result.success
        recovered = corrector.correct(result.adversarial[ok])
        assert (recovered == y[ok]).mean() > 0.6

    def test_keeps_benign_labels(self, tiny_correct):
        network, x, y = tiny_correct
        corrector = Corrector(network, radius=0.1, samples=50, seed=0)
        assert (corrector.correct(x[:20]) == y[:20]).mean() > 0.9

    def test_empty_batch(self, tiny_correct):
        network, x, _ = tiny_correct
        corrector = Corrector(network, radius=0.1)
        out = corrector.correct(x[:0])
        assert out.shape == (0,)

    def test_invalid_samples(self, tiny_correct):
        network, _, _ = tiny_correct
        with pytest.raises(ValueError):
            Corrector(network, radius=0.1, samples=0)

    def test_negative_radius_rejected_at_construction(self, tiny_correct):
        network, _, _ = tiny_correct
        with pytest.raises(ValueError, match="radius"):
            Corrector(network, radius=-0.1)

    def test_engine_calls_stay_on_the_bucket_ladder(self):
        # Serving warms exactly the bucket ladder; a corrector call of any
        # size must compile nothing else, and the engine must pay exactly
        # each row's exit point in forwards.
        from repro.defenses import region
        from repro.serve.bucketing import bucket_sizes
        from repro.zoo import MODEL_CONFIGS, build_network

        network = build_network(MODEL_CONFIGS["cnn-fast"], (1, 16, 16), 10, seed=0)
        x = np.random.default_rng(1).uniform(size=(12, 1, 16, 16))
        corrector = Corrector(network, radius=0.3, samples=50, seed=0)
        expected = sum(
            int(region._staged_vote(network, x[:k], 0.3, 50, 0)[1].sum()) for k in range(1, 13)
        )
        network.engine.invalidate()
        network.engine.reset_counters()
        for k in range(1, 13):
            corrector.correct(x[:k])
        ladder = set(bucket_sizes(region.KERNEL_BATCH))
        assert network.engine._plans
        assert {key[0] for key in network.engine._plans} <= ladder
        assert network.engine.counters.examples == expected
        assert expected < 50 * sum(range(1, 13))


class TestDCN:
    def test_flag_nothing_matches_standard(self, tiny_correct):
        network, x, _ = tiny_correct
        dcn = DCN(network, _StubDetector(flag_all=False), Corrector(network, 0.2))
        labels, flagged = dcn.classify_detailed(x[:10])
        assert not flagged.any()
        np.testing.assert_array_equal(labels, network.predict(x[:10]))

    def test_flag_everything_uses_corrector(self, tiny_correct):
        network, x, y = tiny_correct
        dcn = DCN(network, _StubDetector(flag_all=True), Corrector(network, 0.1, seed=0))
        labels, flagged = dcn.classify_detailed(x[:10])
        assert flagged.all()
        # Corrector on benign inputs agrees with the model most of the time,
        # which is why false negatives are harmless (paper Sec. 5.2).
        assert (labels == y[:10]).mean() > 0.8

    def test_classify_matches_detailed(self, tiny_correct):
        network, x, _ = tiny_correct
        dcn = DCN(network, _StubDetector(flag_all=False), Corrector(network, 0.2))
        np.testing.assert_array_equal(dcn.classify(x[:6]), dcn.classify_detailed(x[:6])[0])

    def test_end_to_end_recovery(self, cw_examples):
        """Full pipeline with a real trained detector on the tiny model."""
        network, x, y, result = cw_examples
        # Train a detector on this model's logits.
        from repro.nn import Adam, TrainConfig, fit

        benign_logits = network.logits(x)
        adv_logits = network.logits(result.adversarial[result.success])
        features = np.sort(np.concatenate([benign_logits, adv_logits]), axis=1)
        labels = np.concatenate([np.zeros(len(benign_logits), int), np.ones(len(adv_logits), int)])
        det_net = build_detector_network()
        fit(
            det_net, Adam(det_net.parameters(), lr=1e-2), features, labels,
            TrainConfig(epochs=200, batch_size=32), np.random.default_rng(0),
        )
        detector = LogitDetector(det_net, sort_features=True)
        dcn = DCN(network, detector, Corrector(network, radius=0.25, samples=50, seed=1))

        adv = result.adversarial[result.success]
        true = y[result.success]
        # The undefended model is fooled on all of these...
        assert (network.predict(adv) == true).mean() < 0.2
        # ...while DCN recovers the majority.
        assert (dcn.classify(adv) == true).mean() > 0.5


class TestClassifyDtype:
    """classify_detailed must not round-trip engine-dtype input via float64."""

    def test_float32_batch_reaches_engine_uncopied(self, tiny_correct, monkeypatch):
        network, x, _ = tiny_correct
        dcn = DCN(network, _StubDetector(flag_all=False), Corrector(network, 0.1, seed=0))
        seen = {}
        original = network.engine.logits

        def spy(batch, *args, **kwargs):
            seen["batch"] = batch
            return original(batch, *args, **kwargs)

        monkeypatch.setattr(network.engine, "logits", spy)
        x32 = np.ascontiguousarray(x[:8], dtype=np.float32)
        dcn.classify_detailed(x32)
        # np.asarray on an ndarray is the identity: no float64 (or any
        # other) intermediate copy on the serving hot path.
        assert seen["batch"] is x32

    def test_float32_labels_match_float64(self, tiny_correct):
        network, x, _ = tiny_correct
        # Flag everything so the corrector's dtype canonicalisation is
        # exercised too, not just the engine forward.
        dcn = DCN(network, _StubDetector(flag_all=True), Corrector(network, 0.1, seed=0))
        rows64 = np.asarray(x[:10], dtype=np.float64)
        rows32 = rows64.astype(np.float32)
        labels32, flagged32 = dcn.classify_detailed(rows32)
        labels64, flagged64 = dcn.classify_detailed(rows32.astype(np.float64))
        np.testing.assert_array_equal(labels32, labels64)
        np.testing.assert_array_equal(flagged32, flagged64)
