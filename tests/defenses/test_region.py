"""Tests for region-based classification (RC) and the vote primitive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.dataset import PIXEL_MAX, PIXEL_MIN
from repro.defenses import RegionClassifier, region_vote


class TestRegionVote:
    def test_zero_radius_matches_predict(self, tiny_correct):
        network, x, _ = tiny_correct
        labels = region_vote(network, x[:8], radius=0.0, samples=5, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(labels, network.predict(x[:8]))

    def test_small_radius_stable_on_benign(self, tiny_correct):
        network, x, y = tiny_correct
        labels = region_vote(network, x[:20], radius=0.05, samples=30, rng=np.random.default_rng(0))
        assert (labels == network.predict(x[:20])).mean() > 0.9

    def test_invalid_params(self, tiny_correct):
        network, x, _ = tiny_correct
        with pytest.raises(ValueError):
            region_vote(network, x[:1], radius=-0.1, samples=5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            region_vote(network, x[:1], radius=0.1, samples=0, rng=np.random.default_rng(0))

    def test_samples_stay_in_box(self, tiny_correct):
        # Sampling near the box corner must still produce valid labels
        # (implicitly checks clipping: the network would happily classify
        # out-of-box values, so we check the vote path doesn't crash and is
        # consistent under a huge radius).
        network, x, _ = tiny_correct
        labels = region_vote(network, x[:3], radius=2.0, samples=10, rng=np.random.default_rng(0))
        assert labels.shape == (3,)
        assert ((0 <= labels) & (labels < 10)).all()

    def test_batch_chunking_consistent(self, tiny_correct):
        network, x, _ = tiny_correct
        a = region_vote(network, x[:6], 0.05, 20, np.random.default_rng(3), batch_size=16)
        b = region_vote(network, x[:6], 0.05, 20, np.random.default_rng(3), batch_size=512)
        # Different chunking consumes the rng differently; both must still
        # agree with the model on clearly-benign inputs.
        np.testing.assert_array_equal(a, network.predict(x[:6]))
        np.testing.assert_array_equal(b, network.predict(x[:6]))


class TestRegionClassifier:
    def test_classify_interface(self, tiny_correct):
        network, x, y = tiny_correct
        rc = RegionClassifier(network, radius=0.05, samples=25)
        labels = rc.classify(x[:15])
        assert labels.shape == (15,)
        assert (labels == y[:15]).mean() > 0.8

    def test_name(self, tiny_correct):
        network, _, _ = tiny_correct
        assert RegionClassifier(network, 0.1).name == "rc"

    def test_engine_runs_at_kernel_batch_with_unchanged_labels(self, monkeypatch):
        # The noise chunks hold up to 500 sample rows here; the engine must
        # still run them in plans on the KERNEL_BATCH bucket ladder, and
        # labels must not depend on it (float32 cnn-fast rows are
        # independent of their batch).
        from repro.defenses import region
        from repro.serve.bucketing import bucket_sizes
        from repro.zoo import MODEL_CONFIGS, build_network

        network = build_network(MODEL_CONFIGS["cnn-fast"], (1, 16, 16), 10, seed=0)
        x = np.random.default_rng(0).uniform(size=(12, 1, 16, 16))
        rc = RegionClassifier(network, radius=0.3, samples=100)
        labels = rc.classify(x)
        sizes = {key[0] for key in network.engine._plans}
        assert max(sizes) <= region.KERNEL_BATCH
        assert sizes <= set(bucket_sizes(region.KERNEL_BATCH))
        monkeypatch.setattr(region, "KERNEL_BATCH", 512)
        np.testing.assert_array_equal(rc.classify(x), labels)

    def test_invalid_params_rejected_at_construction(self, tiny_correct):
        network, _, _ = tiny_correct
        with pytest.raises(ValueError, match="radius"):
            RegionClassifier(network, radius=-0.1)
        with pytest.raises(ValueError, match="samples"):
            RegionClassifier(network, radius=0.1, samples=0)


class TestRegionClassifierDeterminism:
    """Labels are a pure function of (seed, input) — never of call order."""

    def _rc(self, network, seed=3):
        return RegionClassifier(network, radius=0.05, samples=25, seed=seed)

    def test_call_order_does_not_change_labels(self, tiny_correct):
        network, x, _ = tiny_correct
        first = self._rc(network)
        second = self._rc(network)
        a1 = first.classify(x[:5])
        b1 = first.classify(x[5:10])
        # Reversed call order on a fresh instance: before the fix, the
        # shared generator state made these disagree.
        b2 = second.classify(x[5:10])
        a2 = second.classify(x[:5])
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    def test_repeat_calls_pin_exact_labels(self, tiny_correct):
        network, x, _ = tiny_correct
        rc = self._rc(network)
        labels = rc.classify(x[:8])
        # Exact labels, not tolerance: the same input always gets the
        # same vote, even after unrelated intervening calls.
        rc.classify(x[8:12])
        np.testing.assert_array_equal(rc.classify(x[:8]), labels)
        np.testing.assert_array_equal(self._rc(network).classify(x[:8]), labels)

    def test_different_seeds_draw_different_noise(self, tiny_correct):
        network, x, _ = tiny_correct
        from repro.defenses.region import call_rng

        a = call_rng(0, x[:4]).random(8)
        b = call_rng(1, x[:4]).random(8)
        assert not np.array_equal(a, b)

    def test_different_inputs_draw_different_noise(self, tiny_correct):
        network, x, _ = tiny_correct
        from repro.defenses.region import call_rng

        a = call_rng(0, x[:4]).random(8)
        b = call_rng(0, x[4:8]).random(8)
        assert not np.array_equal(a, b)

    def test_corrector_is_call_order_independent(self, tiny_correct):
        from repro.core.corrector import Corrector

        network, x, _ = tiny_correct
        first = Corrector(network, radius=0.05, samples=25, seed=1)
        second = Corrector(network, radius=0.05, samples=25, seed=1)
        a1 = first.correct(x[:4])
        b1 = first.correct(x[4:8])
        b2 = second.correct(x[4:8])
        a2 = second.correct(x[:4])
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)


class TestFusedVote:
    """region_vote_fused: the corrector kernel behind cross-request fusion."""

    def _args(self):
        return dict(radius=0.05, samples=20, seed=1)

    def test_fused_equals_per_row(self, tiny_correct):
        from repro.defenses.region import region_vote_fused

        network, x, _ = tiny_correct
        fused = region_vote_fused(network, x[:10], **self._args())
        per_row = np.concatenate(
            [region_vote_fused(network, x[i : i + 1], **self._args()) for i in range(10)]
        )
        # Per-input noise streams: fusing rows from many requests into one
        # batch votes bitwise-identically to voting each row alone.
        np.testing.assert_array_equal(fused, per_row)

    def test_kernel_batch_is_a_pure_performance_knob(self, tiny_correct, monkeypatch):
        from repro.defenses import region

        network, x, _ = tiny_correct
        a = region.region_vote_fused(network, x[:6], **self._args())
        monkeypatch.setattr(region, "KERNEL_BATCH", 7)
        b = region.region_vote_fused(network, x[:6], **self._args())
        np.testing.assert_array_equal(a, b)

    def test_float32_rows_vote_like_float64(self, tiny_correct):
        from repro.defenses.region import region_vote_fused

        network, x, _ = tiny_correct
        rows32 = np.asarray(x[:6], dtype=np.float32)
        # float32 -> float64 widening is exact, so a float32 batch hashes
        # to the same per-input noise streams as its widened copy (the
        # engine-dtype fast path in DCN.classify_detailed depends on it).
        np.testing.assert_array_equal(
            region_vote_fused(network, rows32, **self._args()),
            region_vote_fused(network, rows32.astype(np.float64), **self._args()),
        )

    def test_empty_batch(self, tiny_correct):
        from repro.defenses.region import region_vote_fused

        network, x, _ = tiny_correct
        assert region_vote_fused(network, x[:0], **self._args()).shape == (0,)

    def test_corrector_fused_matches_correct(self, tiny_correct):
        from repro.core.corrector import Corrector

        network, x, _ = tiny_correct
        corrector = Corrector(network, radius=0.05, samples=20, seed=2)
        np.testing.assert_array_equal(
            corrector.correct_fused(x[:8]), corrector.correct(x[:8])
        )


def _staged_labels(streams: np.ndarray, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Replay the kernel's stage loop on given per-row label streams."""
    from repro.defenses.region import decided, vote_stages

    rows, m = streams.shape
    votes = np.zeros((rows, num_classes), dtype=np.int64)
    decided_at = np.zeros(rows, dtype=np.int64)
    labels = np.zeros(rows, dtype=np.int64)
    active = np.arange(rows)
    drawn = 0
    for stage in vote_stages(m):
        for i in active:
            votes[i] += np.bincount(streams[i, drawn:stage], minlength=num_classes)
        drawn = stage
        done = decided(votes[active], m - stage)
        decided_at[active[done]] = stage
        labels[active[done]] = votes[active[done]].argmax(axis=1)
        active = active[~done]
    assert not len(active), "the last stage must decide every row"
    return labels, decided_at


@st.composite
def label_streams(draw):
    """Per-row label streams: uniform, skewed towards a leader, or tied."""
    m = draw(st.sampled_from([1, 2, 3, 7, 50, 1000]))
    k = draw(st.integers(2, 10))
    kind = draw(st.sampled_from(["uniform", "skewed", "tied"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(3):
        if kind == "uniform":
            row = rng.integers(0, k, size=m)
        elif kind == "skewed":
            row = rng.choice(k, size=m, p=rng.dirichlet(np.full(k, 0.3)))
        else:
            # Two classes split the majority evenly; the odd sample (if
            # any) goes anywhere.  argmax must keep the lower index.
            a, b = rng.choice(k, size=2, replace=False)
            row = np.array([a] * (m // 2) + [b] * (m // 2) + [rng.integers(k)] * (m % 2))
            rng.shuffle(row)
        rows.append(row)
    return np.stack(rows).astype(np.int64), k


class TestEarlyExitRule:
    """The retirement rule behind the early-exit vote, on pure label streams."""

    @settings(max_examples=150, deadline=None)
    @given(label_streams())
    def test_staged_label_equals_full_vote(self, case):
        streams, k = case
        m = streams.shape[1]
        labels, decided_at = _staged_labels(streams, k)
        full = np.array([np.bincount(row, minlength=k).argmax() for row in streams])
        np.testing.assert_array_equal(labels, full)
        assert (decided_at >= m // 2 + 1).all()
        assert (decided_at <= m).all()

    @settings(max_examples=60, deadline=None)
    @given(label_streams())
    def test_a_decided_prefix_never_changes_its_label(self, case):
        # Stronger than the schedule: at *any* prefix where the rule says
        # decided, the leader already is the full vote's label.
        from repro.defenses.region import decided

        streams, k = case
        m = streams.shape[1]
        for row in streams:
            full = np.bincount(row, minlength=k).argmax()
            votes = np.zeros((1, k), dtype=np.int64)
            for c in range(len(row) + 1):
                if c:
                    votes[0, row[c - 1]] += 1
                if decided(votes, m - c)[0]:
                    assert votes[0].argmax() == full

    def test_schedule_is_increasing_and_ends_at_m(self):
        from repro.defenses.region import vote_stages

        for m in (1, 2, 3, 7, 16, 50, 1000):
            stages = vote_stages(m)
            assert stages[0] == m // 2 + 1
            assert stages[-1] == m
            assert all(a < b for a, b in zip(stages, stages[1:]))


class TestEarlyExitKernel:
    def test_split_uniform_draws_equal_one_draw(self):
        # The stream invariant the staged vote rests on: consecutive draws
        # from one Generator reproduce a single draw bit for bit.
        from repro.defenses.region import input_rng, vote_stages

        row = np.linspace(0.0, 1.0, 36).reshape(1, 6, 6)
        for m in (50, 1000):
            whole = input_rng(3, row).uniform(-0.3, 0.3, size=(m, 1, 6, 6))
            stream = input_rng(3, row)
            drawn, parts = 0, []
            for stage in vote_stages(m):
                parts.append(stream.uniform(-0.3, 0.3, size=(stage - drawn, 1, 6, 6)))
                drawn = stage
            assert np.concatenate(parts).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("samples", [1, 2, 7, 50])
    def test_labels_equal_a_full_m_reference_vote(self, tiny_correct, samples):
        from repro.defenses.region import _staged_vote, input_rng

        network, x, _ = tiny_correct
        rows, radius, seed = x[:16], 0.6, 4
        reference = []
        for row in rows:
            noise = input_rng(seed, row).uniform(-radius, radius, size=(samples,) + row.shape)
            points = np.clip(row[None] + noise, PIXEL_MIN, PIXEL_MAX)
            labels = network.engine.predict(points, memo=False)
            reference.append(np.bincount(labels, minlength=network.num_classes).argmax())
        labels, decided_at = _staged_vote(network, rows, radius, samples, seed)
        np.testing.assert_array_equal(labels, reference)
        assert (decided_at >= samples // 2 + 1).all() and (decided_at <= samples).all()
        if samples == 50:
            # The radius is wide enough that rows exit at different stages.
            assert len(np.unique(decided_at)) > 1
