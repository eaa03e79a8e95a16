import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lahn.encoder import EncoderDims, clone_params, init_params
from lahn.momentum import MomentumQueue, ema_update


def rows(*vals, d=3):
    return np.array([[float(v)] * d for v in vals])


class TestQueueFifo:
    def test_three_enqueues_keep_last_four_in_age_order(self):
        q = MomentumQueue(capacity=4, d_feat=3)
        q.enqueue_batch(rows(1, 2), [0, 1])
        q.enqueue_batch(rows(3, 4), [0, 1])
        q.enqueue_batch(rows(5, 6), [0, 1])
        snap = q.snapshot()
        np.testing.assert_array_equal(snap.features[:, 0], [3, 4, 5, 6])
        np.testing.assert_array_equal(snap.labels, [0, 1, 0, 1])

    def test_under_capacity_no_eviction(self):
        q = MomentumQueue(capacity=8, d_feat=3)
        q.enqueue_batch(rows(1, 2, 3), [0, 0, 1])
        assert q.size == 3

    def test_oversized_batch_keeps_newest(self):
        q = MomentumQueue(capacity=3, d_feat=3)
        q.enqueue_batch(rows(1, 2, 3, 4, 5), [0, 1, 0, 1, 0])
        np.testing.assert_array_equal(q.snapshot().features[:, 0], [3, 4, 5])

    def test_entry_ids_monotonic_across_evictions(self):
        q = MomentumQueue(capacity=2, d_feat=3)
        q.enqueue_batch(rows(1, 2), [0, 0])
        q.enqueue_batch(rows(3), [1])
        snap = q.snapshot()
        np.testing.assert_array_equal(snap.entry_ids, [1, 2])

    def test_dim_mismatch_rejected(self):
        q = MomentumQueue(capacity=4, d_feat=3)
        with pytest.raises(ValueError, match="3"):
            q.enqueue_batch(np.ones((2, 5)), [0, 1])

    def test_label_length_mismatch_rejected(self):
        q = MomentumQueue(capacity=4, d_feat=3)
        with pytest.raises(ValueError):
            q.enqueue_batch(rows(1, 2), [0])

    @given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=12))
    @settings(max_examples=50)
    def test_size_is_min_of_total_and_capacity(self, batch_sizes):
        q = MomentumQueue(capacity=10, d_feat=2)
        total = 0
        for b in batch_sizes:
            q.enqueue_batch(np.arange(total, total + b, dtype=float)[:, None].repeat(2, axis=1),
                            np.zeros(b, dtype=int))
            total += b
            assert q.size == min(total, 10)
        # eviction never skips a newer entry: remaining ages strictly increase
        snap = q.snapshot()
        assert (np.diff(snap.entry_ids) > 0).all()
        np.testing.assert_array_equal(snap.entry_ids, np.arange(total - q.size, total))


class TestRingBuffer:
    """The queue against a plain list model of the newest ``capacity`` entries."""

    def test_wrap_around_matches_list_model(self):
        rng = np.random.default_rng(0)
        q = MomentumQueue(capacity=5, d_feat=2)
        model_feats, model_labels, model_ids = [], [], []
        for n in (2, 3, 1, 4, 2, 5, 3, 8, 1):
            feats = rng.normal(size=(n, 2))
            labels = rng.integers(0, 2, size=n)
            model_ids += list(q.enqueue_batch(feats, labels))
            model_feats += list(feats)
            model_labels += list(labels)
            snap = q.snapshot()
            total = len(model_labels)
            np.testing.assert_array_equal(snap.features, np.array(model_feats[-5:]))
            np.testing.assert_array_equal(snap.labels, model_labels[-5:])
            # the snapshot's ids are the ones enqueue handed out for those rows
            np.testing.assert_array_equal(snap.entry_ids, model_ids[-5:])
            np.testing.assert_array_equal(snap.entry_ids, np.arange(max(total - 5, 0), total))

    def test_batch_larger_than_capacity_after_wrap(self):
        q = MomentumQueue(capacity=3, d_feat=3)
        q.enqueue_batch(rows(1, 2), [0, 1])
        ids = q.enqueue_batch(rows(3, 4, 5, 6, 7), [1, 0, 1, 0, 1])
        np.testing.assert_array_equal(ids, [2, 3, 4, 5, 6])
        snap = q.snapshot()
        np.testing.assert_array_equal(snap.features[:, 0], [5, 6, 7])
        np.testing.assert_array_equal(snap.labels, [1, 0, 1])
        np.testing.assert_array_equal(snap.entry_ids, [4, 5, 6])
        assert q.size == 3 and q.fill_fraction() == 1.0

    def test_snapshot_of_full_ring_unchanged_by_later_enqueues(self):
        q = MomentumQueue(capacity=4, d_feat=3)
        q.enqueue_batch(rows(1, 2, 3, 4, 5, 6), [0, 1, 0, 1, 0, 1])
        snap = q.snapshot()
        before = (snap.features.copy(), snap.labels.copy(), snap.entry_ids.copy())
        q.enqueue_batch(rows(7, 8, 9), [1, 1, 1])
        q.enqueue_batch(rows(10), [0])
        for got, want in zip((snap.features, snap.labels, snap.entry_ids), before):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(q.snapshot().features[:, 0], [7, 8, 9, 10])


class TestSnapshot:
    def test_empty_queue_snapshot(self):
        snap = MomentumQueue(capacity=4, d_feat=3).snapshot()
        assert snap.size == 0 and snap.features.shape == (0, 3)

    def test_snapshot_frozen_against_later_enqueues(self):
        q = MomentumQueue(capacity=4, d_feat=3)
        q.enqueue_batch(rows(1), [0])
        snap = q.snapshot()
        q.enqueue_batch(rows(2, 3, 4, 5), [1, 1, 1, 1])
        assert snap.size == 1
        np.testing.assert_array_equal(snap.features[:, 0], [1])

    def test_snapshot_copies_do_not_alias_queue(self):
        q = MomentumQueue(capacity=4, d_feat=3)
        q.enqueue_batch(rows(1, 2), [0, 1])
        snap = q.snapshot()
        snap.features[:] = 99.0
        np.testing.assert_array_equal(q.snapshot().features[:, 0], [1, 2])

    def test_enqueue_copies_not_aliases_input(self):
        q = MomentumQueue(capacity=4, d_feat=3)
        feats = rows(1, 2)
        q.enqueue_batch(feats, [0, 1])
        feats[:] = -1.0
        np.testing.assert_array_equal(q.snapshot().features[:, 0], [1, 2])


class TestFillFraction:
    def test_quarter(self):
        q = MomentumQueue(capacity=1024, d_feat=2)
        q.enqueue_batch(np.zeros((256, 2)), np.zeros(256, dtype=int))
        assert q.fill_fraction() == 0.25

    def test_empty_and_full(self):
        q = MomentumQueue(capacity=4, d_feat=2)
        assert q.fill_fraction() == 0.0
        q.enqueue_batch(np.zeros((4, 2)), np.zeros(4, dtype=int))
        assert q.fill_fraction() == 1.0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            MomentumQueue(capacity=0, d_feat=2)


def tiny_params(seed=0):
    return init_params(seed, EncoderDims(vocab_size=6, d_emb=4, hidden=5, d_feat=3))


class TestEma:
    def test_hand_case(self):
        main = tiny_params(1)
        mom = clone_params(main)
        for _, t in mom.named():
            t.values[:] = 0.0
        for _, t in main.named():
            t.values[:] = 1.0
        ema_update(main, mom, 0.999)
        for _, t in mom.named():
            np.testing.assert_allclose(t.values, 0.001, rtol=1e-12)

    def test_m_one_is_identity(self):
        main, mom = tiny_params(1), clone_params(tiny_params(2))
        before = {n: t.values.copy() for n, t in mom.named()}
        ema_update(main, mom, 1.0)
        for n, t in mom.named():
            np.testing.assert_array_equal(t.values, before[n])

    def test_m_zero_copies_main(self):
        main, mom = tiny_params(1), clone_params(tiny_params(2))
        ema_update(main, mom, 0.0)
        for (_, a), (_, b) in zip(mom.named(), main.named()):
            np.testing.assert_allclose(a.values, b.values, rtol=1e-15)

    def test_exact_recomputation(self):
        # the update must be literally m*old + (1-m)*main, bitwise
        m = 0.999
        main, mom = tiny_params(3), clone_params(tiny_params(4))
        before = {n: t.values.copy() for n, t in mom.named()}
        ema_update(main, mom, m)
        for (n, t), (_, cur) in zip(mom.named(), main.named()):
            expected = before[n] * m
            expected += (1.0 - m) * cur.values
            np.testing.assert_array_equal(t.values, expected)

    def test_contraction_toward_main(self):
        m = 0.9
        main, mom = tiny_params(5), clone_params(tiny_params(6))
        gap_before = {n: t.values - dict(main.named())[n].values for n, t in mom.named()}
        ema_update(main, mom, m)
        for n, t in mom.named():
            gap_after = t.values - dict(main.named())[n].values
            np.testing.assert_allclose(gap_after, m * gap_before[n], rtol=1e-12, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        main = tiny_params(1)
        other = init_params(0, EncoderDims(vocab_size=6, d_emb=4, hidden=5, d_feat=4))
        with pytest.raises(ValueError, match="w2"):
            ema_update(main, clone_params(other), 0.5)

    def test_invalid_coefficient_rejected(self):
        main, mom = tiny_params(0), clone_params(tiny_params(1))
        before = {n: t.values.copy() for n, t in mom.named()}
        for m in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="momentum coefficient"):
                ema_update(main, mom, m)
        for n, t in mom.named():
            np.testing.assert_array_equal(t.values, before[n])
