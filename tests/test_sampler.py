import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lahn import autodiff as ad
from lahn.encoder import EncoderDims, init_params
from lahn.momentum import MomentumQueue
from lahn.sampler import Strategy, anchor_class_prob, sample_for_batch, top_k_order

# ---------------------------------------------------------------------------
# independent oracle routes: pure-python cosine, softmax, and full sort
# ---------------------------------------------------------------------------


def naive_cosine(a, b, eps=1e-8):
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = max(math.sqrt(math.fsum(x * x for x in a)), eps)
    nb = max(math.sqrt(math.fsum(y * y for y in b)), eps)
    return dot / (na * nb)


def naive_prob(logit0, logit1, anchor_label):
    m = max(logit0, logit1)
    e0, e1 = math.exp(logit0 - m), math.exp(logit1 - m)
    return (e1 if anchor_label == 1 else e0) / (e0 + e1)


def naive_topk(scores, indices, k):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], indices[i]))
    return [indices[i] for i in order[:k]]


def head_params(d_feat=4, seed=0):
    return init_params(seed, EncoderDims(vocab_size=6, d_emb=4, hidden=5, d_feat=d_feat))


def filled_queue(rng, n, d_feat=4, labels=None):
    q = MomentumQueue(capacity=max(n, 1), d_feat=d_feat)
    feats = rng.normal(size=(n, d_feat))
    if labels is None:
        labels = rng.integers(0, 2, size=n)
    q.enqueue_batch(feats, labels)
    return q.snapshot()


def kept_by_filter(anchor_label, queue_labels):
    """Snapshot positions one anchor may draw from, read off a selection
    whose k exceeds the queue."""
    labels = np.asarray(queue_labels)
    snap = filled_queue(np.random.default_rng(0), labels.size, labels=labels)
    got = sample_for_batch(
        np.ones((1, 4)), np.array([anchor_label]), snap, None, Strategy.SIM_ONLY, k=labels.size + 1
    )[0]
    return sorted(got.queue_indices.tolist())


def select_row(scores, k, keep=None):
    """top_k_order over one row; the kept positions in selection order."""
    scores = np.asarray(scores, dtype=np.float64)
    keep = np.ones(scores.shape, dtype=bool) if keep is None else np.asarray(keep)
    order, valid = top_k_order(scores[None, :], keep[None, :], k)
    return order[0][valid[0]].tolist()


class TestFilter:
    def test_anchor_one(self):
        assert kept_by_filter(1, [1, 0, 1, 0]) == [1, 3]

    def test_anchor_zero(self):
        assert kept_by_filter(0, [1, 1]) == [0, 1]

    def test_no_candidates(self):
        assert kept_by_filter(1, [1, 1]) == []


class TestAnchorClassProb:
    def test_uniform(self):
        np.testing.assert_allclose(anchor_class_prob(np.zeros((1, 2)), 1), [0.5])

    def test_saturated(self):
        probs = anchor_class_prob(np.array([[0.0, 100.0]]), 1)
        np.testing.assert_allclose(probs, [1.0], atol=1e-12)

    def test_frozen_softmax_value(self):
        probs = anchor_class_prob(np.array([[1.0, 0.0]]), 1)
        np.testing.assert_allclose(probs, [0.268941], atol=1e-6)

    def test_matches_naive_route(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(40, 2)) * 3
        for label in (0, 1):
            expected = [naive_prob(l0, l1, label) for l0, l1 in logits]
            np.testing.assert_allclose(anchor_class_prob(logits, label), expected, atol=1e-12)

    def test_label_array_gives_one_row_per_anchor(self):
        logits = np.random.default_rng(1).normal(size=(6, 2))
        labels = np.array([1, 0, 0, 1])
        got = anchor_class_prob(logits, labels)
        assert got.shape == (4, 6)
        for b, label in enumerate(labels):
            np.testing.assert_array_equal(got[b], anchor_class_prob(logits, int(label)))

    def test_non_binary_label_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            anchor_class_prob(np.zeros((2, 2)), np.array([0, 2]))


class TestScoreCandidates:
    """Scores as sample_for_batch reports them, with k above the queue size."""

    def test_product_weighting(self):
        rng = np.random.default_rng(1)
        snap = filled_queue(rng, 12)
        anchors, labels = rng.normal(size=(3, 4)), np.array([0, 1, 1])
        params = head_params()
        plain = sample_for_batch(anchors, labels, snap, params, Strategy.SIM_ONLY, k=99)
        weighted = sample_for_batch(anchors, labels, snap, params, Strategy.LABEL_SIM_WEIGHT, k=99)
        probs = anchor_class_prob(snap.features @ params.wh.values + params.bh.values, labels)
        for i in range(3):
            cosine = dict(zip(plain[i].queue_indices.tolist(), plain[i].scores))
            for j, score in zip(weighted[i].queue_indices.tolist(), weighted[i].scores):
                assert score == cosine[j] * probs[i, j]

    def test_unit_probs_reduce_to_sim_only(self):
        rng = np.random.default_rng(1)
        snap = filled_queue(rng, 8, labels=np.zeros(8, dtype=int))
        params = head_params()
        # a saturated head: the anchor class (1) gets probability exactly 1
        params.wh.values[:] = 0.0
        params.bh.values[:] = [-800.0, 800.0]
        anchors, labels = rng.normal(size=(2, 4)), np.array([1, 1])
        weighted = sample_for_batch(anchors, labels, snap, params, Strategy.LABEL_SIM_WEIGHT, k=99)
        plain = sample_for_batch(anchors, labels, snap, params, Strategy.SIM_ONLY, k=99)
        np.testing.assert_array_equal(weighted.scores, plain.scores)
        np.testing.assert_array_equal(weighted.queue_indices, plain.queue_indices)

    def test_matches_naive_dot_norm_softmax_route(self):
        rng = np.random.default_rng(2)
        d = 6
        snap = filled_queue(rng, 32, d_feat=d, labels=np.zeros(32, dtype=int))
        anchor = rng.normal(size=d)
        params = head_params(d, seed=3)
        got = sample_for_batch(anchor[None], np.array([1]), snap, params, Strategy.LABEL_SIM_WEIGHT, k=99)[0]
        wh, bh = params.wh.values, params.bh.values
        for j, score in zip(got.queue_indices, got.scores):
            c = snap.features[j]
            l0 = math.fsum(c[t] * wh[t, 0] for t in range(d)) + bh[0]
            l1 = math.fsum(c[t] * wh[t, 1] for t in range(d)) + bh[1]
            assert abs(score - naive_cosine(anchor, c) * naive_prob(l0, l1, 1)) < 1e-12

    @pytest.mark.parametrize("strategy", [Strategy.SIM_ONLY, Strategy.LABEL_SIM_WEIGHT])
    def test_scores_are_the_cosine_op_bitwise(self, strategy):
        # a zero anchor and a zero queue row sit on the norm clamp
        rng = np.random.default_rng(3)
        snap = filled_queue(rng, 20)
        snap.features[5] = 0.0
        anchors, labels = rng.normal(size=(4, 4)), np.array([0, 1, 1, 0])
        anchors[2] = 0.0
        params = head_params()
        got = sample_for_batch(anchors, labels, snap, params, strategy, k=99)
        cosine = want = ad.cosine(ad.constant(anchors), ad.constant(snap.features)).values
        if strategy is Strategy.LABEL_SIM_WEIGHT:
            want = want * anchor_class_prob(snap.features @ params.wh.values + params.bh.values, labels)
        for i, view in enumerate(got):
            np.testing.assert_array_equal(view.scores, want[i, view.queue_indices])
            # the selection keeps its cosine before weighting
            np.testing.assert_array_equal(got.similarity[i, : view.size], cosine[i, view.queue_indices])
        assert not got.similarity[~got.valid].any()

    def test_dim_mismatch_rejected(self):
        snap = filled_queue(np.random.default_rng(3), 2)
        with pytest.raises(ValueError, match="incompatible"):
            sample_for_batch(np.ones((1, 3)), np.array([0]), snap, None, Strategy.SIM_ONLY, k=1)

    def test_missing_probs_rejected_for_weighting(self):
        snap = filled_queue(np.random.default_rng(3), 2)
        with pytest.raises(ValueError, match="momentum"):
            sample_for_batch(np.ones((1, 4)), np.array([0]), snap, None, Strategy.LABEL_SIM_WEIGHT, k=1)


class TestSelect:
    def test_descending_selection(self):
        assert select_row([0.45, 0.5, 0.1], k=2) == [1, 0]

    def test_fewer_than_k_takes_all(self):
        assert sorted(select_row([0.3, 0.2, 0.9], k=16)) == [0, 1, 2]

    def test_zero_candidates_empty_set(self):
        assert select_row(np.zeros(0), k=4) == []
        assert select_row([0.1, 0.2], k=4, keep=[False, False]) == []

    def test_tie_broken_by_lower_queue_index(self):
        assert select_row([0.5, 0.5, 0.5, 0.7], k=3) == [3, 0, 1]
        assert select_row([0.5, 0.5, 0.5, 0.7], k=3, keep=[False, True, True, True]) == [3, 1, 2]

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            select_row([0.1], k=0)

    def test_padding_is_a_suffix_per_row(self):
        scores = np.array([[0.1, 0.9, 0.5, 0.3], [0.2, 0.4, 0.6, 0.8]])
        keep = np.array([[True, False, True, False], [True, True, True, True]])
        order, valid = top_k_order(scores, keep, 3)
        np.testing.assert_array_equal(valid, [[True, True, False], [True, True, True]])
        np.testing.assert_array_equal(order[0, :2], [2, 0])
        np.testing.assert_array_equal(order[1], [3, 2, 1])

    def test_thousand_random_cases_match_full_sort(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            b = int(rng.integers(1, 4))
            n = int(rng.integers(0, 40))
            k = int(rng.integers(1, 33))
            # coarse grid forces plenty of score ties
            scores = rng.integers(0, 5, size=(b, n)) / 4.0
            keep = rng.random((b, n)) < 0.7
            order, valid = top_k_order(scores, keep, k)
            for r in range(b):
                idx = np.flatnonzero(keep[r])
                assert order[r][valid[r]].tolist() == naive_topk(scores[r, idx], idx.tolist(), k)

    def test_equals_stable_argsort_on_wide_tied_rows(self):
        # queue-sized rows: many ties at each row's cut, signed zeros, and
        # rows that keep fewer than k entries next to rows that keep many
        def check(scores, keep, k):
            order, valid = top_k_order(scores, keep, k)
            assert order.shape == valid.shape == (keep.shape[0], min(k, keep.sum(axis=1).max()))
            full = np.argsort(np.where(keep, -scores, np.inf), axis=1, kind="stable")
            want_valid = np.arange(order.shape[1]) < np.minimum(keep.sum(axis=1), k)[:, None]
            np.testing.assert_array_equal(valid, want_valid)
            np.testing.assert_array_equal(order[valid], full[:, : order.shape[1]][valid])

        rng = np.random.default_rng(4)
        for _ in range(300):
            b, n, k = int(rng.integers(1, 17)), int(rng.integers(1, 300)), int(rng.integers(1, 33))
            scores = rng.integers(-3, 4, size=(b, n)) / 3.0
            scores[rng.random((b, n)) < 0.2] = -0.0
            keep = rng.random((b, n)) < rng.random(size=(b, 1))
            check(scores, keep, k)
            # width 0: no row keeps anything
            check(scores, np.zeros((b, n), dtype=bool), k)
            # width n: k reaches the row length and one row keeps every entry
            keep[0] = True
            check(scores, keep, n + int(rng.integers(0, 3)))

    @given(
        st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=20),
        st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=80)
    def test_selected_scores_dominate_unselected(self, raw_scores, k):
        scores = np.array(raw_scores, dtype=float) / 4.0
        picked = select_row(scores, k)
        unselected = set(range(len(scores))) - set(picked)
        if picked and unselected:
            worst_kept = scores[picked[-1]]
            assert all(scores[i] <= worst_kept for i in unselected)
        assert (np.diff(scores[picked]) <= 0).all()

    @given(st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=40)
    def test_positive_rescaling_invariance(self, alpha):
        scores = np.array([0.9, -0.5, 0.4, 0.4, 0.0])
        assert select_row(scores, 3) == select_row(alpha * scores, 3)


class TestSampleForBatch:
    def test_empty_queue_gives_empty_sets(self):
        rng = np.random.default_rng(4)
        snap = MomentumQueue(capacity=8, d_feat=4).snapshot()
        sets = sample_for_batch(
            rng.normal(size=(3, 4)), np.array([0, 1, 0]), snap, head_params(),
            Strategy.LABEL_SIM_WEIGHT, k=4,
        )
        assert all(s.size == 0 for s in sets)

    def test_same_label_queue_empty_under_filtering_full_under_all(self):
        rng = np.random.default_rng(5)
        snap = filled_queue(rng, 6, labels=np.ones(6, dtype=int))
        anchors = rng.normal(size=(2, 4))
        labels = np.array([1, 1])
        for strat in (Strategy.SIM_ONLY, Strategy.LABEL_SIM_WEIGHT):
            assert all(s.size == 0 for s in sample_for_batch(anchors, labels, snap, head_params(), strat, k=3))
        all_sets = sample_for_batch(anchors, labels, snap, head_params(), Strategy.ALL_QUEUE, k=3)
        assert all(s.size == 6 for s in all_sets)  # AllQueue ignores k and labels

    def test_no_selected_negative_shares_anchor_label(self):
        rng = np.random.default_rng(6)
        snap = filled_queue(rng, 40)
        anchors = rng.normal(size=(8, 4))
        labels = rng.integers(0, 2, size=8)
        for strat in (Strategy.SIM_ONLY, Strategy.LABEL_SIM_WEIGHT):
            for i, s in enumerate(sample_for_batch(anchors, labels, snap, head_params(), strat, k=8)):
                assert (snap.labels[s.queue_indices] != labels[i]).all()

    def test_k_at_least_candidates_selects_whole_candidate_set(self):
        rng = np.random.default_rng(7)
        snap = filled_queue(rng, 10)
        anchors = rng.normal(size=(3, 4))
        labels = rng.integers(0, 2, size=3)
        sets = sample_for_batch(anchors, labels, snap, head_params(), Strategy.SIM_ONLY, k=99)
        for i, s in enumerate(sets):
            expected = set(np.flatnonzero(snap.labels != labels[i]).tolist())
            assert set(s.queue_indices.tolist()) == expected

    def test_own_entry_excluded_from_candidates(self):
        rng = np.random.default_rng(8)
        snap = filled_queue(rng, 12)
        anchors = rng.normal(size=(2, 4))
        # anchor labels opposite to their own entries so the label filter alone
        # would keep them; only the id bookkeeping removes them
        own_ids = snap.entry_ids[[3, 7]]
        labels = 1 - snap.labels[[3, 7]]
        sets = sample_for_batch(
            anchors, labels, snap, head_params(), Strategy.SIM_ONLY, k=99, exclude_ids=own_ids
        )
        for s, own in zip(sets, (3, 7)):
            assert own not in s.queue_indices.tolist()

    def test_random_case_equals_per_anchor_brute_force(self):
        rng = np.random.default_rng(9)
        d = 4
        snap = filled_queue(rng, 64, d_feat=d)
        anchors = rng.normal(size=(4, d))
        labels = rng.integers(0, 2, size=4)
        params = head_params(d)
        head_logits = snap.features @ params.wh.values + params.bh.values
        for strat in (Strategy.SIM_ONLY, Strategy.LABEL_SIM_WEIGHT):
            sets = sample_for_batch(anchors, labels, snap, params, strat, k=16)
            for i in range(4):
                cand = [j for j in range(64) if snap.labels[j] != labels[i]]
                expected_scores = []
                for j in cand:
                    s = naive_cosine(anchors[i], snap.features[j])
                    if strat is Strategy.LABEL_SIM_WEIGHT:
                        s *= naive_prob(head_logits[j, 0], head_logits[j, 1], int(labels[i]))
                    expected_scores.append(s)
                expected = naive_topk(expected_scores, cand, 16)
                assert sets[i].queue_indices.tolist() == expected

    def test_equal_probs_select_same_set_as_sim_only(self):
        rng = np.random.default_rng(10)
        snap = filled_queue(rng, 30)
        params = head_params()
        # zero head makes every momentum probability exactly 0.5
        params.wh.values[:] = 0.0
        params.bh.values[:] = 0.0
        anchors = rng.normal(size=(5, 4))
        labels = rng.integers(0, 2, size=5)
        weighted = sample_for_batch(anchors, labels, snap, params, Strategy.LABEL_SIM_WEIGHT, k=6)
        plain = sample_for_batch(anchors, labels, snap, params, Strategy.SIM_ONLY, k=6)
        for w, p in zip(weighted, plain):
            np.testing.assert_array_equal(w.queue_indices, p.queue_indices)

    def test_all_queue_scores_sorted_descending(self):
        rng = np.random.default_rng(11)
        snap = filled_queue(rng, 20)
        sets = sample_for_batch(
            rng.normal(size=(2, 4)), np.array([0, 1]), snap, head_params(), Strategy.ALL_QUEUE, k=2
        )
        for s in sets:
            assert (np.diff(s.scores) <= 0).all()
            assert s.size == 20


    def test_padded_result_layout(self):
        rng = np.random.default_rng(12)
        snap = filled_queue(rng, 10, labels=np.array([0] * 7 + [1] * 3))
        anchors, labels = rng.normal(size=(3, 4)), np.array([1, 0, 0])
        got = sample_for_batch(anchors, labels, snap, head_params(), Strategy.SIM_ONLY, k=5)
        assert len(got) == 3 and got.valid.shape == (3, 5)
        np.testing.assert_array_equal(got.valid.sum(axis=1), [5, 3, 3])
        assert (np.diff(got.valid.astype(int), axis=1) <= 0).all()  # a prefix per row
        assert (got.queue_indices[~got.valid] == -1).all() and (got.scores[~got.valid] == 0.0).all()
        for i, view in enumerate(got):
            n = view.size
            np.testing.assert_array_equal(view.queue_indices, got.queue_indices[i, :n])
            np.testing.assert_array_equal(view.features, snap.features[view.queue_indices])

    def test_empty_snapshot_under_every_strategy(self):
        snap = MomentumQueue(capacity=4, d_feat=4).snapshot()
        for strat in Strategy:
            got = sample_for_batch(np.ones((2, 4)), np.array([0, 1]), snap, head_params(), strat, k=3)
            assert got.valid.shape == (2, 0)

    def test_batched_equals_per_anchor_brute_force(self):
        # integer-valued rows with duplicates force exact score ties; one
        # anchor's only true negative is its own excluded entry
        rng = np.random.default_rng(13)
        d = 4
        params = head_params(d, seed=2)
        for case in range(60):
            s = int(rng.integers(1, 40))
            feats = rng.integers(-2, 3, size=(s, d)).astype(np.float64)
            feats[rng.integers(s, size=s // 3)] = feats[int(rng.integers(s))]
            queue_labels = rng.integers(0, 2, size=s)
            b = int(rng.integers(1, 6))
            anchors = rng.integers(-2, 3, size=(b, d)).astype(np.float64)
            labels = rng.integers(0, 2, size=b)
            own = rng.integers(s, size=b)
            if case % 3 == 0:
                # anchor 0's one true negative is its own entry: it has none
                queue_labels[:] = labels[0]
                queue_labels[own[0]] = 1 - labels[0]
            queue = MomentumQueue(s, d)
            ids = queue.enqueue_batch(feats, queue_labels)
            snap = queue.snapshot()
            exclude = ids[own]
            k = int(rng.integers(1, 12))
            wh, bh = params.wh.values, params.bh.values
            logits = [[math.fsum(f[t] * wh[t, c] for t in range(d)) + bh[c] for c in (0, 1)] for f in feats]
            for strat in Strategy:
                got = sample_for_batch(anchors, labels, snap, params, strat, k, exclude_ids=exclude)
                for i in range(b):
                    cand = [
                        j for j in range(s)
                        if j != own[i] and (strat is Strategy.ALL_QUEUE or queue_labels[j] != labels[i])
                    ]
                    scores = [naive_cosine(anchors[i], feats[j]) for j in cand]
                    if strat is Strategy.LABEL_SIM_WEIGHT:
                        label = int(labels[i])
                        scores = [sc * naive_prob(*logits[j], label) for sc, j in zip(scores, cand)]
                    width = len(cand) if strat is Strategy.ALL_QUEUE else k
                    expected = naive_topk(scores, cand, width)
                    assert got[i].queue_indices.tolist() == expected, (case, strat, i)
                    np.testing.assert_allclose(
                        got[i].scores, [scores[cand.index(j)] for j in expected], atol=1e-12
                    )


class TestStrategyParse:
    def test_cli_names(self):
        assert Strategy.parse("all") is Strategy.ALL_QUEUE
        assert Strategy.parse("sim") is Strategy.SIM_ONLY
        assert Strategy.parse("simweight") is Strategy.LABEL_SIM_WEIGHT

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            Strategy.parse("bogus")
