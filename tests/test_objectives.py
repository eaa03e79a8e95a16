import math

import numpy as np
import pytest

from gradcheck import grad_check
from lahn import autodiff as ad
from lahn.objectives import (
    classification_loss,
    combined_loss,
    contrastive_loss,
    lahn_loss,
    scl_loss,
)
from lahn.sampler import HardNegativeBatch

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def padded(*anchors):
    """(pos, negs) per anchor -> rows [pos, negs..., zero padding] as a
    parameter, plus the validity and positive masks that contrastive_loss
    takes (column 0 is each anchor's positive)."""
    width = 1 + max(len(negs if negs is not None else ()) for _, negs in anchors)
    sims = np.zeros((len(anchors), width))
    valid = np.zeros((len(anchors), width), dtype=bool)
    for i, (pos, negs) in enumerate(anchors):
        row = [pos] + list(negs if negs is not None else ())
        sims[i, : len(row)] = row
        valid[i, : len(row)] = True
    positive = np.zeros_like(valid)
    positive[:, 0] = True
    return ad.param(sims), valid, positive


def loss_of(*anchors, tau):
    return contrastive_loss(*padded(*anchors), tau=tau)


def naive_contrastive(pos, negs, tau):
    # independent route: plain python softmax-CE over [pos/tau, negs/tau]
    logits = [pos / tau] + [n / tau for n in negs]
    m = max(logits)
    z = math.fsum(math.exp(l - m) for l in logits)
    return -(logits[0] - m - math.log(z))


class TestContrastiveLoss:
    def test_zero_negatives_contributes_zero(self):
        loss = loss_of((1.0, None), tau=0.05)
        assert loss.values == 0.0

    def test_uniform_row_gives_log_three(self):
        loss = loss_of((0.5, [0.5, 0.5]), tau=1.0)
        np.testing.assert_allclose(loss.values, LN3, atol=1e-6)
        np.testing.assert_allclose(loss.values, 1.098612, atol=1e-6)

    def test_well_separated_pair_is_negligible(self):
        loss = loss_of((1.0, [-1.0]), tau=0.05)
        assert 0.0 <= float(loss.values) < 1e-12

    def test_mean_over_all_anchors_counts_empty_ones(self):
        loss = loss_of((0.5, [0.5, 0.5]), (0.9, None), tau=1.0)
        np.testing.assert_allclose(loss.values, LN3 / 2.0, atol=1e-12)

    def test_all_anchors_empty_gives_constant_zero(self):
        loss = loss_of((0.3, None), (0.1, []), tau=1.0)
        assert loss.values == 0.0 and not loss.requires_grad

    def test_matches_naive_route_on_random_rows(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_anchors = int(rng.integers(1, 5))
            tau = float(rng.uniform(0.05, 2.0))
            anchors, expected = [], []
            for _ in range(n_anchors):
                pos = float(rng.uniform(-1, 1))
                negs = rng.uniform(-1, 1, size=int(rng.integers(0, 6)))
                anchors.append((pos, negs if negs.size else None))
                if negs.size:
                    expected.append(naive_contrastive(pos, negs.tolist(), tau))
                else:
                    expected.append(0.0)
            loss = loss_of(*anchors, tau=tau)
            np.testing.assert_allclose(loss.values, np.mean(expected), atol=1e-12)

    def test_raising_positive_lowers_loss(self):
        lo = loss_of((0.2, [0.5, 0.1]), tau=0.1).values
        hi = loss_of((0.6, [0.5, 0.1]), tau=0.1).values
        assert hi < lo

    def test_raising_a_negative_raises_loss(self):
        lo = loss_of((0.4, [0.1, 0.1]), tau=0.1).values
        hi = loss_of((0.4, [0.6, 0.1]), tau=0.1).values
        assert hi > lo

    def test_negative_order_is_irrelevant(self):
        rng = np.random.default_rng(1)
        negs = rng.uniform(-1, 1, size=8)
        a = loss_of((0.3, negs), tau=0.07).values
        b = loss_of((0.3, negs[::-1].copy()), tau=0.07).values
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_far_negative_adds_almost_nothing(self):
        base = loss_of((0.9, [0.5]), tau=0.05).values
        padded_row = loss_of((0.9, [0.5, -1.0]), tau=0.05).values
        assert abs(padded_row - base) < 1e-6

    def test_padding_values_are_ignored(self):
        sims, valid, positive = padded((0.9, [0.5]), (0.2, [0.1, 0.3]))
        base = contrastive_loss(sims, valid, positive, tau=0.1).values
        sims.values[0, 2] = 50.0  # anchor 0's padding slot
        assert contrastive_loss(sims, valid, positive, tau=0.1).values == base

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            loss_of((0.5, [0.1]), tau=0.0)

    def test_empty_anchor_list_rejected(self):
        with pytest.raises(ValueError):
            empty = np.zeros((0, 1), dtype=bool)
            contrastive_loss(ad.param(np.zeros((0, 1))), empty, empty, tau=1.0)

    def test_invalid_positive_column_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            contrastive_loss(ad.param(np.zeros((1, 2))), [[False, True]], [[True, False]], tau=1.0)

    def test_anchor_without_positive_counts_in_nothing(self):
        # anchor 1 has valid entries but no positive: it leaves the mean
        sims = ad.param(np.array([[0.5, 0.5, 0.5], [0.9, 0.1, 0.4]]))
        valid = np.ones((2, 3), dtype=bool)
        positive = np.array([[True, False, False], [False, False, False]])
        loss = contrastive_loss(sims, valid, positive, tau=1.0)
        np.testing.assert_allclose(loss.values, LN3, atol=1e-12)
        none = contrastive_loss(sims, valid, np.zeros((2, 3), dtype=bool), tau=1.0)
        assert none.values == 0.0 and not none.requires_grad

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        sims, valid, positive = padded(
            (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5, size=6)), (0.3, [0.1])
        )
        report = grad_check(
            lambda s: contrastive_loss(s, valid, positive, tau=0.1), [sims], h=1e-5, tol=1e-4
        )
        assert report.passed, str(report)


class TestClassificationLoss:
    def test_uniform_logits_give_log_two(self):
        logits = ad.param(np.zeros((1, 2)))
        np.testing.assert_allclose(classification_loss(logits, [1]).values, LN2, atol=1e-12)

    def test_saturated_correct_is_near_zero(self):
        logits = ad.param(np.array([[-30.0, 30.0]]))
        assert float(classification_loss(logits, [1]).values) < 1e-12

    def test_two_row_mean_hand_case(self):
        logits = ad.param(np.array([[0.0, 0.0], [math.log(3.0), 0.0]]))
        # row 0: ln 2; row 1 target 0: -log(3/4) = ln 4 - ln 3
        expected = (LN2 + (math.log(4.0) - LN3)) / 2.0
        np.testing.assert_allclose(classification_loss(logits, [0, 0]).values, expected, atol=1e-12)

    def test_nonbinary_label_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            classification_loss(ad.param(np.zeros((1, 2))), [2])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = ad.param(rng.normal(size=(4, 2)))
        report = grad_check(lambda t: classification_loss(t, [0, 1, 1, 0]), [logits])
        assert report.passed, str(report)

    @pytest.mark.parametrize("b", [16, 12])  # 12: a tail batch, where 1/B is inexact
    def test_value_and_gradient_against_log_softmax(self, b):
        rng = np.random.default_rng(b)
        logits = ad.param(rng.normal(scale=3.0, size=(b, 2)))
        labels = rng.integers(0, 2, size=b)
        with ad.Tape() as tape:
            loss = classification_loss(logits, labels)
            tape.backward(loss)
        # independent route: plain numpy log-softmax and its gradient
        shifted = logits.values - logits.values.max(axis=1, keepdims=True)
        log_softmax = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        onehot = np.eye(2)[labels]
        want = -log_softmax[np.arange(b), labels].mean()
        np.testing.assert_allclose(float(loss.values), want, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(logits.grad, (np.exp(log_softmax) - onehot) / b, rtol=0.0, atol=1e-12)

    def test_label_count_must_match_batch(self):
        with pytest.raises(ValueError, match="one label per logit row"):
            classification_loss(ad.param(np.zeros((3, 2))), [0, 1])


class TestCombinedLoss:
    def test_hand_weighting(self):
        total = combined_loss(ad.constant(LN3), ad.constant(LN2), lam=0.1)
        np.testing.assert_allclose(total.values, 0.9 * LN3 + 0.1 * LN2, atol=1e-12)

    def test_lam_zero_is_contrastive_bitwise(self):
        l_cl, l_ce = ad.constant(0.7321), ad.constant(1.25)
        total = combined_loss(l_cl, l_ce, lam=0.0)
        assert np.array_equal(total.values, l_cl.values)

    def test_lam_one_is_classification_bitwise(self):
        l_cl, l_ce = ad.constant(0.7321), ad.constant(1.25)
        total = combined_loss(l_cl, l_ce, lam=1.0)
        assert np.array_equal(total.values, l_ce.values)

    @pytest.mark.parametrize("lam", [-0.1, 1.1, 2.0])
    def test_out_of_range_lam_rejected(self, lam):
        with pytest.raises(ValueError, match="loss weight"):
            combined_loss(ad.constant(1.0), ad.constant(1.0), lam)

    def test_gradient_is_convex_combination(self):
        # route A: backward through the combined scalar
        # route B: (1 - lam) * grad(l_cl) + lam * grad(l_ce), run separately
        rng = np.random.default_rng(4)
        lam = 0.3
        base_sims, valid, positive = padded((rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5, size=4)))
        base_logits = rng.normal(size=(3, 2))

        def build():
            return ad.param(base_sims.values.copy()), ad.param(base_logits.copy())

        def losses(sims, logits):
            l_cl = contrastive_loss(sims, valid, positive, tau=0.2)
            l_ce = classification_loss(logits, [0, 1, 0])
            return l_cl, l_ce

        def grad_or_zero(t):
            return t.grad.copy() if t.grad is not None else np.zeros_like(t.values)

        sims, logits = build()
        with ad.Tape() as tape:
            l_cl, l_ce = losses(sims, logits)
            total = combined_loss(l_cl, l_ce, lam)
        tape.backward(total)
        combined_grads = [grad_or_zero(sims), grad_or_zero(logits)]

        sims, logits = build()
        with ad.Tape() as tape:
            l_cl, _ = losses(sims, logits)
        tape.backward(l_cl)
        cl_grads = [grad_or_zero(sims), grad_or_zero(logits)]

        sims, logits = build()
        with ad.Tape() as tape:
            _, l_ce = losses(sims, logits)
        tape.backward(l_ce)
        ce_grads = [grad_or_zero(sims), grad_or_zero(logits)]

        for got, g_cl, g_ce in zip(combined_grads, cl_grads, ce_grads):
            np.testing.assert_allclose(got, (1 - lam) * g_cl + lam * g_ce, atol=1e-12)


def cos(a, b):
    # plain python cosine with the engine's clamped norms
    na = max(math.sqrt(math.fsum(x * x for x in a)), 1e-8)
    nb = max(math.sqrt(math.fsum(x * x for x in b)), 1e-8)
    return math.fsum(x * y for x, y in zip(a, b)) / (na * nb)


def naive_scl(feats, labels, tau):
    # full double-loop reference with its own cosine
    b = len(feats)
    per_anchor = []
    for i in range(b):
        others = [j for j in range(b) if j != i]
        positives = [p for p in others if labels[p] == labels[i]]
        if not positives:
            continue
        logits = [cos(feats[i], feats[j]) / tau for j in others]
        m = max(logits)
        z = math.fsum(math.exp(l - m) for l in logits)
        terms = [-(logits[others.index(p)] - m - math.log(z)) for p in positives]
        per_anchor.append(math.fsum(terms) / len(positives))
    return math.fsum(per_anchor) / len(per_anchor) if per_anchor else 0.0


class TestSclLoss:
    def test_identical_pair_same_label_is_zero(self):
        feats = ad.param(np.array([[1.0, 2.0], [1.0, 2.0]]))
        loss = scl_loss(feats, [1, 1], tau=0.5)
        np.testing.assert_allclose(loss.values, 0.0, atol=1e-12)

    def test_orthogonal_two_per_class_gives_log_three(self):
        feats = ad.param(np.eye(4))
        loss = scl_loss(feats, [0, 0, 1, 1], tau=1.0)
        np.testing.assert_allclose(loss.values, LN3, atol=1e-12)

    def test_no_partnered_anchor_scores_zero(self):
        feats = ad.param(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss = scl_loss(feats, [0, 1], tau=1.0)
        assert loss.values == 0.0 and not loss.requires_grad

    def test_every_anchor_alone_in_its_class_is_exact_zero(self):
        feats = ad.param(np.random.default_rng(7).normal(size=(4, 3)))
        with ad.Tape() as tape:
            loss = scl_loss(feats, [0, 1, 2, 3], tau=0.5)
        assert loss.values == 0.0 and not loss.requires_grad
        assert len(tape) == 0 and feats.grad is None

    def test_zero_norm_row_stays_finite(self):
        rng = np.random.default_rng(8)
        labels = [0, 1, 0, 1, 0]
        # the last feature row is exactly zero, so its norm sits on the clamp
        append_zero_row = ad.constant(np.vstack([np.eye(4), np.zeros((1, 4))]))
        rows = ad.param(rng.normal(size=(4, 3)))
        feats = ad.param(np.vstack([rows.values, np.zeros((1, 3))]))
        with ad.Tape() as tape:
            loss = scl_loss(feats, labels, tau=0.5)
            tape.backward(loss)
        assert np.isfinite(loss.values) and np.isfinite(feats.grad).all()
        np.testing.assert_allclose(
            loss.values, naive_scl(feats.values.tolist(), labels, 0.5), atol=1e-10
        )
        # finite differences move only the rows away from the clamp
        report = grad_check(
            lambda r: scl_loss(ad.matmul(append_zero_row, r), labels, tau=0.5), [rows]
        )
        assert report.passed, str(report)

    def test_matches_double_loop_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = 6
            feats = rng.normal(size=(b, 5))
            labels = rng.integers(0, 2, size=b)
            got = scl_loss(ad.param(feats.copy()), labels, tau=0.3).values
            want = naive_scl(feats.tolist(), labels.tolist(), 0.3)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            scl_loss(ad.param(np.ones((1, 3))), [0], tau=1.0)

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels shape"):
            scl_loss(ad.param(np.ones((3, 2))), [0, 1], tau=1.0)

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            scl_loss(ad.param(np.ones((2, 2))), [0, 0], tau=-1.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        feats = ad.param(rng.normal(size=(5, 4)))
        report = grad_check(lambda t: scl_loss(t, [0, 1, 0, 1, 1], tau=0.5), [feats])
        assert report.passed, str(report)


def hand_batch(selections, snapshot, rng):
    """A HardNegativeBatch whose anchor i selected the snapshot rows
    ``selections[i]``, in that rank order, padded to the widest selection."""
    width = max(len(sel) for sel in selections)
    indices = np.full((len(selections), width), -1, dtype=np.int64)
    for i, sel in enumerate(selections):
        indices[i, : len(sel)] = sel
    valid = indices >= 0
    return HardNegativeBatch(
        queue_indices=indices,
        scores=np.where(valid, rng.uniform(size=indices.shape), 0.0),
        valid=valid,
        snapshot_features=snapshot,
        cosine=rng.uniform(-1, 1, size=(len(selections), snapshot.shape[0])),
    )


class TestLahnLoss:
    # anchors with 0, 1 and 3 negatives; anchor 2 ranks rows out of index
    # order and takes the last snapshot row; row 1 is shared by anchors 1 and 2
    SELECTIONS = [[], [1], [4, 1, 3]]

    def test_mixed_selections_match_the_per_anchor_route(self):
        rng = np.random.default_rng(12)
        feats, x_aug, snapshot = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        negs = hand_batch(self.SELECTIONS, snapshot, rng)
        for tau in (0.05, 0.5):
            got = lahn_loss(ad.param(feats.copy()), x_aug, negs, tau).values
            per_anchor = [
                naive_contrastive(cos(f, pos), [cos(f, snapshot[j]) for j in sel], tau)
                for f, pos, sel in zip(feats, x_aug, self.SELECTIONS)
            ]
            np.testing.assert_allclose(got, math.fsum(per_anchor) / len(per_anchor), rtol=1e-12, atol=1e-12)

    def test_no_selection_scores_exactly_zero(self):
        rng = np.random.default_rng(14)
        negs = hand_batch([[], [], []], rng.normal(size=(5, 4)), rng)
        assert negs.queue_indices.shape == (3, 0)
        loss = lahn_loss(ad.param(rng.normal(size=(3, 4))), rng.normal(size=(3, 4)), negs, tau=0.05)
        assert loss.values == 0.0
