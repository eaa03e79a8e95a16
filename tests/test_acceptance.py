"""Acceptance gate: eight end-to-end checks, one printed PASS/FAIL line each.

Every check here is self-contained and uses an independent verification route
(finite differences, exhaustive sorts, hand arithmetic, byte comparison)
rather than the library's own code path where that would be circular. Budgets
are asserted where a check is time-bounded.
"""

import json
import math
import time
from statistics import median

import numpy as np
import pytest

from gradcheck import GradCheckReport, grad_check, reshape
from lahn import autodiff as ad
from lahn import cli
from lahn.data import Batch, encode_examples, generate_confound_corpus
from lahn.encoder import EncoderDims, clone_params, forward, init_params
from lahn.metrics import confound_probe, evaluate
from lahn.momentum import MomentumQueue
from lahn.objectives import classification_loss, combined_loss, contrastive_loss, scl_loss
from lahn.sampler import Strategy, sample_for_batch
from lahn.trainer import TrainConfig, init_state, run_training, train_step


def _report(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{tail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _scalar_sum(t: ad.Tensor) -> ad.Tensor:
    flat = reshape(t, (1, int(np.prod(t.values.shape))))
    ones = ad.constant(np.ones((flat.values.shape[1], 1)))
    return reshape(ad.matmul(flat, ones), ())


def _one_hot_ce(logits: ad.Tensor, targets) -> ad.Tensor:
    """Batch-mean softmax-CE against integer targets through the masked kernel."""
    n, c = logits.shape
    weights = np.zeros((n, c))
    weights[np.arange(n), targets] = 1.0 / n
    return ad.masked_softmax_cross_entropy(logits, np.ones((n, c), dtype=bool), weights)


def _cosine_blocks(x: ad.Tensor, blocks) -> ad.Tensor:
    """Each row of ``x`` [B x d] against its own block [B x m x d] -> [B x m],
    through ad.cosine: row b of cosine(x, block b), placed by one-hot matmuls."""
    eye = np.eye(x.shape[0])
    out = None
    for b, block in enumerate(np.asarray(blocks, dtype=np.float64)):
        row = ad.matmul(ad.constant(eye[b : b + 1]), ad.cosine(x, ad.constant(block)))
        placed = ad.matmul(ad.constant(eye[:, b : b + 1]), row)
        out = placed if out is None else ad.add(out, placed)
    return out


def _contrastive(sims: ad.Tensor, valid, tau: float) -> ad.Tensor:
    """contrastive_loss over padded rows whose column 0 is each anchor's
    positive."""
    valid = np.asarray(valid, dtype=bool)
    positive = np.zeros_like(valid)
    positive[:, 0] = True
    return contrastive_loss(sims, valid, positive, tau=tau)


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------


def _per_op_checks(seed: int) -> list[GradCheckReport]:
    rng = np.random.default_rng(seed)
    reports = []

    def chk(f, *inputs, h=1e-5):
        reports.append(grad_check(f, list(inputs), h=h, tol=1e-4))

    a = ad.param(rng.normal(size=(3, 4)))
    b = ad.param(rng.normal(size=(4, 2)))
    chk(lambda x, y: _scalar_sum(ad.matmul(x, y)), a, b)

    table = ad.param(rng.normal(size=(6, 3)))
    ids = rng.integers(0, 6, size=(2, 5))  # repeats exercise accumulation
    chk(lambda t: _scalar_sum(ad.embed_mean_pool(t, ids, np.ones((2, 5), bool))), table)

    seq_table = ad.param(rng.normal(size=(5, 3)))
    seq_ids = rng.integers(0, 5, size=(2, 5))
    mask = np.array([[True, True, False, True, False], [True, False, False, False, False]])
    chk(lambda t: _one_hot_ce(ad.embed_mean_pool(t, seq_ids, mask), [1, 2]), seq_table)

    feats = ad.param(rng.normal(size=(3, 4)))
    chk(lambda t: _one_hot_ce(ad.cosine(t, t), [2, 0, 1]), feats)

    anchors = ad.param(rng.normal(size=(3, 4)))
    blocks = rng.normal(size=(3, 5, 4))
    chk(lambda t: _scalar_sum(_cosine_blocks(t, blocks)), anchors)

    # the padded contrastive loss: row 1 has no negatives, row 2 one
    padded = ad.param(rng.normal(size=(3, 4)))
    pad_blocks = rng.normal(size=(3, 3, 4))
    pad_valid = np.array([[True, True, True], [True, False, False], [True, True, False]])
    chk(lambda t: _contrastive(_cosine_blocks(t, pad_blocks), pad_valid, tau=0.5), padded)
    v = ad.param(rng.normal(size=4))
    chk(lambda x: _scalar_sum(reshape(x, (2, 2))), v)

    p = ad.param(rng.normal(size=4))
    q = ad.param(rng.normal(size=4))
    chk(lambda x, y: _scalar_sum(ad.add(x, y)), p, q)
    grid = ad.param(rng.normal(size=(3, 4)))
    valid = np.array([[True, False, True, True], [True, True, True, True], [False, True, False, False]])
    weights = np.where(valid, rng.uniform(0.1, 1.0, size=(3, 4)), 0.0)
    chk(lambda t: ad.masked_softmax_cross_entropy(t, valid, weights), grid)
    chk(lambda x: _scalar_sum(ad.scale(x, -1.7)), p)
    # a zero-norm anchor row sits on the norm clamp, where the cosine is
    # linear in it; a step below the clamp (1e-8) stays on that branch
    others = np.vstack([np.zeros(4), rng.normal(size=(2, 4))])
    first_row = ad.constant(np.eye(3)[:, :1])
    zero_row = ad.param(np.zeros((1, 4)))
    zero_blocks = rng.normal(size=(3, 2, 4))

    def zero_row_blocks(z):
        x = ad.add(ad.constant(others), ad.matmul(first_row, z))
        return _scalar_sum(_cosine_blocks(x, zero_blocks))

    chk(zero_row_blocks, zero_row, h=1e-10)

    mat = ad.param(rng.normal(size=(3, 4)))
    bias = ad.param(rng.normal(size=4))
    chk(lambda x, y: _scalar_sum(ad.add_rows(x, y)), mat, bias)

    # keep relu inputs away from its kink
    x = ad.param(np.sign(rng.normal(size=6)) * rng.uniform(0.1, 1.5, size=6))
    chk(lambda t: _scalar_sum(ad.relu(t)), x)
    y = ad.param(rng.normal(size=6))
    chk(lambda t: _scalar_sum(ad.gelu(t)), y)

    z = ad.param(rng.normal(size=8))
    chk(lambda t: _scalar_sum(
        ad.dropout(t, 0.25, training=True, rng=np.random.Generator(np.random.PCG64(seed)))
    ), z)

    c1 = ad.param(rng.normal(size=(2, 5)) + 0.1)
    pair_blocks = rng.normal(size=(2, 2, 5)) + 0.1
    chk(lambda x: _one_hot_ce(_cosine_blocks(x, pair_blocks), [1, 0]), c1)
    rows_const = rng.normal(size=(2, 4, 5))
    rows_const[1, 2] = 0.0  # a zero-norm block row: its cosine is 0 whatever the anchor
    chk(lambda x: _scalar_sum(_cosine_blocks(x, rows_const)), c1)

    logits = ad.param(rng.normal(size=(4, 2)))
    labels = rng.integers(0, 2, size=4)
    chk(lambda t: _one_hot_ce(t, labels), logits)
    return reports


def _end_to_end_check(seed: int) -> GradCheckReport:
    """Full combined-loss graph: encoder forward with dropout, cosine
    similarities to frozen positives and padded frozen selected negatives,
    temperature-scaled contrastive term, classification term, mix at 0.1."""
    rng = np.random.default_rng(seed)
    dims = EncoderDims(vocab_size=12, d_emb=4, hidden=5, d_feat=4, dropout=0.2)
    params = init_params(seed, dims)
    B, L = 4, 6
    ids = rng.integers(2, 12, size=(B, L))
    ids[:, L - 2 :] = 0  # padded tail
    batch = Batch(token_ids=ids, mask=ids != 0, labels=rng.integers(0, 2, size=B))
    x_aug = rng.normal(size=(B, 4))  # frozen positives
    negs = [rng.normal(size=(3, 4)) for _ in range(B)]  # frozen selected negatives
    # each anchor's block: its positive, then its negatives padded to 3;
    # anchor 1 keeps one negative, anchor 2 none
    blocks = np.concatenate([x_aug[:, None, :], np.stack(negs)], axis=1)
    valid = np.ones((B, 4), dtype=bool)
    valid[1, 2:] = valid[2, 1:] = False

    def f(*_):
        drop_rng = np.random.Generator(np.random.PCG64(seed + 999))
        out = forward(params, batch, training=True, rng=drop_rng)
        # tau=0.2 keeps softmax curvature inside what h=1e-5 central
        # differences can resolve; sharper temperatures drown the check in
        # truncation error rather than exposing backward-rule bugs
        l_cl = _contrastive(_cosine_blocks(out.feature, blocks), valid, tau=0.2)
        l_ce = classification_loss(out.logits, batch.labels)
        return combined_loss(l_cl, l_ce, lam=0.1)

    inputs = [t for _, t in params.named()]
    return grad_check(f, inputs, h=1e-5, tol=1e-3)


def test_criterion_1_gradient_suite(capsys):
    t0 = time.perf_counter()
    worst_op, worst_e2e, n_checks = 0.0, 0.0, 0
    ok = True
    for seed in range(20):
        for rep in _per_op_checks(seed):
            n_checks += 1
            ok = ok and rep.passed
            worst_op = max(worst_op, rep.max_rel_error)
        rep = _end_to_end_check(seed)
        n_checks += 1
        ok = ok and rep.passed
        worst_e2e = max(worst_e2e, rep.max_rel_error)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(
        capsys, 1, "gradient suite", ok,
        f"{n_checks} checks over 20 seeds, worst per-op rel err {worst_op:.2e} (tol 1e-4), "
        f"worst end-to-end {worst_e2e:.2e} (tol 1e-3), {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# 2. sampling equals exhaustive brute force
# ---------------------------------------------------------------------------


def _naive_cos(a, b):
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = max(math.sqrt(math.fsum(x * x for x in a)), 1e-8)
    nb = max(math.sqrt(math.fsum(y * y for y in b)), 1e-8)
    return dot / (na * nb)


def test_criterion_2_sampling_matches_brute_force(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    d = 6
    params = init_params(0, EncoderDims(vocab_size=8, d_emb=4, hidden=4, d_feat=d))
    strategies = (Strategy.SIM_ONLY, Strategy.LABEL_SIM_WEIGHT, Strategy.ALL_QUEUE)
    n_ties = 0
    for i in range(1000):
        S = int(rng.integers(1, 257))
        k = int(rng.integers(1, 33))
        strategy = strategies[i % 3]
        # quantized components plus duplicated rows force exact score ties
        feats = rng.integers(-2, 3, size=(S, d)).astype(np.float64)
        if S >= 4:
            n_dup = int(rng.integers(2, min(8, S) + 1))
            feats[rng.choice(S, size=n_dup, replace=False)] = feats[int(rng.integers(S))]
        labels = rng.integers(0, 2, size=S)
        anchor = rng.integers(-2, 3, size=d).astype(np.float64)
        anchor_label = int(rng.integers(0, 2))

        queue = MomentumQueue(S, d)
        queue.enqueue_batch(feats, labels)
        snap = queue.snapshot()
        got = sample_for_batch(
            anchor[None, :], np.array([anchor_label]), snap, params, strategy, k
        )[0]

        # independent filter route
        if strategy is Strategy.ALL_QUEUE:
            cand = list(range(S))
        else:
            cand = [j for j in range(S) if labels[j] != anchor_label]
        # independent scoring route: pure-python cosines (exact dot products
        # and correctly rounded norms on these integer rows), times per-row
        # softmax probabilities under weighting
        scores = [_naive_cos(anchor, snap.features[j]) for j in cand]
        if strategy is Strategy.LABEL_SIM_WEIGHT:
            head = snap.features[cand] @ params.wh.values + params.bh.values
            for row_i, (l0, l1) in enumerate(head):
                m = max(l0, l1)
                e0, e1 = math.exp(l0 - m), math.exp(l1 - m)
                scores[row_i] *= (e1 if anchor_label == 1 else e0) / (e0 + e1)
        # independent selection route: exhaustive full sort over the scored pool
        n_ties += len(scores) - len(set(scores))
        order = sorted(range(len(cand)), key=lambda j: (-scores[j], cand[j]))
        k_eff = len(cand) if strategy is Strategy.ALL_QUEUE else k
        expected = [cand[j] for j in order[:k_eff]]

        assert got.queue_indices.tolist() == expected, f"instance {i}"
        np.testing.assert_array_equal(got.features, snap.features[expected])
        # score arithmetic against a from-scratch recomputation
        for rank, j in enumerate(expected[: min(4, len(expected))]):
            s = _naive_cos(anchor, snap.features[j])
            if strategy is Strategy.LABEL_SIM_WEIGHT:
                h = [
                    math.fsum(snap.features[j][t] * params.wh.values[t, c] for t in range(d))
                    + params.bh.values[c]
                    for c in (0, 1)
                ]
                m = max(h)
                e0, e1 = math.exp(h[0] - m), math.exp(h[1] - m)
                s *= (e1 if anchor_label == 1 else e0) / (e0 + e1)
            assert abs(got.scores[rank] - s) < 1e-9
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 2, "sampling equals exhaustive sort", elapsed < 30.0,
        f"1000 instances (S<=256, k in 1..32), {n_ties} tied scores exercised, "
        f"{elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# 3. loss hand cases
# ---------------------------------------------------------------------------


def test_criterion_3_loss_hand_cases(capsys):
    checks = []

    def close(got, want, tol):
        checks.append(abs(float(got) - want) <= tol)

    # contrastive: uniform row -> ln 3; separated pair -> ~0; empty -> exactly 0,
    # and an empty anchor padded next to the uniform one still halves the mean
    close(_contrastive(ad.constant([[0.5, 0.5, 0.5]]), [[True] * 3], tau=1.0).values, 1.098612, 1e-6)
    close(_contrastive(ad.constant([[1.0, -1.0]]), [[True, True]], tau=0.05).values, 0.0, 1e-6)
    checks.append(_contrastive(ad.constant([[0.9, 0.4]]), [[True, False]], tau=1.0).values == 0.0)
    mixed = _contrastive(
        ad.constant([[0.5, 0.5, 0.5], [0.9, 0.4, 0.0]]), [[True] * 3, [True, False, False]], tau=1.0
    )
    close(mixed.values, 1.098612 / 2.0, 1e-6)

    # classification: uniform logits -> ln 2; two-row mean by hand
    close(classification_loss(ad.constant(np.zeros((1, 2))), [1]).values, 0.693147, 1e-6)
    two_row = classification_loss(
        ad.constant(np.array([[0.0, 0.0], [math.log(3.0), 0.0]])), [0, 0]
    ).values
    close(two_row, (math.log(2.0) + math.log(4.0 / 3.0)) / 2.0, 1e-6)

    # in-batch baseline: orthogonal two-per-class -> ln 3
    close(scl_loss(ad.constant(np.eye(4)), [0, 0, 1, 1], tau=1.0).values, 1.098612, 1e-6)

    # convex mix at weight 0.1, checked to 1e-12 against direct arithmetic
    l_cl, l_ce = 1.0986122886681098, 0.6931471805599453
    got = combined_loss(ad.constant(l_cl), ad.constant(l_ce), lam=0.1).values
    close(got, 0.9 * l_cl + 0.1 * l_ce, 1e-12)

    _report(capsys, 3, "loss hand cases", all(checks), f"{len(checks)} pinned values")


# ---------------------------------------------------------------------------
# 4. mechanism invariants: EMA, FIFO, warmup gate
# ---------------------------------------------------------------------------


def test_criterion_4_mechanism_invariants(capsys):
    notes = []
    ok = True

    # EMA at m=0.999: momentum params equal the exact recomputation, bitwise
    train, val, _ = generate_confound_corpus(24, 0.5, seed=11)
    cfg = TrainConfig.from_dict(dict(
        objective="lahn", m=0.999, q=16, k=4, tau=0.2, batch_size=4, epochs=1,
        seed=0, max_len=16, d_emb=8, hidden=8, d_feat=8, min_freq=1,
    ))
    from lahn.data import build_vocab, make_batches

    vocab = build_vocab((e.text for e in train), cfg.min_freq, cfg.max_vocab)
    enc = encode_examples(train, vocab, cfg.max_len)
    state = init_state(cfg, len(vocab))
    before = clone_params(state.momentum)
    train_step(state, make_batches(enc, cfg.batch_size, 0)[0], cfg)
    for (name, mom), (_, prev), (_, cur) in zip(
        state.momentum.named(), before.named(), state.params.named()
    ):
        expected = prev.values.copy()
        expected *= 0.999
        expected += (1.0 - 0.999) * cur.values
        ok = ok and np.array_equal(mom.values, expected)
    notes.append("EMA m=0.999 exact")

    # FIFO eviction at q in {64, 512, 1024}: survivors are exactly the newest q
    rng = np.random.default_rng(12)
    for q in (64, 512, 1024):
        queue = MomentumQueue(q, 4)
        all_feats, all_labels = [], []
        while len(all_feats) < 3 * q:
            n = int(rng.integers(1, 48))
            f = rng.normal(size=(n, 4))
            l = rng.integers(0, 2, size=n)
            queue.enqueue_batch(f, l)
            all_feats.extend(f)
            all_labels.extend(l)
        snap = queue.snapshot()
        total = len(all_feats)
        ok = ok and snap.size == q
        ok = ok and np.array_equal(snap.entry_ids, np.arange(total - q, total))
        ok = ok and np.array_equal(snap.features, np.asarray(all_feats[total - q :]))
        ok = ok and np.array_equal(snap.labels, np.asarray(all_labels[total - q :]))
    notes.append("FIFO q=64/512/1024")

    # warmup gate: every logged step below quarter fill has l_cl == 0 exactly
    train2, val2, _ = generate_confound_corpus(100, 0.5, seed=13)
    cfg2 = TrainConfig(objective="lahn", q=512, k=16, epochs=2, seed=0)
    result = run_training(cfg2, train2, val2)
    steps = [r for r in result.records if "step" in r]
    warm = [r for r in steps if r["queue_fill"] < 0.25]
    active = [r for r in steps if r["queue_fill"] >= 0.25]
    ok = ok and warm and active and all(r["l_cl"] == 0.0 for r in warm)
    ok = ok and any(r["l_cl"] != 0.0 for r in active)
    notes.append(f"warmup gate over {len(warm)} warm / {len(active)} active steps")

    _report(capsys, 4, "mechanism invariants", bool(ok), "; ".join(notes))


# ---------------------------------------------------------------------------
# 5. convergence sanity
# ---------------------------------------------------------------------------


def test_criterion_5_convergence_sanity(capsys):
    train, val, _ = generate_confound_corpus(1000, 0.0, seed=0)
    details, ok = [], True
    for objective in ("ce", "lahn"):
        cfg = TrainConfig(objective=objective, epochs=10, seed=0)
        t0 = time.perf_counter()
        result = run_training(cfg, train, val)
        elapsed = time.perf_counter() - t0
        accs = [r["val_accuracy"] for r in result.records if "epoch" in r]
        hit = next((i + 1 for i, a in enumerate(accs) if a >= 0.95), None)
        ok = ok and hit is not None and elapsed < 120.0
        details.append(f"{objective}: acc {max(accs):.3f} by epoch {hit}, {elapsed:.0f}s < 120s")
    _report(capsys, 5, "convergence sanity (2000 train / 500 val)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. hard-negative behavioral effect
# ---------------------------------------------------------------------------


def test_criterion_6_behavioral_effect(capsys):
    # confounded training data (every hateful example carries an identity
    # subject, no clean one does), balanced test; medians over 7 seeds
    train, val, test = generate_confound_corpus(150, 1.0, seed=0)
    medians = {}
    for objective in ("ce", "lahn"):
        f1s, fprs = [], []
        for seed in range(7):
            cfg = TrainConfig(
                objective=objective, strategy="simweight", q=256, k=16, tau=0.05,
                epochs=8, seed=seed,
            )
            result = run_training(cfg, train, val)
            test_enc = encode_examples(test, result.vocab, cfg.max_len)
            f1s.append(evaluate(result.best_params, test_enc).macro_f1)
            fprs.append(confound_probe(result.best_params, test_enc)["identity_fpr"])
        medians[objective] = (median(f1s), median(fprs))
    ce_f1, ce_fpr = medians["ce"]
    la_f1, la_fpr = medians["lahn"]
    f1_dir = la_f1 >= ce_f1
    fpr_dir = la_fpr <= ce_fpr
    detail = (
        f"median test macro-F1: lahn {la_f1:.4f} vs ce {ce_f1:.4f} -> {'>=' if f1_dir else '<'}; "
        f"median identity FPR: lahn {la_fpr:.4f} vs ce {ce_fpr:.4f} -> {'<=' if fpr_dir else '>'}"
    )
    _report(capsys, 6, "hard-negative behavioral effect (7 seeds)", f1_dir and fpr_dir, detail)


# ---------------------------------------------------------------------------
# 7. strategy distinguishability
# ---------------------------------------------------------------------------


def test_criterion_7_strategy_distinguishability(capsys):
    ok = True
    # (a) a same-label near-duplicate of the anchor outranks every true
    # negative by similarity: AllQueue must pick it, the filtering strategies never
    d = 4
    anchor = np.array([1.0, 0.0, 0.0, 0.0])
    feats = np.array(
        [
            [0.99, 0.1, 0.0, 0.0],  # same label, nearly the anchor itself
            [0.5, 0.5, 0.0, 0.0],
            [0.1, 0.9, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    )
    labels = np.array([1, 0, 0, 0])
    queue = MomentumQueue(8, d)
    queue.enqueue_batch(feats, labels)
    snap = queue.snapshot()
    params = init_params(0, EncoderDims(vocab_size=4, d_emb=2, hidden=2, d_feat=d))
    for strategy in (Strategy.ALL_QUEUE, Strategy.SIM_ONLY, Strategy.LABEL_SIM_WEIGHT):
        got = sample_for_batch(anchor[None], np.array([1]), snap, params, strategy, k=2)[0]
        picked = got.queue_indices.tolist()
        if strategy is Strategy.ALL_QUEUE:
            ok = ok and picked[0] == 0  # the lookalike tops the unfiltered ranking
        else:
            ok = ok and 0 not in picked and all(labels[j] == 0 for j in picked)

    # (b) probability weighting reorders the top: sims [0.9, 0.5] with anchor-
    # class probabilities [0.1, 0.9] -> products [0.09, 0.45] flip the ranking
    cand_feats = np.array([[0.9, math.sqrt(1 - 0.81), 0, 0], [0.5, math.sqrt(0.75), 0, 0]])
    queue = MomentumQueue(2, d)
    queue.enqueue_batch(cand_feats, np.array([0, 0]))
    snap = queue.snapshot()
    # a momentum head whose class-1 logit exceeds the class-0 one by -ln 9 on
    # row 0 and +ln 9 on row 1: anchor-class (1) probabilities 0.1 and 0.9
    head = clone_params(params)
    head.wh.values[:] = 0.0
    head.bh.values[:] = 0.0
    head.wh.values[:2, 1] = np.linalg.solve(cand_feats[:, :2], [-math.log(9.0), math.log(9.0)])
    sim = sample_for_batch(anchor[None], np.array([1]), snap, head, Strategy.SIM_ONLY, k=2)[0]
    weighted = sample_for_batch(anchor[None], np.array([1]), snap, head, Strategy.LABEL_SIM_WEIGHT, k=2)[0]
    ok = ok and sim.queue_indices[0] == 0 and weighted.queue_indices.tolist() == [1, 0]
    ok = ok and abs(weighted.scores[0] - 0.45) < 1e-12 and abs(weighted.scores[1] - 0.09) < 1e-12

    _report(
        capsys, 7, "strategy distinguishability", bool(ok),
        "lookalike excluded by filtering, kept by AllQueue; "
        "weighting flips [0.9x0.1, 0.5x0.9] to pick index 1 first",
    )


# ---------------------------------------------------------------------------
# 8. determinism
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(capsys, tmp_path):
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--n", "24", "--confound", "0.5", "--seed", "5", "--out", str(data)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(
        objective="lahn", strategy="simweight", tau=0.1, lam=0.1, m=0.99, q=32, k=8,
        batch_size=8, epochs=2, seed=9, max_len=16, d_emb=16, hidden=16, d_feat=16,
        min_freq=1,
    )))
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        rc = cli.main([
            "train", "--config", str(config),
            "--train", str(data / "train.jsonl"), "--val", str(data / "val.jsonl"),
            "--out", str(out),
        ])
        assert rc == 0
        outs.append(out)
    identical = {
        artifact: (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()
        for artifact in ("checkpoint_best.npz", "checkpoint_last.npz", "metrics.jsonl", "vocab.txt")
    }
    _report(
        capsys, 8, "bitwise determinism of repeated runs", all(identical.values()),
        ", ".join(f"{k}: {'identical' if v else 'DIFFERS'}" for k, v in identical.items()),
    )
