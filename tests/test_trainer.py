import dataclasses
import errno
import json
import math
import mmap
import os
import stat
import tracemalloc

import numpy as np
import pytest

from lahn import autodiff as ad
from lahn import blocks, metrics, sampler, trainer
from lahn.data import PAD_ID, Batch, EncodedSplit, encode_examples, generate_confound_corpus, make_batches
from lahn.encoder import FLAT_NAMES, EncoderDims, clone_params, init_params, load_checkpoint
from lahn.momentum import ema_update
from lahn.seeding import STREAM_DROPOUT_MAIN, STREAM_DROPOUT_MOMENTUM, STREAM_SHUFFLE, substream
from lahn.trainer import (
    WARMUP_FILL,
    NonFiniteLossError,
    TrainConfig,
    TrainState,
    adam_step,
    init_adam,
    init_state,
    run_ablation_grid,
    run_training,
    train_step,
)


def small_config(**overrides):
    base = dict(
        objective="lahn",
        strategy="simweight",
        tau=0.2,
        lam=0.1,
        m=0.99,
        q=16,
        k=4,
        lr=1e-3,
        batch_size=4,
        dropout=0.1,
        epochs=2,
        seed=0,
        max_len=16,
        d_emb=8,
        hidden=12,
        d_feat=8,
        min_freq=1,
        max_vocab=500,
    )
    base.update(overrides)
    return TrainConfig.from_dict(base)


def tiny_corpus(n_per_class=12, rate=0.5, seed=3):
    return generate_confound_corpus(n_per_class, rate, seed)


def first_batch(config, train):
    from lahn.data import build_vocab

    vocab = build_vocab((e.text for e in train), config.min_freq, config.max_vocab)
    enc = encode_examples(train, vocab, config.max_len)
    batches = make_batches(enc, config.batch_size, shuffle_seed=0)
    return vocab, enc, batches


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    def test_round_trip(self):
        cfg = small_config(tau=0.07, k=3)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ValueError, match="momentum_rate"):
            TrainConfig.from_dict({"momentum_rate": 0.9})

    @pytest.mark.parametrize(
        "bad",
        [
            {"objective": "mse"},
            {"strategy": "random"},
            {"tau": 0.0},
            {"lam": 1.5},
            {"m": -0.1},
            {"q": 4, "k": 8},
            {"k": 0},
            {"batch_size": 1},
            {"epochs": 0},
            {"lr": 0.0},
            {"dropout": 1.0},
            {"dropout": "x"},
            {"activation": ["gelu"]},
        ],
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            small_config(**bad)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -1.0])
    def test_tau_must_be_finite_positive(self, tau):
        with pytest.raises(ValueError, match="tau"):
            small_config(tau=tau)

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -1e-3])
    def test_lr_must_be_finite_positive(self, lr):
        with pytest.raises(ValueError, match="lr"):
            small_config(lr=lr)

    @pytest.mark.parametrize("beta1", [1.0, -0.1, math.nan, math.inf])
    def test_beta1_in_unit_interval(self, beta1):
        with pytest.raises(ValueError, match="beta1"):
            small_config(beta1=beta1)

    @pytest.mark.parametrize("beta2", [1.0, -0.1, math.nan, math.inf])
    def test_beta2_in_unit_interval(self, beta2):
        with pytest.raises(ValueError, match="beta2"):
            small_config(beta2=beta2)

    @pytest.mark.parametrize("eps", [-1.0, 0.0, math.nan, math.inf])
    def test_eps_must_be_finite_positive(self, eps):
        with pytest.raises(ValueError, match="eps"):
            small_config(eps=eps)

    @pytest.mark.parametrize("beta2", [0.999, 0.999999])
    def test_eps_must_not_underflow_in_adam(self, beta2):
        # Adam's first step uses eps * sqrt(1 - beta2), which rounds to 0 here
        with pytest.raises(ValueError, match="eps"):
            small_config(eps=5e-324, beta2=beta2)
        small_config(eps=1e-300, beta2=beta2)

    @pytest.mark.parametrize("q", [16.5, True, "16", 0])
    def test_q_must_be_a_positive_integer(self, q):
        with pytest.raises(ValueError, match="q"):
            small_config(q=q)

    @pytest.mark.parametrize("k", [2.5, True, 0, -1])
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(ValueError, match="k"):
            small_config(k=k)

    @pytest.mark.parametrize("batch_size", [4.0, True, 1])
    def test_batch_size_must_be_an_integer_of_two_or_more(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            small_config(batch_size=batch_size)

    @pytest.mark.parametrize("epochs", [True, 1.5, 0])
    def test_epochs_must_be_a_positive_integer(self, epochs):
        with pytest.raises(ValueError, match="epochs"):
            small_config(epochs=epochs)

    @pytest.mark.parametrize("seed", [False, 0.5, -1])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            small_config(seed=seed)

    @pytest.mark.parametrize("max_len", [0, 8.0, True])
    def test_max_len_must_be_a_positive_integer(self, max_len):
        with pytest.raises(ValueError, match="max_len"):
            small_config(max_len=max_len)

    @pytest.mark.parametrize("field", ["d_emb", "hidden", "d_feat"])
    @pytest.mark.parametrize("value", [0, -2, 4.0, True])
    def test_layer_widths_must_be_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize("min_freq", [-3, 0, 1.5, True])
    def test_min_freq_must_be_a_positive_integer(self, min_freq):
        with pytest.raises(ValueError, match="min_freq"):
            small_config(min_freq=min_freq)

    @pytest.mark.parametrize("max_vocab", [1, 100.0, True])
    def test_max_vocab_must_be_an_integer_of_two_or_more(self, max_vocab):
        with pytest.raises(ValueError, match="max_vocab"):
            small_config(max_vocab=max_vocab)

    @pytest.mark.parametrize("field", ["lam", "m", "dropout"])
    @pytest.mark.parametrize("value", [math.nan, "0.5", True, -0.5])
    def test_unit_interval_fields_reject_non_numbers_and_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})

    def test_activation_must_be_known(self):
        with pytest.raises(ValueError, match="activation"):
            small_config(activation="tanh")

    def test_numpy_integers_and_int_valued_reals_accepted(self):
        small_config(q=np.int64(16), k=np.int32(4), lr=1, tau=np.float64(0.2))

    def test_dims_carries_every_model_field(self):
        config = TrainConfig(d_emb=5, hidden=7, d_feat=3, dropout=0.25, activation="relu")
        assert config.dims(11) == EncoderDims(11, d_emb=5, hidden=7, d_feat=3, dropout=0.25, activation="relu")
        # every field differs from its default, so none is left at it
        defaults = EncoderDims(11)
        for f in dataclasses.fields(EncoderDims):
            if f.name != "vocab_size":
                assert getattr(config.dims(11), f.name) != getattr(defaults, f.name)


def small_params(seed=0):
    """EncoderParams with a 40 x 3 table and 32 floats in the flat group,
    every value drawn from N(0, 1)."""
    p = init_params(0, EncoderDims(vocab_size=40, d_emb=3, hidden=4, d_feat=2))
    rng = np.random.default_rng(seed)
    for _, t in p.named():
        t.values[...] = rng.normal(size=t.shape)
    return p


def bits(a):
    return a.view(np.uint64).copy()


def adam_reference(ref, m, r, grads, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam step in Kingma & Ba's folded order as plain per-tensor numpy
    expressions, in place of the dicts ``ref``, ``m`` and ``r`` (the root of
    the second moment); a RowGrad is densified, None is zeros."""
    root_bc2 = math.sqrt(1.0 - b2**t)
    alpha = lr * root_bc2 / (1.0 - b1**t)
    eps_hat = eps * root_bc2
    for k, g in grads.items():
        if isinstance(g, ad.RowGrad):
            g = g.dense(ref[k].shape)
        elif g is None:
            g = np.zeros(ref[k].shape)
        m[k] = m[k] * b1 + (1.0 - b1) * g
        w = r[k] * math.sqrt(b2)
        r[k] = np.sqrt(w * w + (1.0 - b2) * g * g)
        ref[k] -= m[k] / (r[k] + eps_hat) * alpha


def assert_adam_bits(p, state, ref, m, r):
    for k, tensor in p.named():
        for got, want in ((tensor.values, ref[k]), (state.m[k], m[k]), (state.r[k], r[k])):
            np.testing.assert_array_equal(bits(got), bits(want), err_msg=k)


class TestAdam:
    def test_first_step_hand_case(self):
        # g=1, t=1: m_hat = v_hat = 1 exactly, so the step is -lr / (1 + eps)
        p = small_params()
        for _, t in p.named():
            t.values[...] = 0.0
        state = init_adam(p)
        adam_step(p, {n: np.ones(t.shape) for n, t in p.named()}, state, lr=1e-3)
        expected = -1e-3 * (1.0 / (1.0 + 1e-8))
        for _, t in p.named():
            np.testing.assert_allclose(t.values, expected, atol=1e-18)
        assert state.t == 1

    def test_zero_gradient_is_identity(self):
        p = small_params()
        before = [t.values.copy() for _, t in p.named()]
        state = init_adam(p)
        adam_step(p, {n: np.zeros(t.shape) for n, t in p.named()}, state, lr=0.5)
        for (_, t), want in zip(p.named(), before):
            np.testing.assert_array_equal(t.values, want)

    def test_twenty_steps_match_scalar_reference(self):
        # independent route: plain-python Adam over each coordinate of every
        # parameter
        rng = np.random.default_rng(0)
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        p = small_params(1)
        state = init_adam(p)
        ref = np.concatenate([t.values.ravel() for _, t in p.named()]).tolist()
        n = len(ref)
        m = [0.0] * n
        v = [0.0] * n
        for t in range(1, 21):
            grads = {k: rng.normal(size=tensor.shape) for k, tensor in p.named()}
            adam_step(p, grads, state, lr=lr, beta1=b1, beta2=b2, eps=eps)
            g = np.concatenate([a.ravel() for a in grads.values()])
            for i in range(n):
                m[i] = b1 * m[i] + (1 - b1) * g[i]
                v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i]
                mh = m[i] / (1 - b1**t)
                vh = v[i] / (1 - b2**t)
                ref[i] -= lr * mh / (math.sqrt(vh) + eps)
        got = np.concatenate([t.values.ravel() for _, t in p.named()])
        np.testing.assert_allclose(got, ref, atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e-8])
    def test_two_thousand_steps_match_textbook_adam(self, scale):
        # plain-python textbook Adam, bias corrections applied to m and v,
        # over a 34-coordinate model; at gradient scale 1e-8 sqrt(v_hat) is
        # about eps, and over 2000 steps 1 - beta1^t and 1 - beta2^t both
        # sweep from their first-step values to near 1
        rng = np.random.default_rng(4)
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        p = init_params(0, EncoderDims(vocab_size=8, d_emb=2, hidden=2, d_feat=2))
        state = init_adam(p)
        ref = np.concatenate([t.values.ravel() for _, t in p.named()]).tolist()
        n = len(ref)
        m = [0.0] * n
        v = [0.0] * n
        for t in range(1, 2001):
            grads = {k: scale * rng.normal(size=tensor.shape) for k, tensor in p.named()}
            adam_step(p, grads, state, lr=lr, beta1=b1, beta2=b2, eps=eps)
            g = np.concatenate([a.ravel() for a in grads.values()]).tolist()
            for i in range(n):
                m[i] = b1 * m[i] + (1 - b1) * g[i]
                v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i]
                ref[i] -= lr * (m[i] / (1 - b1**t)) / (math.sqrt(v[i] / (1 - b2**t)) + eps)
        got = np.concatenate([t.values.ravel() for _, t in p.named()])
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
        r = np.concatenate([state.r[k].ravel() for k, _ in p.named()])
        np.testing.assert_allclose(r**2, v, rtol=1e-12)

    @pytest.mark.parametrize("b2", [0.999, 0.999999])
    def test_eps_that_underflows_is_rejected_before_any_write(self, b2):
        # eps * sqrt(1 - b2) rounds to 0, so an untouched coordinate would
        # compute 0 / 0
        p = small_params()
        state = init_adam(p)
        before = [bits(t.values) for _, t in p.named()]
        grads = {n: None for n, _ in p.named()}
        with pytest.raises(ValueError, match="eps"):
            adam_step(p, grads, state, lr=1e-3, beta2=b2, eps=5e-324)
        assert state.t == 0
        for (_, t), want in zip(p.named(), before):
            np.testing.assert_array_equal(bits(t.values), want)

    def test_fifty_steps_bitwise_equal_to_expression(self, monkeypatch):
        # the in-place update against the one-expression form it replaces,
        # at blocks of 16 elements (emb spans 8 blocks of 5 rows, flat 2
        # blocks) and of 2 (each of emb's 3-wide rows is a block of its
        # own); "b2" always gets a zero gradient
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        for block in (16, 2):
            monkeypatch.setattr(blocks, "BLOCK", block)
            rng = np.random.default_rng(1)
            p = small_params(2)
            state = init_adam(p)
            ref = {k: t.values.copy() for k, t in p.named()}
            m = {k: np.zeros(t.shape) for k, t in p.named()}
            r = {k: np.zeros(t.shape) for k, t in p.named()}
            for t in range(1, 51):
                grads = {k: rng.normal(size=tensor.shape) for k, tensor in p.named()}
                grads["b2"] = np.zeros(p.b2.shape)
                adam_step(p, grads, state, lr=lr, beta1=b1, beta2=b2, eps=eps)
                adam_reference(ref, m, r, grads, t, lr, b1, b2, eps)
            assert_adam_bits(p, state, ref, m, r)

    def test_nonfinite_gradient_names_parameter(self):
        p = small_params()
        grads = {n: np.ones(t.shape) for n, t in p.named()}
        grads["emb"][5, 1] = np.nan
        with pytest.raises(ValueError, match="'emb'"):
            adam_step(p, grads, init_adam(p), lr=1e-3)

    @pytest.mark.parametrize("b1", [0.9, 0.3])
    def test_row_grad_fifty_steps_bitwise_equal_to_dense_expression(self, b1):
        # rows 0-29 are touched on some steps and not on others, rows 30-39
        # never; preset m entries of -0.0 and of the least negative subnormal
        # (which b1 = 0.3 rounds to -0.0) must turn +0.0 as the dense form
        # does. At gradient scale 1e-150 r is near 1e-151, still above the
        # 2^-511 floor where squaring it would lose bits
        lr, b2, eps = 3e-3, 0.999, 1e-8
        for scale in (1.0, 1e-150):
            rng = np.random.default_rng(2)
            p = small_params(3)
            state = init_adam(p)
            state.m["emb"][:, 0] = -0.0
            state.m["emb"][:, 1] = -5e-324
            ref = {k: t.values.copy() for k, t in p.named()}
            m = {k: state.m[k].copy() for k in ref}
            r = {k: state.r[k].copy() for k in ref}
            for t in range(1, 51):
                rows = np.flatnonzero(rng.random(30) < 0.3)
                grads = {k: scale * rng.normal(size=getattr(p, k).shape) for k in FLAT_NAMES}
                grads["emb"] = ad.RowGrad(rows, scale * rng.normal(size=(rows.size, 3)))
                adam_step(p, grads, state, lr=lr, beta1=b1, beta2=b2, eps=eps)
                adam_reference(ref, m, r, grads, t, lr, b1, b2, eps)
            assert_adam_bits(p, state, ref, m, r)

    def test_none_gradient_equals_all_zero_gradient(self):
        # at gradient scale 1e-150 too, where r is near 1e-151: still above
        # the 2^-511 floor, so a zero gradient's square root gives r back
        for scale in (1.0, 1e-150):
            rng = np.random.default_rng(3)
            p0 = small_params(4)
            g1, g2 = ({n: scale * rng.normal(size=t.shape) for n, t in p0.named()} for _ in range(2))
            runs = []
            for none in (True, False):
                p = small_params(4)
                state = init_adam(p)
                for name in ("emb", "w1"):
                    state.m[name][0, :2] = [-0.0, -5e-324]
                zeros = {n: None if none else np.zeros(t.shape) for n, t in p.named()}
                for g in (zeros, g1, zeros, zeros, g2, zeros):
                    adam_step(p, g, state, lr=1e-2, beta1=0.3)
                runs.append([bits(a) for n, t in p.named() for a in (t.values, state.m[n], state.r[n])])
            for got, want in zip(*runs):
                np.testing.assert_array_equal(got, want)

    def test_nonfinite_row_grad_names_parameter(self):
        p = small_params()
        grads = {n: None for n, _ in p.named()}
        grads["emb"] = ad.RowGrad(np.array([1, 3]), np.array([[0.0, 1.0, 2.0], [np.inf, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="'emb'"):
            adam_step(p, grads, init_adam(p), lr=1e-3)

    @staticmethod
    def assert_rejected_before_any_write(p, grads, name):
        state = init_adam(p)
        adam_step(p, {n: np.ones(t.shape) for n, t in p.named()}, state, lr=1e-3)
        before = [bits(a) for n, t in p.named() for a in (t.values, state.m[n], state.r[n])]
        with pytest.raises(ValueError, match=f"'{name}'"):
            adam_step(p, grads, state, lr=1e-3)
        assert state.t == 1
        after = [bits(a) for n, t in p.named() for a in (t.values, state.m[n], state.r[n])]
        for got, want in zip(after, before):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "name, g", [("emb", np.ones((1, 3))), ("w1", np.float64(2.0)), ("b1", np.ones(1))], ids=["emb", "w1", "b1"]
    )
    def test_dense_gradient_of_another_shape_is_rejected(self, name, g):
        # each of these would broadcast into every row of its parameter
        p = small_params()
        self.assert_rejected_before_any_write(p, {**dict.fromkeys(FLAT_NAMES), "emb": None, name: g}, name)

    @pytest.mark.parametrize("rows", [[-1, 3], [-40, 3]], ids=["-1", "-40"])
    def test_row_grad_with_a_negative_row_is_rejected(self, rows):
        # a negative row id would wrap around to a row counted from the end
        p = small_params()
        g = ad.RowGrad(np.array(rows), np.ones((2, 3)))
        self.assert_rejected_before_any_write(p, {**dict.fromkeys(FLAT_NAMES), "emb": g}, "emb")

    def test_row_grad_past_the_table_is_rejected(self):
        p = small_params()
        g = ad.RowGrad(np.array([3, 40]), np.ones((2, 3)))
        self.assert_rejected_before_any_write(p, {**dict.fromkeys(FLAT_NAMES), "emb": g}, "emb")

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 3, 1)], ids=["2x2", "3x3", "2x3x1"])
    def test_row_grad_values_not_one_row_per_row_id_are_rejected(self, shape):
        p = small_params()
        g = ad.RowGrad(np.array([1, 3]), np.ones(shape))
        self.assert_rejected_before_any_write(p, {**dict.fromkeys(FLAT_NAMES), "emb": g}, "emb")

    def test_square_roots_only_over_rows_with_a_gradient(self, monkeypatch):
        # the kept root r means an untouched table row takes no square root:
        # a step with 5 of 1000 rows touched takes them over those 5 rows and
        # the flat group, not over the whole table
        taken = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def sqrt(x, *args, **kwargs):
                taken.append(np.size(x))
                return np.sqrt(x, *args, **kwargs)

        p = init_params(0, EncoderDims(vocab_size=1000, d_emb=16, hidden=8, d_feat=4))
        state = init_adam(p)
        rows = np.array([0, 7, 100, 500, 999])
        grads = {n: np.ones(t.shape) for n, t in p.named()}
        grads["emb"] = ad.RowGrad(rows, np.ones((5, 16)))
        monkeypatch.setattr(trainer, "np", CountingNumpy())
        adam_step(p, grads, state, lr=1e-3)
        assert state.t == 1
        assert sum(taken) == 5 * 16 + p.flat.size


class TestGroupedUpdates:
    """Adam and the EMA over EncoderParams' two groups, ``emb`` and
    ``flat``, against plain per-tensor numpy expressions."""

    def test_sixty_steps_bitwise_equal_to_per_tensor_expressions(self):
        rng = np.random.default_rng(7)
        main = init_params(5, EncoderDims(vocab_size=9, d_emb=3, hidden=7, d_feat=5))
        mom = clone_params(init_params(6, main.dims))
        main.emb.values[...] = rng.normal(size=main.emb.shape)
        state = init_adam(main)
        for name in ("emb", "w1", "b2"):
            state.m[name].reshape(-1)[0::2] = -0.0
            state.m[name].reshape(-1)[1::2] = -5e-324
        ref = {n: t.values.copy() for n, t in main.named()}
        ref_mom = {n: t.values.copy() for n, t in mom.named()}
        m = {n: state.m[n].copy() for n in ref}
        r = {n: state.r[n].copy() for n in ref}
        for step in range(60):
            grads = {}
            for i, (name, t) in enumerate(main.named()):
                kind = (step + i) % 4  # dense, None, all zero, and for emb rows
                g = rng.normal(size=t.shape)
                g[rng.random(t.shape) < 0.2] = -0.0
                if kind == 1:
                    g = None
                elif kind == 2:
                    g = np.zeros(t.shape)
                elif kind == 3 and name == "emb":
                    rows = np.flatnonzero(rng.random(t.shape[0]) < 0.3)
                    g = ad.RowGrad(rows, g[rows])
                grads[name] = g
            adam_step(main, grads, state, lr=1e-2, beta1=0.3)
            ema_update(main, mom, 0.9)
            adam_reference(ref, m, r, grads, step + 1, 1e-2, b1=0.3)
            for name in ref_mom:
                ref_mom[name] = 0.9 * ref_mom[name] + (1.0 - 0.9) * ref[name]
        assert state.t == 60
        assert_adam_bits(main, state, ref, m, r)
        for name, t in mom.named():
            np.testing.assert_array_equal(bits(t.values), bits(ref_mom[name]), err_msg=name)

    def test_nonfinite_gradient_in_the_flat_group_names_its_parameter(self):
        p = init_params(5, EncoderDims(vocab_size=9, d_emb=3, hidden=7, d_feat=5))
        state = init_adam(p)
        adam_step(p, {n: np.ones(t.shape) for n, t in p.named()}, state, lr=1e-2)

        def snapshot():
            return [bits(a) for n, t in p.named() for a in (t.values, state.m[n], state.r[n])]

        before = snapshot()
        grads = {n: np.ones(t.shape) for n, t in p.named()}
        grads["w2"][3, 1] = np.nan
        grads["b1"] = None
        with pytest.raises(ValueError, match="'w2'"):
            adam_step(p, grads, state, lr=1e-2)
        assert state.t == 1
        for got, want in zip(snapshot(), before):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("hidden", [128, 256])
    def test_a_step_allocates_no_flat_sized_array(self, hidden):
        # the flat group's gradient copy is params.work and its scratch is
        # params.scratch, in a pass of one block (hidden 128) or of several
        # (hidden 256)
        main = init_params(5, EncoderDims(vocab_size=10, hidden=hidden))
        mom = clone_params(main)
        state = init_adam(main)
        grads = {n: np.ones(t.shape) for n, t in main.named()}
        adam_step(main, grads, state, lr=1e-2)
        ema_update(main, mom, 0.9)
        tracemalloc.start()
        try:
            adam_step(main, grads, state, lr=1e-2)
            ema_update(main, mom, 0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < main.flat.nbytes


def naive_cosine(a, b, eps=1e-8):
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = max(math.sqrt(math.fsum(x * x for x in a)), eps)
    nb = max(math.sqrt(math.fsum(y * y for y in b)), eps)
    return dot / (na * nb)


def spied_step(monkeypatch, state, batch, config):
    """One train_step that also hands back the main and momentum outputs and
    the sampler's result."""
    seen = {"outs": []}
    real_forward, real_sample = trainer.forward, sampler.sample_for_batch

    def forward(*args, **kwargs):
        seen["outs"].append(real_forward(*args, **kwargs))
        return seen["outs"][-1]

    def sample_for_batch(*args, **kwargs):
        seen["negs"] = real_sample(*args, **kwargs)
        return seen["negs"]

    monkeypatch.setattr(trainer, "forward", forward)
    monkeypatch.setattr(sampler, "sample_for_batch", sample_for_batch)
    lb = train_step(state, batch, config)
    monkeypatch.undo()
    main, momentum = seen["outs"]
    return lb, main.feature.values, momentum.feature.values, seen["negs"]


def per_anchor_contrastive(feats, x_aug, negs, tau) -> float:
    """Independent route, plain python: each anchor's -log softmax over
    [pos, its own negatives] / tau at the positive, averaged over the batch."""
    per_anchor = []
    for i, view in enumerate(negs):
        logits = [naive_cosine(feats[i], x_aug[i]) / tau]
        logits += [naive_cosine(feats[i], row) / tau for row in view.features]
        m = max(logits)
        z = math.fsum(math.exp(l - m) for l in logits)
        per_anchor.append(-(logits[0] - m - math.log(z)))
    return math.fsum(per_anchor) / len(per_anchor)


class TestLahnContrastiveTerm:
    def test_equals_per_anchor_route_on_a_steady_queue(self, monkeypatch):
        cfg = small_config(q=8)
        train, _, _ = tiny_corpus()
        vocab, enc, batches = first_batch(cfg, train)
        state = init_state(cfg, len(vocab))
        for b in batches[:2]:
            train_step(state, b, cfg)
        lb, feats, x_aug, negs = spied_step(monkeypatch, state, batches[2], cfg)
        assert all(view.size > 0 for view in negs)
        assert abs(lb["l_cl"] - per_anchor_contrastive(feats, x_aug, negs, cfg.tau)) <= 1e-12

    def test_equals_per_anchor_route_with_empty_anchors_and_the_last_row(self, monkeypatch):
        # one label-0 anchor, then five label-1 ones: the 4-slot queue keeps
        # only label-1 entries, so anchor 0 selects every snapshot row, the
        # last one included, and the rest select nothing (padding index -1)
        cfg = small_config(strategy="sim", q=4, k=4, batch_size=6)
        train, _, _ = tiny_corpus()
        vocab, enc, _ = first_batch(cfg, train)
        picks = np.concatenate([np.flatnonzero(enc.labels == 0)[:1], np.flatnonzero(enc.labels == 1)[:5]])
        batch = Batch(token_ids=enc.ids[picks], mask=enc.ids[picks] != PAD_ID, labels=enc.labels[picks])
        state = init_state(cfg, len(vocab))
        lb, feats, x_aug, negs = spied_step(monkeypatch, state, batch, cfg)
        assert sorted(negs[0].queue_indices.tolist()) == [0, 1, 2, 3]
        assert (negs.queue_indices[1:] == -1).all()
        want = per_anchor_contrastive(feats, x_aug, negs, cfg.tau)
        assert want > 0.0
        assert abs(lb["l_cl"] - want) <= 1e-12


def mapping(a):
    """The object that owns ``a``'s memory: an mmap, or None for the heap."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


class TestTrainState:
    """The state a resume must save: a new piece of it shows up here."""

    @pytest.mark.parametrize("objective", ["ce", "scl", "lahn"])
    def test_fields_and_streams(self, objective):
        assert [f.name for f in dataclasses.fields(TrainState)] == [
            "params", "opt", "streams", "momentum", "queue",
            "best_val_macro_f1", "best_epoch", "best_params",
        ]
        state = init_state(small_config(objective=objective), 10)
        assert set(state.streams) == {STREAM_SHUFFLE, STREAM_DROPOUT_MAIN, STREAM_DROPOUT_MOMENTUM}
        assert state.opt.t == 0
        lahn = objective == "lahn"
        assert (state.momentum is not None) == lahn and (state.queue is not None) == lahn

    def test_large_arrays_each_own_a_mapping(self):
        # so that freeing one unmaps it instead of leaving it in the C heap
        state = init_state(small_config(), 20_000)  # a 20000 x 8 table: 1.28 MB
        copies = (state.params, state.momentum, clone_params(state.params))
        tables = [p.emb.values for p in copies] + [state.opt.m["emb"], state.opt.r["emb"]]
        maps = [mapping(a) for a in tables]
        assert all(isinstance(m, mmap.mmap) for m in maps)
        assert len({id(m) for m in maps}) == len(maps)
        assert mapping(state.params.w1.values) is None  # small arrays stay in the heap

    def test_flat_group_arrays_each_own_a_mapping(self):
        # at the default widths the six small tensors hold 16 706 floats: 134 KB
        state = init_state(small_config(d_emb=64, hidden=128, d_feat=64), 10)
        assert state.params.flat.nbytes >= 1 << 17
        m, r = state.opt.m, state.opt.r
        arrays = [state.params.flat, state.momentum.flat, m["flat"], r["flat"], state.params.work]
        maps = [mapping(a) for a in arrays]
        assert all(isinstance(x, mmap.mmap) for x in maps)
        assert len({id(x) for x in maps}) == len(maps)
        for name in FLAT_NAMES:
            assert mapping(getattr(state.params, name).values) is maps[0]
            assert mapping(m[name]) is maps[2] and mapping(r[name]) is maps[3]
            # each moment has one owner: a view of its own group's array only
            assert np.shares_memory(m[name], m["flat"]) and not np.shares_memory(m[name], r["flat"])
            assert np.shares_memory(r[name], r["flat"]) and not np.shares_memory(r[name], m["flat"])


class TestTrainStep:
    def test_warmup_gate_keeps_contrastive_silent(self):
        cfg = small_config(q=64)  # 4/64 fill after the first enqueue
        train, _, _ = tiny_corpus()
        vocab, enc, batches = first_batch(cfg, train)
        state = init_state(cfg, len(vocab))
        lb = train_step(state, batches[0], cfg)
        assert lb["l_cl"] == 0.0
        assert lb["total"] == lb["l_ce"]
        assert state.queue.fill_fraction() < WARMUP_FILL

    def test_active_gate_builds_convex_combination(self):
        cfg = small_config(q=8)  # 4/8 fill crosses the quarter threshold at once
        train, _, _ = tiny_corpus()
        vocab, enc, batches = first_batch(cfg, train)
        state = init_state(cfg, len(vocab))
        lb = train_step(state, batches[0], cfg)
        assert lb["l_cl"] != 0.0
        np.testing.assert_allclose(
            lb["total"], (1 - cfg.lam) * lb["l_cl"] + cfg.lam * lb["l_ce"], atol=1e-12
        )

    def test_momentum_params_evolve_by_ema_only(self):
        cfg = small_config(q=8)
        train, _, _ = tiny_corpus()
        vocab, enc, batches = first_batch(cfg, train)
        state = init_state(cfg, len(vocab))
        before = clone_params(state.momentum)
        train_step(state, batches[0], cfg)
        for (name, mom), (_, prev), (_, cur) in zip(
            state.momentum.named(), before.named(), state.params.named()
        ):
            expected = prev.values.copy()
            expected *= cfg.m
            expected += (1.0 - cfg.m) * cur.values
            np.testing.assert_array_equal(mom.values, expected, err_msg=name)

    def test_momentum_frozen_at_m_one(self):
        cfg = small_config(m=1.0, q=8)
        train, _, _ = tiny_corpus()
        vocab, enc, batches = first_batch(cfg, train)
        state = init_state(cfg, len(vocab))
        before = clone_params(state.momentum)
        for b in batches[:3]:
            train_step(state, b, cfg)
        for (name, mom), (_, prev) in zip(state.momentum.named(), before.named()):
            np.testing.assert_array_equal(mom.values, prev.values, err_msg=name)

    def test_queue_holds_most_recent_labels_in_order(self):
        cfg = small_config(q=8)
        train, _, _ = tiny_corpus()
        vocab, enc, batches = first_batch(cfg, train)
        state = init_state(cfg, len(vocab))
        for b in batches[:3]:
            train_step(state, b, cfg)
        expected = np.concatenate([batches[1].labels, batches[2].labels])
        np.testing.assert_array_equal(state.queue.snapshot().labels, expected)

    def test_step_counter_and_breakdown(self):
        cfg = small_config()
        train, _, _ = tiny_corpus()
        vocab, enc, batches = first_batch(cfg, train)
        state = init_state(cfg, len(vocab))
        lb = train_step(state, batches[0], cfg)
        assert state.opt.t == 1
        assert all(math.isfinite(x) for x in (lb["l_cl"], lb["l_ce"], lb["total"]))

    @pytest.mark.parametrize("objective, q", [("lahn", 64), ("lahn", 8), ("scl", 8), ("ce", 8)])
    def test_returns_the_record_it_logs(self, objective, q):
        cfg = small_config(objective=objective, q=q)
        train, _, _ = tiny_corpus()
        vocab, enc, batches = first_batch(cfg, train)
        state = init_state(cfg, len(vocab))
        for batch in batches[:3]:
            rec = train_step(state, batch, cfg)
            assert set(rec) == {"step", "l_cl", "l_ce", "total", "queue_fill"}
            assert rec["step"] == state.opt.t
            fill = state.queue.fill_fraction() if objective == "lahn" else 0.0
            assert rec["queue_fill"] == fill
            assert all(type(v) is float for k, v in rec.items() if k != "step")

    def test_lambda_one_walks_the_ce_trajectory(self):
        # with lam=1 the contrastive branch is weighted to zero and the main
        # dropout stream is untouched by the momentum one, so parameters must
        # match a plain classification run value for value
        train, val, _ = tiny_corpus()
        r_lahn = run_training(small_config(objective="lahn", lam=1.0, q=8), train, val)
        r_ce = run_training(small_config(objective="ce"), train, val)
        for (name, a), (_, b) in zip(r_lahn.params.named(), r_ce.params.named()):
            np.testing.assert_array_equal(a.values, b.values, err_msg=name)

    def test_nonfinite_loss_aborts_with_diagnostic(self):
        cfg = small_config()
        train, _, _ = tiny_corpus()
        vocab, enc, batches = first_batch(cfg, train)
        state = init_state(cfg, len(vocab))
        state.params.w1.values[:] = np.inf
        with pytest.raises(NonFiniteLossError) as exc, np.errstate(invalid="ignore"):
            train_step(state, batches[0], cfg)
        diag = exc.value.diagnostic
        assert set(diag) == {"step", "lr", "l_cl", "l_ce", "total"}
        assert diag["step"] == 0 and diag["lr"] == cfg.lr
        assert not math.isfinite(diag["total"])

    @pytest.mark.parametrize("objective", ["ce", "scl", "lahn"])
    def test_pad_columns_change_no_step(self, objective):
        # the same rows from the encoded table and from that table padded
        # with PAD columns out to max_len
        cfg = small_config(objective=objective, q=8)
        train, _, _ = tiny_corpus()
        vocab, enc, batches = first_batch(cfg, train)
        ids = np.pad(enc.ids, ((0, 0), (0, cfg.max_len - enc.ids.shape[1])), constant_values=PAD_ID)
        wide = make_batches(EncodedSplit(ids, enc.labels, enc.texts), cfg.batch_size, shuffle_seed=0)
        assert batches[0].token_ids.shape[1] < cfg.max_len == wide[0].token_ids.shape[1]
        states = [init_state(cfg, len(vocab)) for _ in range(2)]
        records = [train_step(state, batch, cfg) for state, batch in zip(states, (batches[0], wide[0]))]
        assert records[0] == records[1]
        if objective == "lahn":
            assert records[0]["l_cl"] != 0.0
        for (name, a), (_, b) in zip(states[0].params.named(), states[1].params.named()):
            assert a.values.tobytes() == b.values.tobytes(), name


class TestRunTraining:
    def test_epoch_shuffles_draw_from_the_state_stream(self, monkeypatch):
        cfg = small_config(epochs=3)
        train, val, _ = tiny_corpus()
        states = []
        real_init = trainer.init_state
        monkeypatch.setattr(trainer, "init_state", lambda *a: states.append(real_init(*a)) or states[-1])
        run_training(cfg, train, val)
        fresh = substream(cfg.seed, STREAM_SHUFFLE)
        for _ in range(cfg.epochs):
            fresh.integers(2**63)
        assert states[0].streams[STREAM_SHUFFLE].integers(2**63) == fresh.integers(2**63)

    def test_record_schema_and_counts(self):
        cfg = small_config(epochs=2)
        train, val, _ = tiny_corpus()
        result = run_training(cfg, train, val)
        step_recs = [r for r in result.records if "step" in r]
        epoch_recs = [r for r in result.records if "epoch" in r]
        assert len(epoch_recs) == cfg.epochs
        n_batches = len(make_batches(encode_examples(train, result.vocab, cfg.max_len), cfg.batch_size, 0))
        assert len(step_recs) == cfg.epochs * n_batches
        assert set(step_recs[0]) == {"step", "l_cl", "l_ce", "total", "queue_fill"}
        assert set(epoch_recs[0]) == {"epoch", "val_accuracy", "val_macro_f1"}

    def test_two_runs_are_identical(self):
        cfg = small_config()
        train, val, _ = tiny_corpus()
        a = run_training(cfg, train, val)
        b = run_training(cfg, train, val)
        assert json.dumps(a.records, sort_keys=True) == json.dumps(b.records, sort_keys=True)
        for (name, ta), (_, tb) in zip(a.params.named(), b.params.named()):
            np.testing.assert_array_equal(ta.values, tb.values, err_msg=name)

    def test_best_checkpoint_tracks_max_val_f1(self):
        cfg = small_config(epochs=3)
        train, val, _ = tiny_corpus()
        result = run_training(cfg, train, val)
        epoch_recs = [r for r in result.records if "epoch" in r]
        vals = [r["val_macro_f1"] for r in epoch_recs]
        assert result.best_val_macro_f1 == max(vals)
        assert result.best_epoch == vals.index(max(vals)) + 1  # strict improvement keeps the first

    def test_artifacts_written(self, tmp_path):
        cfg = small_config()
        train, val, _ = tiny_corpus()
        result = run_training(cfg, train, val, out_dir=tmp_path)
        assert (tmp_path / "vocab.txt").exists()
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(l) for l in lines] == result.records
        for name in ("checkpoint_last.npz", "checkpoint_best.npz"):
            params, config_echo, vocab = load_checkpoint(tmp_path / name)
            assert config_echo == cfg.to_dict()
            assert vocab is not None and len(vocab) == len(result.vocab)
        best, _, _ = load_checkpoint(tmp_path / "checkpoint_best.npz")
        for (name, ta), (_, tb) in zip(best.named(), result.best_params.named()):
            np.testing.assert_array_equal(ta.values, tb.values, err_msg=name)

    def test_empty_split_rejected(self):
        train, val, _ = tiny_corpus()
        with pytest.raises(ValueError, match="nonempty"):
            run_training(small_config(), [], val)

    def test_one_example_training_split_rejected(self):
        # make_batches drops a size-1 batch, so such a run would take no step
        train, val, _ = tiny_corpus()
        with pytest.raises(ValueError, match=">= 2 train examples"):
            run_training(small_config(), train[:1], val)

    def test_scl_objective_runs(self):
        cfg = small_config(objective="scl", lam=0.5)
        train, val, _ = tiny_corpus()
        result = run_training(cfg, train, val)
        step_recs = [r for r in result.records if "step" in r]
        assert any(r["l_cl"] != 0.0 for r in step_recs)
        assert all(r["queue_fill"] == 0.0 for r in step_recs)  # no queue outside lahn


CHECKPOINTS = ("checkpoint_last.npz", "checkpoint_best.npz")
EVALUATE = metrics.evaluate


def scripted_run(monkeypatch, out, f1s):
    """``run_training`` into ``out`` with each epoch's validation macro-F1
    taken from ``f1s``. Returns, per epoch, the bytes of each checkpoint as
    that epoch's writes left them."""
    scripted, seen = iter(f1s), []

    def checkpoints():
        return {name: (out / name).read_bytes() for name in CHECKPOINTS if (out / name).exists()}

    def evaluate(params, split):
        seen.append(checkpoints())  # as the epoch before left them
        return dataclasses.replace(EVALUATE(params, split), macro_f1=next(scripted))

    monkeypatch.setattr(metrics, "evaluate", evaluate)
    train, val, _ = tiny_corpus()
    run_training(small_config(epochs=len(f1s)), train, val, out)
    return seen[1:] + [checkpoints()]


class TestLinkedBestCheckpoint:
    """An improving epoch makes checkpoint_best.npz a second name of the
    checkpoint_last.npz it just wrote."""

    def test_an_improving_epoch_gives_best_the_bytes_of_last(self, monkeypatch, tmp_path):
        (epoch,) = scripted_run(monkeypatch, tmp_path, [0.5])
        assert epoch["checkpoint_best.npz"] == epoch["checkpoint_last.npz"]
        assert os.path.samefile(tmp_path / "checkpoint_best.npz", tmp_path / "checkpoint_last.npz")
        assert not list(tmp_path.glob("*.tmp"))

    def test_an_epoch_that_does_not_improve_leaves_best_alone(self, monkeypatch, tmp_path):
        first, second, third = scripted_run(monkeypatch, tmp_path, [0.5, 0.4, 0.6])
        assert second["checkpoint_last.npz"] != first["checkpoint_last.npz"]
        assert second["checkpoint_best.npz"] == first["checkpoint_best.npz"] == first["checkpoint_last.npz"]
        # the third epoch improves again
        assert third["checkpoint_best.npz"] == third["checkpoint_last.npz"] != second["checkpoint_last.npz"]

    def test_without_hard_links_best_gets_the_same_bytes_written(self, monkeypatch, tmp_path):
        linked = scripted_run(monkeypatch, tmp_path / "linked", [0.5, 0.4, 0.6])

        def link(src, dst, **kwargs):
            raise OSError(errno.EPERM, "no hard links here")

        monkeypatch.setattr(os, "link", link)
        written = scripted_run(monkeypatch, tmp_path / "written", [0.5, 0.4, 0.6])
        assert written == linked
        best, last = (tmp_path / "written" / name for name in ("checkpoint_best.npz", "checkpoint_last.npz"))
        assert not os.path.samefile(best, last)
        assert stat.S_IMODE(best.stat().st_mode) == stat.S_IMODE(last.stat().st_mode)

    def test_a_failing_rename_onto_best_leaves_no_temp_file(self, monkeypatch, tmp_path):
        real = os.replace

        def replace(src, dst, **kwargs):
            if os.fspath(dst).endswith("checkpoint_best.npz"):
                raise OSError(errno.EIO, "rename failed")
            return real(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="rename failed"):
            scripted_run(monkeypatch, tmp_path, [0.5])
        assert (tmp_path / "checkpoint_last.npz").exists()
        assert sorted(f.name for f in tmp_path.iterdir()) == ["checkpoint_last.npz", "metrics.jsonl", "vocab.txt"]


class TestAblationGrid:
    def test_single_cell_matches_training_run(self):
        cfg = small_config()
        train, val, _ = tiny_corpus()
        direct = run_training(TrainConfig.from_dict({**cfg.to_dict(), "seed": 5}), train, val)
        grid = run_ablation_grid(cfg, [{}], [5], train, val)
        cell = grid["cells"][0]
        assert cell["per_seed"][0]["val_macro_f1"] == direct.best_val_macro_f1
        assert cell["median_val_macro_f1"] == direct.best_val_macro_f1

    def test_three_seeds_produce_median(self):
        cfg = small_config(epochs=1)
        train, val, test = tiny_corpus()
        grid = run_ablation_grid(cfg, [{"k": 2}], [0, 1, 2], train, val, test_split=test)
        cell = grid["cells"][0]
        assert [r["seed"] for r in cell["per_seed"]] == [0, 1, 2]
        vals = sorted(r["val_macro_f1"] for r in cell["per_seed"])
        assert cell["median_val_macro_f1"] == vals[1]
        assert "median_test_macro_f1" in cell
        assert all("test_macro_f1" in r for r in cell["per_seed"])

    def test_failed_cell_marked_and_grid_continues(self):
        cfg = small_config(epochs=1)
        train, val, _ = tiny_corpus()
        grid = run_ablation_grid(cfg, [{"tau": -1.0}, {}], [0], train, val)
        bad, good = grid["cells"]
        assert "error" in bad and "ValueError" in bad["error"]
        assert "error" not in good and good["per_seed"]

    def test_empty_grid_rejected(self):
        train, val, _ = tiny_corpus()
        with pytest.raises(ValueError):
            run_ablation_grid(small_config(), [], [0], train, val)
        with pytest.raises(ValueError):
            run_ablation_grid(small_config(), [{}], [], train, val)

    @pytest.mark.parametrize(
        "grid, seeds, match",
        [([{"seed": 5, "k": 2}], [0, 1], "may not set 'seed'"), ([{"k": 2}], [0, 0], "distinct seeds")],
        ids=["cell-sets-seed", "seed-repeated"],
    )
    def test_seed_overrides_rejected_before_any_run(self, monkeypatch, grid, seeds, match):
        # a cell's seed would be overwritten by the seeds list, and a
        # repeated seed would count one run twice in the medians
        train, val, _ = tiny_corpus()
        runs = []
        monkeypatch.setattr(trainer, "run_training", lambda *args: runs.append(args))
        with pytest.raises(ValueError, match=match):
            run_ablation_grid(small_config(), grid, seeds, train, val)
        assert runs == []
