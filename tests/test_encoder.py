import io

import numpy as np
import pytest

import lahn.autodiff as ad
from lahn.data import Example, build_vocab, encode_examples, iter_eval_batches
from lahn.encoder import (
    EncoderDims,
    clone_params,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from lahn.objectives import classification_loss
from lahn.seeding import substream

TEXTS = [
    "those folks are kind and gentle",
    "people seem so awful , truly rotten",
    "those blorgs are not vile and never nasty",
    "workers seem so cheerful , truly honest",
]


def tiny_batch(max_len=12):
    examples = [Example(t, i % 2) for i, t in enumerate(TEXTS)]
    vocab = build_vocab((e.text for e in examples), min_freq=1)
    enc = encode_examples(examples, vocab, max_len)
    return next(iter_eval_batches(enc, len(enc))), vocab


def tiny_dims(vocab, **kw):
    base = dict(vocab_size=len(vocab), d_emb=8, hidden=10, d_feat=6)
    base.update(kw)
    return EncoderDims(**base)


class TestInit:
    def test_same_seed_identical(self):
        _, vocab = tiny_batch()
        a = init_params(3, tiny_dims(vocab))
        b = init_params(3, tiny_dims(vocab))
        for (_, ta), (_, tb) in zip(a.named(), b.named()):
            np.testing.assert_array_equal(ta.values, tb.values)

    def test_pad_row_zero(self):
        _, vocab = tiny_batch()
        params = init_params(0, tiny_dims(vocab))
        np.testing.assert_array_equal(params.emb.values[0], 0.0)

    def test_xavier_bounds(self):
        _, vocab = tiny_batch()
        params = init_params(1, tiny_dims(vocab))
        for tensor, fan_in, fan_out in (
            (params.w1, 8, 10),
            (params.w2, 10, 6),
            (params.wh, 6, 2),
        ):
            a = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(tensor.values).max() <= a

    def test_biases_zero(self):
        _, vocab = tiny_batch()
        params = init_params(1, tiny_dims(vocab))
        for t in (params.b1, params.b2, params.bh):
            np.testing.assert_array_equal(t.values, 0.0)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            EncoderDims(vocab_size=5, dropout=1.0).validate()
        with pytest.raises(ValueError):
            EncoderDims(vocab_size=5, activation="tanh").validate()


class TestClone:
    def test_clone_equals_then_decouples(self):
        _, vocab = tiny_batch()
        src = init_params(2, tiny_dims(vocab))
        dup = clone_params(src)
        for (_, a), (_, b) in zip(src.named(), dup.named()):
            np.testing.assert_array_equal(a.values, b.values)
        src.w1.values += 1.0
        assert not np.array_equal(src.w1.values, dup.w1.values)

    def test_clone_is_gradient_exempt(self):
        _, vocab = tiny_batch()
        dup = clone_params(init_params(2, tiny_dims(vocab)))
        assert all(not t.requires_grad for _, t in dup.named())


class TestForward:
    def test_eval_forwards_bitwise_identical(self):
        batch, vocab = tiny_batch()
        params = init_params(4, tiny_dims(vocab))
        a = forward(params, batch, training=False)
        b = forward(params, batch, training=False)
        np.testing.assert_array_equal(a.feature.values, b.feature.values)
        np.testing.assert_array_equal(a.logits.values, b.logits.values)

    def test_training_dropout_gives_distinct_views(self):
        # the positive-pair mechanism: two stochastic forwards disagree
        batch, vocab = tiny_batch()
        params = init_params(4, tiny_dims(vocab))
        rng = substream(0, "dropout-main")
        a = forward(params, batch, training=True, rng=rng)
        b = forward(params, batch, training=True, rng=rng)
        assert not np.array_equal(a.feature.values, b.feature.values)

    def test_identical_rng_makes_twin_forwards_coincide(self):
        batch, vocab = tiny_batch()
        main = init_params(4, tiny_dims(vocab))
        twin = clone_params(main)
        a = forward(main, batch, training=True, rng=substream(7, "dropout-main"))
        b = forward(twin, batch, training=True, rng=substream(7, "dropout-main"))
        np.testing.assert_array_equal(a.feature.values, b.feature.values)

    def test_permuting_batch_permutes_outputs(self):
        batch, vocab = tiny_batch()
        params = init_params(5, tiny_dims(vocab))
        base = forward(params, batch, training=False)
        perm = np.array([2, 0, 3, 1])
        shuffled = type(batch)(
            token_ids=batch.token_ids[perm], mask=batch.mask[perm], labels=batch.labels[perm]
        )
        out = forward(params, shuffled, training=False)
        np.testing.assert_allclose(out.feature.values, base.feature.values[perm], rtol=1e-12)
        np.testing.assert_allclose(out.logits.values, base.logits.values[perm], rtol=1e-12)

    def test_zero_embeddings_collapse_examples(self):
        batch, vocab = tiny_batch()
        params = init_params(5, tiny_dims(vocab))
        params.emb.values[:] = 0.0
        out = forward(params, batch, training=False)
        for i in range(1, batch.size):
            np.testing.assert_array_equal(out.feature.values[i], out.feature.values[0])

    def test_features_finite_with_positive_norm(self):
        batch, vocab = tiny_batch()
        params = init_params(6, tiny_dims(vocab))
        out = forward(params, batch, training=False)
        assert np.isfinite(out.feature.values).all()
        assert (np.linalg.norm(out.feature.values, axis=1) > 0).all()

    def test_logits_come_from_same_feature(self):
        batch, vocab = tiny_batch()
        params = init_params(6, tiny_dims(vocab))
        out = forward(params, batch, training=False)
        expected = out.feature.values @ params.wh.values + params.bh.values
        np.testing.assert_allclose(out.logits.values, expected, rtol=1e-12)

    def test_relu_activation_config(self):
        batch, vocab = tiny_batch()
        params = init_params(6, tiny_dims(vocab, activation="relu"))
        out = forward(params, batch, training=False)
        assert np.isfinite(out.logits.values).all()

    def test_gradients_reach_every_parameter(self):
        batch, vocab = tiny_batch()
        params = init_params(8, tiny_dims(vocab))
        with ad.Tape() as tape:
            out = forward(params, batch, training=True, rng=substream(1, "dropout-main"))
            loss = classification_loss(out.logits, batch.labels)
            tape.backward(loss)
        for name, t in params.named():
            assert t.grad is not None, name
            grad = t.grad.dense(t.shape) if name == "emb" else t.grad
            assert np.abs(grad).sum() > 0 or name == "emb"


class TestCheckpoint:
    def test_round_trip_bitwise_values(self, tmp_path):
        batch, vocab = tiny_batch()
        params = init_params(9, tiny_dims(vocab))
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, {"tau": 0.05, "objective": "lahn"}, vocab)
        loaded, cfg, loaded_vocab = load_checkpoint(path)
        for (_, a), (_, b) in zip(params.named(), loaded.named()):
            np.testing.assert_array_equal(a.values, b.values)
        assert cfg == {"tau": 0.05, "objective": "lahn"}
        assert loaded_vocab.id_to_token == vocab.id_to_token
        assert vars(loaded.dims) == vars(params.dims)

    def test_file_bytes_deterministic(self, tmp_path):
        _, vocab = tiny_batch()
        params = init_params(9, tiny_dims(vocab))
        save_checkpoint(tmp_path / "a.npz", params, {"seed": 1}, vocab)
        save_checkpoint(tmp_path / "b.npz", params, {"seed": 1}, vocab)
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    @pytest.mark.parametrize("fortran_w1", [False, True])
    def test_file_bytes_equal_np_savez(self, tmp_path, fortran_w1):
        # np.savez over the members read back, in file order, is the reference;
        # a Fortran-ordered parameter takes the write_array route
        _, vocab = tiny_batch()
        params = init_params(9, tiny_dims(vocab))
        if fortran_w1:
            params.w1 = ad.param(np.asfortranarray(params.w1.values))
            assert not params.w1.values.flags.c_contiguous
        path = tmp_path / "m.npz"
        save_checkpoint(path, params, {"seed": 1}, vocab)
        with np.load(path, allow_pickle=False) as z:
            members = {name: z[name] for name in z.files}
        assert list(members) == ["emb", "w1", "b1", "w2", "b2", "wh", "bh", "__meta__", "__vocab__"]
        ref = io.BytesIO()
        np.savez(ref, **members)
        assert path.read_bytes() == ref.getvalue()

    def test_loaded_params_are_trainable(self, tmp_path):
        _, vocab = tiny_batch()
        params = init_params(9, tiny_dims(vocab))
        save_checkpoint(tmp_path / "m.npz", params, {}, vocab)
        loaded, _, _ = load_checkpoint(tmp_path / "m.npz")
        assert all(t.requires_grad for _, t in loaded.named())
