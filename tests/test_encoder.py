import gc
import io
import json
import sys
import tempfile
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lahn.autodiff as ad
from lahn.data import PAD_TOKEN, UNK_TOKEN, Example, Vocabulary, build_vocab, encode_examples, iter_eval_batches
from lahn.encoder import (
    FLAT_NAMES,
    EncoderDims,
    clone_params,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from lahn.objectives import classification_loss
from lahn.seeding import STREAM_INIT, substream

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

    def test_draws_equal_the_layer_by_layer_reference(self):
        # embeddings first, then w1, w2 and wh, each from the one init stream
        _, vocab = tiny_batch()
        dims = tiny_dims(vocab)
        rng = substream(4, STREAM_INIT)
        emb = rng.normal(0.0, 0.02, size=(len(vocab), 8))
        emb[0] = 0.0
        expected = {"emb": emb, "b1": np.zeros(10), "b2": np.zeros(6), "bh": np.zeros(2)}
        for name, fan_in, fan_out in (("w1", 8, 10), ("w2", 10, 6), ("wh", 6, 2)):
            a = np.sqrt(6.0 / (fan_in + fan_out))
            expected[name] = rng.uniform(-a, a, size=(fan_in, fan_out))
        for name, t in init_params(4, dims).named():
            assert t.values.tobytes() == expected[name].tobytes(), name

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            EncoderDims(vocab_size=5, dropout=1.0).validate()
        with pytest.raises(ValueError):
            EncoderDims(vocab_size=5, activation="tanh").validate()
        with pytest.raises(ValueError, match="dropout must be a number"):
            EncoderDims(vocab_size=5, dropout="x").validate()
        with pytest.raises(ValueError, match="unknown activation"):
            EncoderDims(vocab_size=5, activation=["gelu"]).validate()
        with pytest.raises(ValueError, match="vocab_size must be an integer"):
            EncoderDims(vocab_size=5.0).validate()
        with pytest.raises(ValueError, match="hidden must be an integer"):
            EncoderDims(vocab_size=5, hidden=True).validate()


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


def address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def assert_flat_layout(params):
    """w1 to bh are consecutive C-ordered views of one buffer, in declaration
    order, and emb shares memory with none of them."""
    small = [getattr(params, name).values for name in FLAT_NAMES]
    flat = params.flat
    assert flat.ndim == 1 and flat.size == sum(a.size for a in small)
    start = address(flat)
    for a in small:
        assert a.flags.c_contiguous and np.shares_memory(a, flat)
        assert address(a) == start
        start += a.nbytes
        assert not np.shares_memory(params.emb.values, a)


class TestFlatLayout:
    def test_init_clone_and_load_build_it(self, tmp_path):
        # odd widths, so no member starts on an aligned boundary of the next
        _, vocab = tiny_batch()
        params = init_params(9, tiny_dims(vocab, d_emb=3, hidden=7, d_feat=5))
        save_checkpoint(tmp_path / "m.npz", params, {}, vocab)
        loaded, _, _ = load_checkpoint(tmp_path / "m.npz")
        copies = (params, clone_params(params), loaded)
        for p in copies:
            assert_flat_layout(p)
            for (_, a), (_, b) in zip(p.named(), params.named()):
                np.testing.assert_array_equal(a.values, b.values)
        assert not np.shares_memory(copies[0].flat, copies[1].flat)


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
        # a Fortran-ordered parameter goes out through its transpose
        _, vocab = tiny_batch()
        params = init_params(9, tiny_dims(vocab))
        if fortran_w1:
            params.w1 = ad.param(np.asfortranarray(params.w1.values))
            assert not params.w1.values.flags.c_contiguous
        path = tmp_path / "m.npz"
        save_checkpoint(path, params, {"seed": 1}, vocab)
        with np.load(path, allow_pickle=False) as z:
            members = {name: z[name] for name in z.files}
        assert list(members) == ["emb", "w1", "b1", "w2", "b2", "wh", "bh", "__meta__"]
        for name, t in params.named():
            np.testing.assert_array_equal(members[name], t.values, err_msg=name)
        ref = io.BytesIO()
        np.savez(ref, **members)
        assert path.read_bytes() == ref.getvalue()

    def test_flat_params_save_the_bytes_of_np_savez(self, tmp_path):
        _, vocab = tiny_batch()
        params = init_params(9, tiny_dims(vocab, d_emb=3, hidden=7, d_feat=5))
        assert_flat_layout(params)
        path = tmp_path / "m.npz"
        save_checkpoint(path, params, {"seed": 1}, vocab)
        with np.load(path, allow_pickle=False) as z:
            meta = z["__meta__"]
        ref = io.BytesIO()
        np.savez(ref, **{name: t.values.copy() for name, t in params.named()}, __meta__=meta)
        assert path.read_bytes() == ref.getvalue()

    def test_a_rejected_file_is_closed(self, tmp_path, monkeypatch):
        # np.load hands the open file to a zip reader that raises on a
        # truncated file, so the caller must close it
        _, vocab = tiny_batch()
        save_checkpoint(tmp_path / "m.npz", init_params(9, tiny_dims(vocab)), {}, vocab)
        bad = tmp_path / "bad.npz"
        bad.write_bytes((tmp_path / "m.npz").read_bytes()[:100])
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(zipfile.BadZipFile):
                load_checkpoint(bad)
            gc.collect()
        assert [type(u.exc_value) for u in unraisable] == []

    def test_loaded_params_are_trainable(self, tmp_path):
        _, vocab = tiny_batch()
        params = init_params(9, tiny_dims(vocab))
        save_checkpoint(tmp_path / "m.npz", params, {}, vocab)
        loaded, _, _ = load_checkpoint(tmp_path / "m.npz")
        assert all(t.requires_grad for _, t in loaded.named())

    def test_header_is_one_utf8_json_member(self, tmp_path):
        _, vocab = tiny_batch()
        params = init_params(9, tiny_dims(vocab))
        save_checkpoint(tmp_path / "m.npz", params, {"seed": 1}, vocab)
        with np.load(tmp_path / "m.npz", allow_pickle=False) as z:
            raw = z["__meta__"]
        assert raw.dtype == np.uint8 and raw.ndim == 1
        meta = json.loads(raw.tobytes().decode("utf-8"))
        assert meta == {"version": 2, "dims": vars(params.dims), "config": {"seed": 1}, "vocab": vocab.id_to_token}

    def test_token_and_its_nul_suffixed_twin_round_trip(self, tmp_path):
        # a fixed-width numpy string array would read both back as "x"
        vocab = Vocabulary([PAD_TOKEN, UNK_TOKEN, "x", "x\0", "\0"])
        save_checkpoint(tmp_path / "m.npz", init_params(0, tiny_dims(vocab)), {}, vocab)
        _, _, loaded = load_checkpoint(tmp_path / "m.npz")
        assert loaded.id_to_token == vocab.id_to_token

    @given(
        st.lists(
            st.one_of(
                st.text(max_size=4).map(lambda t: t + "\0" * 2),
                st.text(st.characters(min_codepoint=0x10000), min_size=1, max_size=4),
                st.text(min_size=300, max_size=600),
                st.text(max_size=8),
            ),
            unique=True,
            max_size=12,
        ).filter(lambda tokens: PAD_TOKEN not in tokens and UNK_TOKEN not in tokens)
    )
    @settings(max_examples=40, deadline=None)
    def test_any_distinct_tokens_round_trip(self, tokens):
        vocab = Vocabulary([PAD_TOKEN, UNK_TOKEN, *tokens])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.npz"
            save_checkpoint(path, init_params(0, tiny_dims(vocab)), {}, vocab)
            _, _, loaded = load_checkpoint(path)
        assert loaded.id_to_token == vocab.id_to_token
