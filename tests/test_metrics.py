import numpy as np
import pytest

from lahn.data import (
    IDENTITY_TOKENS,
    PAD_ID,
    EncodedSplit,
    Example,
    build_vocab,
    encode_examples,
    generate_confound_corpus,
    has_identity_token,
    iter_eval_batches,
)
from lahn import metrics
from lahn.encoder import EncoderDims, forward, init_params
from lahn.metrics import (
    confound_probe,
    evaluate,
    export_embeddings,
    features_of,
    predict,
    report_from_predictions,
)

_NEGATION = ("not", "never")
_NEG_ADJ = ("awful", "vile", "worthless", "dreadful", "rotten", "nasty")


def reference_report(y_true, y_pred):
    """(accuracy, per-class F1, macro-F1) by counting in plain python."""
    pairs = list(zip(y_true, y_pred))
    f1 = []
    for c in (0, 1):
        tp = sum(1 for t, p in pairs if t == c and p == c)
        fp = sum(1 for t, p in pairs if t != c and p == c)
        fn = sum(1 for t, p in pairs if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    accuracy = sum(1 for t, p in pairs if t == p) / len(pairs)
    return accuracy, tuple(f1), (f1[0] + f1[1]) / 2


class TestConfusionAndF1:
    def test_perfect_predictions(self):
        r = report_from_predictions([0, 1], [0, 1])
        assert r.accuracy == 1.0 and r.f1 == (1.0, 1.0) and r.macro_f1 == 1.0 and r.n == 2

    def test_all_predicted_zero_on_mixed_truth(self):
        # class 0: P=0.5, R=1 -> F1=2/3; class 1 never predicted -> F1=0
        r = report_from_predictions([0, 1], [0, 0])
        np.testing.assert_allclose(r.f1[0], 2 / 3, atol=1e-12)
        assert r.f1[1] == 0.0
        np.testing.assert_allclose(r.macro_f1, 1 / 3, atol=1e-12)
        assert r.accuracy == 0.5

    def test_everything_wrong_scores_zero(self):
        r = report_from_predictions([1, 1], [0, 0])
        assert r.accuracy == 0.0 and r.f1 == (0.0, 0.0) and r.macro_f1 == 0.0

    def test_accuracy_identity(self):
        rng = np.random.default_rng(1)
        y_true = rng.integers(0, 2, size=64)
        y_pred = rng.integers(0, 2, size=64)
        r = report_from_predictions(y_true, y_pred)
        assert r.accuracy == float((y_true == y_pred).mean())

    def test_class_swap_reverses_f1_pair(self):
        rng = np.random.default_rng(2)
        y_true = rng.integers(0, 2, size=50)
        y_pred = rng.integers(0, 2, size=50)
        r = report_from_predictions(y_true, y_pred)
        s = report_from_predictions(1 - y_true, 1 - y_pred)
        assert s.f1 == (r.f1[1], r.f1[0])
        assert s.macro_f1 == r.macro_f1 and s.accuracy == r.accuracy

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            report_from_predictions([], [])

    @pytest.mark.parametrize(
        "y_true, y_pred",
        [([1], [0, 0, 1, 1]), ([0, 1], [0, 1, 1]), ([0, 1, 2], [0, 1, 1]), ([[0, 1]], [[0, 1]])],
        ids=["broadcast", "unequal", "non-binary", "2-d"],
    )
    def test_mismatched_or_non_binary_rejected(self, y_true, y_pred):
        with pytest.raises(ValueError):
            report_from_predictions(y_true, y_pred)
        with pytest.raises(ValueError):
            report_from_predictions(y_pred, y_true)

    def test_equals_plain_python_reference_exactly(self):
        rng = np.random.default_rng(3)
        kinds = ("random", "single-class truth", "single-class predictions", "all wrong")
        for i in range(240):
            n = int(rng.integers(1, 40))
            y_true = rng.integers(0, 2, size=n)
            y_pred = rng.integers(0, 2, size=n)
            kind = kinds[i % len(kinds)]
            if kind == "single-class truth":
                y_true[:] = i % 2
            elif kind == "single-class predictions":
                y_pred[:] = i % 2
            elif kind == "all wrong":
                y_pred = 1 - y_true
            r = report_from_predictions(y_true, y_pred)
            assert (r.accuracy, r.f1, r.macro_f1) == reference_report(y_true.tolist(), y_pred.tolist()), kind
            assert r.n == n


def fitted(split, **dim_overrides):
    vocab = build_vocab((e.text for e in split), min_freq=1)
    dims = dict(vocab_size=len(vocab), d_emb=8, hidden=8, d_feat=8, dropout=0.0)
    dims.update(dim_overrides)
    return vocab, encode_examples(split, vocab, 16), init_params(0, EncoderDims(**dims))


class TestPredictAndEvaluate:
    def test_equal_logits_predict_class_zero(self):
        train, _, _ = generate_confound_corpus(6, 0.5, seed=0)
        vocab, enc, params = fitted(train)
        for _, t in params.named():
            t.values[:] = 0.0  # zero net: every logit row is [0, 0]
        assert (predict(params, enc, batch_size=4) == 0).all()

    def test_batch_size_invariance(self):
        train, _, _ = generate_confound_corpus(9, 0.5, seed=1)  # 18 examples, ragged tail
        vocab, enc, params = fitted(train)
        p1 = predict(params, enc, batch_size=1)
        p16 = predict(params, enc, batch_size=16)
        np.testing.assert_array_equal(p1, p16)
        r1 = evaluate(params, enc, batch_size=1)
        r16 = evaluate(params, enc, batch_size=16)
        assert r1 == r16

    def test_features_are_batch_size_invariant(self):
        train, _, _ = generate_confound_corpus(6, 0.5, seed=2)
        vocab, enc, params = fitted(train)
        f3 = features_of(params, enc, batch_size=3)
        f16 = features_of(params, enc, batch_size=16)
        assert f3.shape == (len(enc), 8)
        np.testing.assert_array_equal(f3, f16)

    @pytest.mark.parametrize("batch_size", [1, 3, 16])
    def test_one_loop_equals_per_batch_forwards(self, batch_size):
        train, _, _ = generate_confound_corpus(10, 0.5, seed=9)
        vocab, enc, params = fitted(train, dropout=0.5)  # eval mode must ignore it
        enc = enc[:19]  # ragged tails: 1 at batch size 3, 3 at batch size 16
        outs = [forward(params, b, training=False) for b in iter_eval_batches(enc, batch_size)]
        logits = np.concatenate([o.logits.values for o in outs])
        feats = np.concatenate([o.feature.values for o in outs])
        np.testing.assert_array_equal(predict(params, enc, batch_size), np.argmax(logits, axis=1))
        got = features_of(params, enc, batch_size)
        assert got.shape == feats.shape and got.tobytes() == feats.tobytes()

    def test_evaluate_empty_split_rejected(self):
        train, _, _ = generate_confound_corpus(4, 0.5, seed=3)
        _, enc, params = fitted(train)
        with pytest.raises(ValueError):
            evaluate(params, enc[:0], batch_size=4)


def reference_export(feats, split) -> bytes:
    """The per-float formatter export_embeddings used before, kept as the oracle."""
    lines = []
    for e, f in zip(split, feats):
        text = e.text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")
        lines.append("\t".join(["%.9g" % v for v in f] + [str(e.label), text]) + "\n")
    return "".join(lines).encode("utf-8")


class TestExportEmbeddings:
    def test_bytes_equal_the_per_float_reference(self, tmp_path):
        train, _, _ = generate_confound_corpus(6, 0.5, seed=8)
        vocab, enc, params = fitted(train)
        path = tmp_path / "emb.tsv"
        export_embeddings(params, enc, path, batch_size=4)
        assert path.read_bytes() == reference_export(features_of(params, enc, batch_size=4), enc)

    def test_extreme_values_and_escapes_equal_the_reference(self, tmp_path, monkeypatch):
        feats = np.random.default_rng(9).normal(0.0, 1.0, (4, 6))
        feats[0, :4] = [-0.0, 5e-324, 1e-300, 1e20]
        feats[1, :4] = [-5e-324, -1e-300, -1e20, 0.0]
        examples = [
            Example("a\ttab", 0),
            Example("a\nnewline", 1),
            Example("a\rreturn, 100% sure", 0),
            Example("a\\backslash\\t", 1),
        ]
        split = encode_examples(examples, build_vocab(["a"], min_freq=1), 4)
        monkeypatch.setattr(metrics, "features_of", lambda params, split, batch_size: feats)
        path = tmp_path / "emb.tsv"
        export_embeddings(None, split, path)
        assert path.read_bytes() == reference_export(feats, split)
        first_row = path.read_text().splitlines()[0].split("\t")
        assert first_row[:4] == ["-0", "4.94065646e-324", "1e-300", "1e+20"]

    def test_row_format(self, tmp_path):
        train, _, _ = generate_confound_corpus(4, 0.5, seed=4)
        vocab, enc, params = fitted(train)
        path = tmp_path / "emb.tsv"
        export_embeddings(params, enc, path, batch_size=4)
        lines = path.read_text().splitlines()
        assert len(lines) == len(enc)
        feats = features_of(params, enc, batch_size=4)
        for line, e, f in zip(lines, enc, feats):
            cells = line.split("\t")
            assert len(cells) == 8 + 2  # d_feat floats, label, text
            np.testing.assert_allclose([float(c) for c in cells[:8]], f, rtol=1e-8)
            assert cells[8] == str(e.label)
            assert cells[9] == e.text  # corpus text has no tabs or newlines

    def test_tabs_and_newlines_escaped(self, tmp_path):
        examples = [
            Example("tricky\ttext", 0),
            Example("line\nbreak\rback\\slash", 1),
        ]
        vocab = build_vocab(["tok tok"], min_freq=1)
        params = init_params(0, EncoderDims(vocab_size=len(vocab), d_emb=2, hidden=2, d_feat=2))
        path = tmp_path / "emb.tsv"
        export_embeddings(params, encode_examples(examples, vocab, 4), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].split("\t")[-1] == "tricky\\ttext"
        assert lines[1].split("\t")[-1] == "line\\nbreak\\rback\\\\slash"

    def test_rerun_is_byte_identical(self, tmp_path):
        train, _, _ = generate_confound_corpus(4, 0.5, seed=5)
        vocab, enc, params = fitted(train)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        export_embeddings(params, enc, a)
        export_embeddings(params, enc, b)
        assert a.read_bytes() == b.read_bytes()


def handcrafted_classifier(vocab, kind):
    """Zeroed net with a wired-in decision rule, for probe oracle cases.

    'identity': predicts hate exactly when an identity token is present.
    'context': predicts hate exactly when a bare negative adjective is
    present (any negation token vetoes), matching the true labels.
    """
    dims = EncoderDims(len(vocab), d_emb=2, hidden=2, d_feat=2, dropout=0.0, activation="relu")
    params = init_params(0, dims)
    for _, t in params.named():
        t.values[:] = 0.0
    params.w1.values[:] = np.eye(2)
    params.w2.values[:] = np.eye(2)
    if kind == "identity":
        for tok in IDENTITY_TOKENS:
            if tok in vocab.token_to_id:
                params.emb.values[vocab.token_to_id[tok], 0] = 1.0
        params.wh.values[0, 1] = 1.0  # logit1 = identity fraction, logit0 = 0
    else:
        for tok in _NEG_ADJ:
            if tok in vocab.token_to_id:
                params.emb.values[vocab.token_to_id[tok], 0] = 1.0
        for tok in _NEGATION:
            if tok in vocab.token_to_id:
                params.emb.values[vocab.token_to_id[tok], 1] = 1.0
        params.wh.values[0, 1] = 1.0
        params.wh.values[1, 1] = -10.0  # any negation token outweighs the adjectives
    return params


def padded(enc, max_len):
    """The split with its id table padded with PAD columns out to max_len."""
    ids = np.pad(enc.ids, ((0, 0), (0, max_len - enc.ids.shape[1])), constant_values=PAD_ID)
    return EncodedSplit(ids, enc.labels, enc.texts)


class TestTableWidth:
    @pytest.mark.parametrize("batch_size", [1, 5, 16])
    def test_pad_columns_change_no_result(self, tmp_path, batch_size):
        train, _, _ = generate_confound_corpus(10, 0.5, seed=4)
        _, enc, params = fitted(train, dropout=0.5)
        wide = padded(enc, 16)
        assert enc.ids.shape[1] < 16 == wide.ids.shape[1]
        assert predict(params, enc, batch_size).tobytes() == predict(params, wide, batch_size).tobytes()
        assert features_of(params, enc, batch_size).tobytes() == features_of(params, wide, batch_size).tobytes()
        export_embeddings(params, enc, tmp_path / "narrow.tsv", batch_size)
        export_embeddings(params, wide, tmp_path / "wide.tsv", batch_size)
        assert (tmp_path / "narrow.tsv").read_bytes() == (tmp_path / "wide.tsv").read_bytes()


class TestConfoundProbe:
    def test_identity_shortcut_scores_full_fpr(self):
        _, _, test = generate_confound_corpus(16, 1.0, seed=6)
        vocab = build_vocab((e.text for e in test), min_freq=1)
        enc = encode_examples(test, vocab, 16)
        probe = confound_probe(handcrafted_classifier(vocab, "identity"), enc, batch_size=4)
        assert probe["identity_fpr"] == 1.0
        assert probe["identity_nonhate_n"] == sum(
            1 for e in test if e.label == 0 and has_identity_token(e.text)
        )
        assert probe["accuracy"] < 1.0  # shortcut misfires on balanced identity usage

    def test_context_oracle_scores_zero_fpr(self):
        _, _, test = generate_confound_corpus(16, 1.0, seed=7)
        vocab = build_vocab((e.text for e in test), min_freq=1)
        enc = encode_examples(test, vocab, 16)
        probe = confound_probe(handcrafted_classifier(vocab, "context"), enc, batch_size=4)
        assert probe["identity_fpr"] == 0.0
        assert probe["accuracy"] == 1.0 and probe["macro_f1"] == 1.0

    def test_split_without_identity_tokens_rejected(self, monkeypatch):
        examples = [Example("plain words only", 0), Example("more words", 1)]
        vocab = build_vocab(["plain words only more words"], min_freq=1)
        params = init_params(0, EncoderDims(len(vocab), d_emb=2, hidden=2, d_feat=2))

        def no_forward(*args, **kwargs):
            raise AssertionError("the probe ran a forward on a split it rejects")

        # rejected before any forward
        monkeypatch.setattr(metrics, "forward", no_forward)
        with pytest.raises(ValueError, match="identity"):
            confound_probe(params, encode_examples(examples, vocab, 3))

    def counted_identity_tests(self, monkeypatch) -> list[str]:
        seen = []

        def counting(text):
            seen.append(text)
            return has_identity_token(text)

        monkeypatch.setattr(metrics, "has_identity_token", counting)
        return seen

    def test_tests_only_the_non_hate_texts(self, monkeypatch):
        _, _, test = generate_confound_corpus(16, 0.5, seed=12)
        vocab = build_vocab((e.text for e in test), min_freq=1)
        enc = encode_examples(test, vocab, 16)
        non_hate = [e.text for e in test if e.label == 0]
        assert any(has_identity_token(t) for t in non_hate)
        seen = self.counted_identity_tests(monkeypatch)
        probe = confound_probe(handcrafted_classifier(vocab, "identity"), enc, batch_size=4)
        assert seen == non_hate
        assert probe["identity_nonhate_n"] == sum(map(has_identity_token, non_hate)) > 0

    def test_identity_tokens_only_in_hate_rows(self, monkeypatch):
        word = IDENTITY_TOKENS[0]
        examples = [
            Example("plain words only", 0),
            Example("more plain words", 0),
            Example("hateful plain words", 1),
            Example(f"hateful {word} words", 1),
            Example(f"{word} again", 1),
        ]
        vocab = build_vocab((e.text for e in examples), min_freq=1)
        params = init_params(0, EncoderDims(len(vocab), d_emb=2, hidden=2, d_feat=2))
        seen = self.counted_identity_tests(monkeypatch)
        probe = confound_probe(params, encode_examples(examples, vocab, 4))
        # both non-hate texts, then the hate texts up to the first identity one
        assert seen == [e.text for e in examples[:4]]
        assert probe["identity_nonhate_n"] == 0 and probe["identity_fpr"] == 0.0

    @pytest.mark.parametrize("kind", ["identity", "context", "random"])
    def test_overall_scores_equal_evaluate(self, kind):
        _, _, test = generate_confound_corpus(16, 0.5, seed=11)
        vocab = build_vocab((e.text for e in test), min_freq=1)
        enc = encode_examples(test, vocab, 16)
        if kind == "random":
            params = init_params(3, EncoderDims(len(vocab), d_emb=8, hidden=8, d_feat=8))
        else:
            params = handcrafted_classifier(vocab, kind)
        probe = confound_probe(params, enc, batch_size=5)
        report = evaluate(params, enc, batch_size=5)
        assert probe["accuracy"] == report.accuracy and probe["macro_f1"] == report.macro_f1

    def test_probe_keys(self):
        _, _, test = generate_confound_corpus(8, 0.5, seed=8)
        vocab = build_vocab((e.text for e in test), min_freq=1)
        enc = encode_examples(test, vocab, 16)
        probe = confound_probe(handcrafted_classifier(vocab, "identity"), enc)
        assert set(probe) == {"accuracy", "macro_f1", "identity_nonhate_n", "identity_fpr"}
