import json
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lahn import data
from lahn.data import (
    IDENTITY_TOKENS,
    PAD_ID,
    UNK_ID,
    Example,
    build_vocab,
    encode_examples,
    generate_confound_corpus,
    load_jsonl,
    make_batches,
    tokenize,
    write_jsonl,
)


_REFERENCE_PUNCT = frozenset(string.punctuation)


def reference_tokenize(text: str) -> list[str]:
    """The original per-character tokenizer, kept as the oracle."""
    out: list[str] = []
    for chunk in text.lower().split():
        run: list[str] = []
        for ch in chunk:
            if ch in _REFERENCE_PUNCT:
                if run:
                    out.append("".join(run))
                    run = []
                out.append(ch)
            else:
                run.append(ch)
        if run:
            out.append("".join(run))
    return out


# whitespace that str.split() and regex \s both know beyond the ASCII set,
# a character whose lowercase is two code points, punctuation, letters
_FUZZ_ALPHABET = (
    "\x1c\x1d\x1e\x1f\x85\xa0\u3000\u2028\u2029\t\n\r\x0b\x0c "
    "\u0130\u00c9\u00df" + string.punctuation + "aZ9_"
)


class TestTokenize:
    @pytest.mark.parametrize(
        "text",
        [
            "a\x1cb\x1dc\x1ed\x1fe",
            "x\x85y\xa0z",
            "left\u3000right",
            "\u0130stanbul, \u0130I!",
            "tab\tand\u2028line",
        ],
    )
    def test_unicode_whitespace_and_casing_match_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)

    def test_fuzzed_strings_match_reference(self):
        rng = np.random.default_rng(0)
        alphabet = list(_FUZZ_ALPHABET)
        for _ in range(3000):
            text = "".join(rng.choice(alphabet, size=int(rng.integers(0, 30))))
            assert tokenize(text) == reference_tokenize(text), repr(text)

    @given(st.text(max_size=60))
    @settings(max_examples=300)
    def test_arbitrary_text_matches_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)

    def test_punctuation_becomes_single_char_tokens(self):
        assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]

    def test_whitespace_collapse(self):
        assert tokenize("A  B") == ["a", "b"]

    def test_empty(self):
        assert tokenize("") == []

    def test_interior_punctuation(self):
        assert tokenize("don't stop") == ["don", "'", "t", "stop"]

    @given(st.text(max_size=80))
    @settings(max_examples=100)
    def test_tokens_are_lowercase_and_whitespace_free(self, text):
        for tok in tokenize(text):
            assert tok == tok.lower()
            assert tok and not any(c.isspace() for c in tok)


class TestVocabulary:
    def test_reserved_ids(self):
        v = build_vocab(["a a b"], min_freq=1)
        assert v.token_to_id["<pad>"] == PAD_ID
        assert v.token_to_id["<unk>"] == UNK_ID

    def test_frequency_then_lexicographic_order(self):
        v = build_vocab(["b b c c a a a"], min_freq=1)
        assert v.id_to_token[2:] == ["a", "b", "c"]

    def test_min_freq_filters(self):
        v = build_vocab(["common common rare"], min_freq=2)
        assert "common" in v.token_to_id and "rare" not in v.token_to_id

    def test_max_size_cap(self):
        texts = [" ".join(f"tok{i}" for i in range(50))] * 2
        v = build_vocab(texts, min_freq=1, max_size=10)
        assert len(v) == 10

    def test_encode_pads_and_truncates(self):
        v = build_vocab(["x y z"], min_freq=1)
        enc = v.encode("x y", max_len=5)
        assert len(enc) == 5 and enc[2:] == [PAD_ID] * 3
        assert len(v.encode("x y z x y z", max_len=4)) == 4

    def test_unknown_token_maps_to_unk(self):
        v = build_vocab(["x"], min_freq=1)
        assert v.encode("novel", max_len=2)[0] == UNK_ID

    def test_save_load_round_trip(self, tmp_path):
        v = build_vocab(["alpha beta beta gamma"], min_freq=1)
        path = tmp_path / "vocab.txt"
        v.save(path)
        # one token per line, line number = id
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == v.id_to_token
        assert lines[0] == "<pad>" and lines[1] == "<unk>"

    def test_coverage_on_synthetic_corpus(self):
        train, _, _ = generate_confound_corpus(200, 0.5, seed=0)
        v = build_vocab((e.text for e in train))  # default min_freq=2
        total = hits = 0
        for e in train:
            for tok in tokenize(e.text):
                total += 1
                hits += tok in v.token_to_id
        assert hits / total >= 0.99


class TestJsonl:
    def test_order_preserving_load(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text": "a", "label": 0}\n{"text": "b", "label": 1}\n{"text": "c", "label": 0}\n')
        ex = load_jsonl(p)
        assert [e.text for e in ex] == ["a", "b", "c"]
        assert [e.label for e in ex] == [0, 1, 0]

    def test_bad_label_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text": "a", "label": 0}\n{"text": "b", "label": 2}\n')
        with pytest.raises(ValueError, match="line 2"):
            load_jsonl(p)

    def test_malformed_json_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text": "a", "label": 0}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_jsonl(p)

    def test_boolean_label_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text": "a", "label": true}\n')
        with pytest.raises(ValueError, match="label"):
            load_jsonl(p)

    def test_missing_text_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"label": 1}\n')
        with pytest.raises(ValueError, match="text"):
            load_jsonl(p)

    @pytest.mark.parametrize("text", ["", " \t ", "\u3000"])
    def test_record_without_a_token_names_line(self, tmp_path, text):
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps({"text": "a", "label": 0}) + "\n" + json.dumps({"text": text, "label": 1}) + "\n")
        with pytest.raises(ValueError, match="line 2: record text holds no token"):
            load_jsonl(p)

    def test_whitespace_only_lines_are_skipped(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text": "a", "label": 0}\n\n  \t\n{"text": "b", "label": 1}\n\n')
        assert [e.text for e in load_jsonl(p)] == ["a", "b"]

    def test_errors_name_physical_lines_past_blank_ones(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('\n{"text": "a", "label": 0}\n\nnot json\n')
        with pytest.raises(ValueError, match="line 4"):
            load_jsonl(p)

    def test_generated_corpus_round_trips(self, tmp_path):
        train, _, _ = generate_confound_corpus(30, 0.7, seed=5)
        p = tmp_path / "train.jsonl"
        write_jsonl(p, train)
        back = load_jsonl(p)
        assert [(e.text, e.label) for e in back] == [(e.text, e.label) for e in train]


class TestBatching:
    def _encoded(self, n):
        ex = [Example(f"tok{i % 7} filler", i % 2) for i in range(n)]
        v = build_vocab((e.text for e in ex), min_freq=1)
        return encode_examples(ex, v, max_len=8)

    def test_sizes_keep_final_batch_of_two_plus(self):
        batches = make_batches(self._encoded(35), 16, shuffle_seed=0)
        assert [b.size for b in batches] == [16, 16, 3]

    def test_final_singleton_dropped(self):
        batches = make_batches(self._encoded(17), 16, shuffle_seed=0)
        assert [b.size for b in batches] == [16]

    def test_same_seed_same_order(self):
        enc = self._encoded(40)
        a = make_batches(enc, 8, shuffle_seed=123)
        b = make_batches(enc, 8, shuffle_seed=123)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.token_ids, y.token_ids)

    def test_partition_covers_each_example_once(self):
        enc = self._encoded(35)
        batches = make_batches(enc, 16, shuffle_seed=9)
        seen = np.concatenate([b.token_ids for b in batches])
        original = np.array([e.token_ids for e in enc])
        assert seen.shape == original.shape
        assert sorted(map(tuple, seen)) == sorted(map(tuple, original))

    def test_mask_true_exactly_where_not_pad(self):
        for b in make_batches(self._encoded(20), 4, shuffle_seed=1):
            np.testing.assert_array_equal(b.mask, b.token_ids != PAD_ID)

    def test_batch_size_below_two_rejected(self):
        with pytest.raises(ValueError):
            make_batches(self._encoded(10), 1, shuffle_seed=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            make_batches([], 4, shuffle_seed=0)

    def test_encoded_token_ids_trailing_pads_only(self):
        for e in self._encoded(10):
            ids = np.array(e.token_ids)
            nz = np.flatnonzero(ids != PAD_ID)
            if nz.size:
                assert (ids[: nz[-1] + 1] != PAD_ID).all()


def identity_rate(split, label):
    flagged = [data.has_identity_token(e.text) for e in split if e.label == label]
    return sum(flagged) / len(flagged)


def reference_has_identity_token(text: str) -> bool:
    """The token-list test has_identity_token used before, kept as the oracle."""
    return not frozenset(IDENTITY_TOKENS).isdisjoint(tokenize(text))


# identity words whole, upper-cased and as letters, glued by punctuation and
# by whitespace beyond ASCII, and a character whose lowercase is two code points
_IDENTITY_FUZZ_PIECES = (
    list(IDENTITY_TOKENS)
    + [t.upper() for t in IDENTITY_TOKENS]
    + sorted(set("".join(IDENTITY_TOKENS)))
    + list(string.punctuation)
    + list("\x1c\x1d\x1e\x1f\x85\xa0\u3000\u2028 \u0130")
)


class TestHasIdentityToken:
    def test_fuzzed_strings_match_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20000):
            pieces = rng.choice(_IDENTITY_FUZZ_PIECES, size=int(rng.integers(0, 8)))
            text = "".join(pieces)
            assert data.has_identity_token(text) is reference_has_identity_token(text), repr(text)

    @given(st.lists(st.one_of(st.sampled_from(_IDENTITY_FUZZ_PIECES), st.text(max_size=3)), max_size=10))
    @settings(max_examples=300)
    def test_arbitrary_text_matches_reference(self, pieces):
        text = "".join(pieces)
        assert data.has_identity_token(text) is reference_has_identity_token(text)


class TestConfoundCorpus:
    @pytest.mark.parametrize(
        "text, want",
        [("those blorgs are kind", True), ("ZERTS!", True), ("quibs,snarps", True),
         ("blorgsville is far", False), ("no identity here", False), ("", False)],
    )
    def test_identity_token_matches_whole_tokens(self, text, want):
        assert data.has_identity_token(text) is want

    def test_rate_one_identity_iff_hate_in_train(self):
        train, val, _ = generate_confound_corpus(150, 1.0, seed=2)
        assert identity_rate(train, 1) == 1.0
        assert identity_rate(train, 0) == 0.0
        assert identity_rate(val, 1) == 1.0

    def test_test_split_balanced_within_two_percent(self):
        _, _, test = generate_confound_corpus(400, 1.0, seed=2)
        assert abs(identity_rate(test, 1) - identity_rate(test, 0)) <= 0.02

    def test_same_seed_byte_identical(self, tmp_path):
        a = generate_confound_corpus(40, 0.8, seed=11)
        b = generate_confound_corpus(40, 0.8, seed=11)
        for split_a, split_b in zip(a, b):
            assert [(e.text, e.label) for e in split_a] == [(e.text, e.label) for e in split_b]
        write_jsonl(tmp_path / "a.jsonl", a[0])
        write_jsonl(tmp_path / "b.jsonl", b[0])
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_split_sizes(self):
        train, val, test = generate_confound_corpus(1000, 0.0, seed=0)
        assert len(train) == 2000 and len(val) == 500 and len(test) == 500

    def test_class_is_decided_by_context_not_subject(self):
        # hate sentences carry bare negative adjectives; the non-hate hard
        # negatives reuse those adjectives under negation tokens
        train, _, _ = generate_confound_corpus(100, 0.5, seed=3)
        negation = {"not", "never"}
        for e in train:
            toks = set(tokenize(e.text))
            if e.label == 1:
                assert not (toks & negation)
            elif toks & set(data._NEG_ADJ):
                assert toks & negation

    def test_hard_negatives_share_context_tokens_with_hate(self):
        train, _, _ = generate_confound_corpus(100, 0.5, seed=3)
        hard = [e for e in train if e.label == 0 and set(tokenize(e.text)) & set(data._NEG_ADJ)]
        assert len(hard) > 0
        identity_bearing = [e for e in hard if data.has_identity_token(e.text)]
        assert len(identity_bearing) > 0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            generate_confound_corpus(10, 1.5, seed=0)
