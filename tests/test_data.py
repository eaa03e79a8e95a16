import json
import mmap
import re
import string
import sys
from collections import Counter

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
# every code point that str.split() and regex \s split on; with letters (one
# a capital whose lowercase is two code points) it makes punctuation-free text
_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
    "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
_SPLIT_ALPHABET = _WHITESPACE + "\u0130\u00df\u00c9aZ9_"


def _fuzz(alphabet: str, seed: int, n: int, max_chars: int) -> list[str]:
    rng = np.random.default_rng(seed)
    chars = list(alphabet)
    return ["".join(rng.choice(chars, size=int(rng.integers(0, max_chars)))) for _ in range(n)]


def test_regex_whitespace_is_str_split_whitespace():
    r"""tokenize's split route is exact only while regex \s matches the code
    points str.split() splits on and the punctuation it looks for is ASCII."""
    chars = [chr(c) for c in range(sys.maxunicode + 1)]
    split_ws = {c for c in chars if not c.split()}
    assert set(re.findall(r"\s", "".join(chars))) == split_ws
    assert split_ws == set(_WHITESPACE)
    assert string.punctuation.isascii()


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
        for text in _fuzz(_FUZZ_ALPHABET, 0, 3000, 30):
            assert tokenize(text) == reference_tokenize(text), repr(text)

    def test_fuzzed_punctuation_free_strings_match_reference(self):
        for text in _fuzz(_SPLIT_ALPHABET, 1, 3000, 40):
            assert tokenize(text) == reference_tokenize(text), repr(text)

    @pytest.mark.parametrize("limit", [1, 3, 64])
    @pytest.mark.parametrize("sep", [" ", "\u3000", ", "], ids=["space", "ideographic-space", "comma"])
    def test_limit_is_a_prefix_of_the_reference(self, limit, sep):
        words = [f"W{i}\u0130" for i in range(limit + 2)]
        texts = _fuzz(_SPLIT_ALPHABET, limit, 500, 3 * limit + 10) + _fuzz(_FUZZ_ALPHABET, limit, 500, 3 * limit + 10)
        for n in (limit - 1, limit, limit + 1):
            for tail in ("", " ", "\n\u2029 "):
                texts.append(sep.join(words[:n]) + tail)
                texts.append(tail + sep.join(words[:n]) + tail)
        for text in texts:
            assert tokenize(text, limit) == reference_tokenize(text)[:limit], repr(text)

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

    @pytest.mark.parametrize("seed", range(4))
    def test_order_matches_one_key_sort(self, seed):
        rng = np.random.default_rng(seed)
        # few distinct counts over many types, so ties straddle the cut
        texts = [" ".join(f"t{int(i)}" for i in rng.integers(0, 300, size=40)) for _ in range(30)]
        counts = Counter(t for text in texts for t in reference_tokenize(text))
        for min_freq in (1, 3):
            ranked = sorted((t for t, c in counts.items() if c >= min_freq), key=lambda t: (-counts[t], t))
            for max_size in (12, 52, 152):
                assert counts[ranked[max_size - 3]] == counts[ranked[max_size - 2]]
                v = build_vocab(texts, min_freq=min_freq, max_size=max_size)
                assert v.id_to_token[2:] == ranked[: max_size - 2]

    def test_min_freq_filters(self):
        v = build_vocab(["common common rare"], min_freq=2)
        assert "common" in v.token_to_id and "rare" not in v.token_to_id

    def test_max_size_cap(self):
        texts = [" ".join(f"tok{i}" for i in range(50))] * 2
        v = build_vocab(texts, min_freq=1, max_size=10)
        assert len(v) == 10

    def test_encode_pads_and_truncates(self):
        # encode gives a text's ids alone; the encoded table is as wide as
        # its longest row and pads the shorter ones
        v = build_vocab(["x y z"], min_freq=1)
        ids = [v.token_to_id["x"], v.token_to_id["y"]]
        assert v.encode("x y", max_len=5) == ids
        assert encode_examples([Example("x y", 0)], v, max_len=5).ids.tolist() == [ids]
        two = encode_examples([Example("x y", 0), Example("x y z", 1)], v, max_len=5)
        assert two.ids.tolist() == [ids + [PAD_ID], ids + [v.token_to_id["z"]]]
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
        original = enc.ids
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

    def test_batches_are_the_rows_of_the_seeds_permutation(self):
        enc = self._encoded(33)
        perm = np.random.default_rng(9).permutation(33)[:32]  # the final singleton is dropped
        batches = make_batches(enc, 16, shuffle_seed=9)
        np.testing.assert_array_equal(np.concatenate([b.token_ids for b in batches]), enc.ids[perm])
        np.testing.assert_array_equal(np.concatenate([b.labels for b in batches]), enc.labels[perm])

    def test_encoded_token_ids_trailing_pads_only(self):
        for ids in self._encoded(10).ids:
            nz = np.flatnonzero(ids != PAD_ID)
            if nz.size:
                assert (ids[: nz[-1] + 1] != PAD_ID).all()


class TestEncodedSplit:
    TEXTS = ("a b a", "b, c! a a a a a a a a", "novel words only", "c")

    def _split(self, max_len=6):
        examples = [Example(t, i % 2) for i, t in enumerate(self.TEXTS)]
        vocab = build_vocab(self.TEXTS[:2], min_freq=1)
        return examples, vocab, encode_examples(examples, vocab, max_len)

    def test_rows_hold_the_texts_ids_then_pad(self):
        # the table is as wide as its longest row, at most max_len
        for max_len, width in ((1, 1), (3, 3), (6, 6), (64, 12)):
            _, vocab, enc = self._split(max_len)
            assert width == max(len(vocab.encode(t, max_len)) for t in self.TEXTS)
            assert enc.ids.dtype == np.int64 and enc.ids.shape == (len(self.TEXTS), width)
            for text, row in zip(self.TEXTS, enc.ids.tolist()):
                ids = vocab.encode(text, max_len)
                assert row == ids + [PAD_ID] * (width - len(ids))
        assert enc.labels.dtype == np.int64 and enc.labels.tolist() == [0, 1, 0, 1]
        assert enc.texts == list(self.TEXTS)

    def test_slice_is_views_of_the_split(self):
        _, _, enc = self._split()
        part = enc[1:3]
        assert len(part) == 2 and part.texts == list(self.TEXTS[1:3])
        assert np.shares_memory(part.ids, enc.ids) and np.shares_memory(part.labels, enc.labels)
        np.testing.assert_array_equal(part.ids, enc.ids[1:3])
        batch = next(data.iter_eval_batches(enc, 2))
        assert np.shares_memory(batch.token_ids, enc.ids)

    @staticmethod
    def _owner(table):
        while isinstance(table, np.ndarray):
            table = table.base
        return getattr(table, "obj", table)

    def test_a_large_table_has_a_mapping_of_its_own(self):
        # 300 rows of 64 ids take 150 KiB: freeing the table unmaps it
        vocab = build_vocab(["a b"], min_freq=1)
        ids = encode_examples([Example("a b " * 40, 0)] * 300, vocab, 64).ids
        assert ids.shape == (300, 64)
        assert isinstance(self._owner(ids), mmap.mmap)

    def test_a_short_text_table_is_a_heap_array(self):
        # 300 rows of 2 ids take 4.7 KiB, not 300 rows of max_len
        vocab = build_vocab(["a b"], min_freq=1)
        ids = encode_examples([Example("a b", 0)] * 300, vocab, 64).ids
        assert ids.shape == (300, 2)
        assert not isinstance(self._owner(ids), mmap.mmap)

    def test_iteration_yields_text_label_pairs(self):
        examples, _, enc = self._split()
        assert list(enc) == examples
        assert all(type(e.label) is int for e in enc)

    def test_empty_split(self):
        _, vocab, _ = self._split()
        enc = encode_examples([], vocab, 6)
        assert len(enc) == 0 and enc.ids.shape == (0, 0) and list(enc) == []
        with pytest.raises(ValueError):
            make_batches(enc, 4, shuffle_seed=0)
        with pytest.raises(ValueError):
            next(data.iter_eval_batches(enc, 4))


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
