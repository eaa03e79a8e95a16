"""Text pipeline: tokenization, vocabulary, JSONL ingestion, batching, and
the synthetic confound corpus generator.

The corpus generator builds binary hate/non-hate sentences from templates
where the class is decided by context tokens (negative adjectives, negation
words), never by the subject. A configurable fraction of each class uses an
invented identity-group subject, which lets tests manufacture a spurious
identity-to-label correlation in train while keeping the test split balanced.
"""

from __future__ import annotations

import json
import re
import string
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import blocks, fileio
from .seeding import STREAM_DATA, substream

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

# a run of word characters (neither whitespace nor punctuation), or one
# punctuation character. Regex \s and str.split() split on the same code
# points (tests/test_data.py checks every one), so on a text without ASCII
# punctuation _TOKEN.findall returns exactly str.split()'s chunks
_PUNCT = re.escape(string.punctuation)
_WORD_CHAR = rf"[^\s{_PUNCT}]"
_TOKEN = re.compile(rf"{_WORD_CHAR}+|[{_PUNCT}]")
_PUNCT_CHAR = re.compile(rf"[{_PUNCT}]")


def tokenize(text: str, limit: int | None = None) -> list[str]:
    """Lowercase, split on whitespace, split punctuation into 1-char tokens.

    With ``limit``, only the first ``limit`` tokens; a text without
    punctuation is then split no further than its ``limit``-th token.
    """
    low = text.lower()
    if _PUNCT_CHAR.search(low) is None:
        return low.split() if limit is None else low.split(None, limit)[:limit]
    return _TOKEN.findall(low)[:limit]


@dataclass
class Example:
    text: str
    label: int


@dataclass
class EncodedSplit:
    """A split encoded once: ``ids`` [N x W] int64, W the longest text's id
    count (row i is text i's ids, then PAD), ``labels`` [N] int64 and
    ``texts``. A slice is an ``EncodedSplit`` of views."""

    ids: np.ndarray
    labels: np.ndarray
    texts: list[str]

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, rows: slice) -> EncodedSplit:
        return EncodedSplit(self.ids[rows], self.labels[rows], self.texts[rows])

    # perfbench's eval-probe export check iterates a split's examples
    def __iter__(self):
        return map(Example, self.texts, self.labels.tolist())


class Vocabulary:
    """token -> id map with PAD=0 and UNK=1 reserved; ids contiguous [0, V)."""

    def __init__(self, tokens: list[str]):
        if tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ValueError(f"vocabulary must start with {PAD_TOKEN!r}, {UNK_TOKEN!r}")
        if len(tokens) != len(set(tokens)):
            raise ValueError("duplicate token in vocabulary")
        self.id_to_token = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, text: str, max_len: int) -> list[int]:
        """Ids of the first max_len tokens, unknown ones UNK; not padded."""
        return [self.token_to_id.get(t, UNK_ID) for t in tokenize(text, max_len)]

    def save(self, path) -> None:
        # one token per line, line number = id
        fileio.atomic_write_text(path, "".join(t + "\n" for t in self.id_to_token))


def build_vocab(texts, min_freq: int = 2, max_size: int = 20000) -> Vocabulary:
    """Frequency-then-lexicographic vocabulary over tokenized texts.

    Only the training split should be passed here.
    """
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(tokenize(text))
    # lexicographic, then a stable sort by falling count
    kept = sorted(t for t, c in counts.items() if c >= min_freq)
    kept.sort(key=counts.__getitem__, reverse=True)
    return Vocabulary([PAD_TOKEN, UNK_TOKEN] + kept[: max_size - 2])


def encode_examples(examples, vocab: Vocabulary, max_len: int = 64) -> EncodedSplit:
    """The examples' id table, labels and texts, in order. The table is as
    wide as the longest text's ids (at most ``max_len``) and comes from
    ``blocks.mapped_zeros``, so a large one has a mapping of its own;
    PAD_ID is 0, so each zero row gets only its text's ids."""
    texts = [e.text for e in examples]
    rows = [vocab.encode(text, max_len) for text in texts]
    ids = blocks.mapped_zeros((len(rows), max(map(len, rows), default=0)), np.int64)
    for row, tokens in zip(ids, rows):
        row[: len(tokens)] = tokens
    return EncodedSplit(ids, np.array([e.label for e in examples], dtype=np.int64), texts)


def load_jsonl(path) -> list[Example]:
    """Order-preserving load of {"text": str, "label": 0|1} records whose
    text is valid Unicode (UTF-8 can encode it) and holds at least one token.

    Lines holding only whitespace (a trailing blank line, say) are skipped;
    errors name the physical line number in the file.
    """
    out: list[Example] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: line {lineno}: malformed JSON: {e}") from e
            if not isinstance(rec, dict) or not isinstance(rec.get("text"), str):
                raise ValueError(f"{path}: line {lineno}: record needs a string 'text' field")
            try:
                rec["text"].encode("utf-8")
            except UnicodeEncodeError as e:
                raise ValueError(f"{path}: line {lineno}: record text is not valid Unicode: {e.reason}") from e
            if not tokenize(rec["text"], 1):
                raise ValueError(f"{path}: line {lineno}: record text holds no token")
            label = rec.get("label")
            if isinstance(label, bool) or label not in (0, 1):
                raise ValueError(f"{path}: line {lineno}: label must be 0 or 1, got {label!r}")
            out.append(Example(rec["text"], int(label)))
    return out


def write_jsonl(path, examples) -> None:
    lines = "".join(
        json.dumps({"text": e.text, "label": e.label}) + "\n" for e in examples
    )
    fileio.atomic_write_text(path, lines)


@dataclass
class Batch:
    token_ids: np.ndarray  # [B x W] int64, W the split's table width
    mask: np.ndarray  # [B x W] bool, true where token != PAD
    labels: np.ndarray  # [B] int64

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]


def _to_batch(split: EncodedSplit, rows) -> Batch:
    ids = split.ids[rows]
    return Batch(token_ids=ids, mask=ids != PAD_ID, labels=split.labels[rows])


def make_batches(split: EncodedSplit, batch_size: int, shuffle_seed: int) -> list[Batch]:
    """Deterministic shuffle, fixed-size batches; a final size-1 batch is dropped.

    A one-anchor batch degenerates the contrastive term, so the final batch is
    kept only when it has at least 2 examples.
    """
    if not split:
        raise ValueError("make_batches over an empty corpus")
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    order = np.random.default_rng(int(shuffle_seed)).permutation(len(split))
    parts = (order[start : start + batch_size] for start in range(0, len(order), batch_size))
    return [_to_batch(split, rows) for rows in parts if rows.size >= 2]


def iter_eval_batches(split: EncodedSplit, rows: int):
    """Order-preserving batches of ``rows`` rows covering every example, the
    last one ragged (a 1-row tail kept). ``metrics`` sizes them by memory."""
    if not split:
        raise ValueError("empty split")
    for start in range(0, len(split), rows):
        yield _to_batch(split, slice(start, start + rows))


# ---------------------------------------------------------------------------
# synthetic confound corpus
# ---------------------------------------------------------------------------

IDENTITY_TOKENS = ("blorgs", "snarps", "quibs", "zerts")
# an identity word that is a whole token: no word character on either side
_IDENTITY_RE = re.compile(
    rf"(?<!{_WORD_CHAR})(?:{'|'.join(map(re.escape, IDENTITY_TOKENS))})(?!{_WORD_CHAR})"
)
_NEUTRAL_SUBJECTS = ("people", "folks", "neighbors", "students", "workers", "drivers")
_NEG_ADJ = ("awful", "vile", "worthless", "dreadful", "rotten", "nasty")
_POS_ADJ = ("kind", "gentle", "brilliant", "cheerful", "generous", "honest")


# the class is carried by context tokens: the stated forms hold bare
# adjectives (negative for hate, positive for plain non-hate), and the negated
# forms flip the same negative adjectives to non-hate (the hard negatives)
_STATED = ("those {s} are {a1} and {a2}", "{s} seem so {a1} , truly {a2}")
_NEGATED = ("those {s} are not {a1} and never {a2}", "{s} never seem {a1} , not even {a2}")


def _sentence(rng: np.random.Generator, kind: str, subject: str) -> str:
    a1, a2 = rng.choice(_POS_ADJ if kind == "plain" else _NEG_ADJ, size=2, replace=False)
    forms = _NEGATED if kind == "hardneg" else _STATED
    return forms[int(rng.integers(len(forms)))].format(s=subject, a1=a1, a2=a2)


def _exact_flags(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    # exact-count assignment so corpus-level frequencies are tight, not Bernoulli
    k = int(round(rate * n))
    flags = np.zeros(n, dtype=bool)
    flags[:k] = True
    rng.shuffle(flags)
    return flags


def _split(rng: np.random.Generator, n_per_class: int, id_rate_hate: float, id_rate_non: float) -> list[Example]:
    out: list[Example] = []
    id_flags = _exact_flags(rng, n_per_class, id_rate_hate)
    for i in range(n_per_class):
        pool = IDENTITY_TOKENS if id_flags[i] else _NEUTRAL_SUBJECTS
        subject = str(rng.choice(pool))
        out.append(Example(_sentence(rng, "hate", subject), 1))
    id_flags = _exact_flags(rng, n_per_class, id_rate_non)
    hard_flags = _exact_flags(rng, n_per_class, 0.5)
    for i in range(n_per_class):
        pool = IDENTITY_TOKENS if id_flags[i] else _NEUTRAL_SUBJECTS
        subject = str(rng.choice(pool))
        kind = "hardneg" if hard_flags[i] else "plain"
        out.append(Example(_sentence(rng, kind, subject), 0))
    perm = rng.permutation(len(out))
    return [out[i] for i in perm]


def generate_confound_corpus(
    n_per_class: int, confound_rate: float, seed: int
) -> tuple[list[Example], list[Example], list[Example]]:
    """(train, val, test) splits with an engineered identity-label confound.

    In train and val, identity-group subjects appear in hate sentences with
    probability confound_rate and in non-hate sentences with probability
    1 - confound_rate (exact counts). The test split is balanced: both classes
    carry identity subjects at rate 0.5. Labels are always decided by context
    tokens, so the identity correlation is a pure shortcut.
    """
    if not 0.0 <= confound_rate <= 1.0:
        raise ValueError(f"confound_rate must be in [0, 1], got {confound_rate}")
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    n_held = max(2, n_per_class // 4)
    train = _split(substream(seed, STREAM_DATA + "-train"), n_per_class, confound_rate, 1.0 - confound_rate)
    val = _split(substream(seed, STREAM_DATA + "-val"), n_held, confound_rate, 1.0 - confound_rate)
    test = _split(substream(seed, STREAM_DATA + "-test"), n_held, 0.5, 0.5)
    return train, val, test


def has_identity_token(text: str) -> bool:
    """Whether ``tokenize(text)`` holds an identity token."""
    return _IDENTITY_RE.search(text.lower()) is not None
