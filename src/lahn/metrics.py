"""Classification metrics, embedding export, and the identity-shortcut probe.

Every evaluation forward runs without dropout in one loop that yields each
batch's features and logits, and ``evaluate`` and ``confound_probe`` share
one scoring step, so every function here is a deterministic map from
(params, split) to its result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fileio
from .data import Example, has_identity_token, iter_eval_batches
from .encoder import EncoderParams, forward


@dataclass
class ConfusionCounts:
    """Binary confusion counts, named n<true class><predicted class>."""

    n00: int  # true 0, predicted 0
    n01: int  # true 0, predicted 1
    n10: int  # true 1, predicted 0
    n11: int  # true 1, predicted 1

    @property
    def n(self) -> int:
        return self.n00 + self.n01 + self.n10 + self.n11


@dataclass
class MetricsReport:
    accuracy: float
    f1: tuple[float, float]  # per class (0, 1)
    macro_f1: float
    n: int

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "f1_class0": self.f1[0],
            "f1_class1": self.f1[1],
            "macro_f1": self.macro_f1,
            "n": self.n,
        }


def confusion(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionCounts:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    return ConfusionCounts(
        n00=int(((y_true == 0) & (y_pred == 0)).sum()),
        n01=int(((y_true == 0) & (y_pred == 1)).sum()),
        n10=int(((y_true == 1) & (y_pred == 0)).sum()),
        n11=int(((y_true == 1) & (y_pred == 1)).sum()),
    )


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    # zero division -> 0, keeping macro-F1 defined on degenerate predictions
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def report_from_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> MetricsReport:
    counts = confusion(y_true, y_pred)
    if counts.n == 0:
        raise ValueError("cannot score an empty split")
    f1 = (_f1(counts.n00, counts.n10, counts.n01), _f1(counts.n11, counts.n01, counts.n10))
    return MetricsReport(
        accuracy=(counts.n00 + counts.n11) / counts.n,
        f1=f1,
        macro_f1=(f1[0] + f1[1]) / 2,
        n=counts.n,
    )


def _eval_outputs(params: EncoderParams, split: list[Example], batch_size: int):
    """Each batch's eval-mode features [b x d_feat] and logits [b x 2], in
    split order. Callers keep only what they need of each batch, so scoring
    a split never holds all of its features."""
    for batch in iter_eval_batches(split, batch_size):
        out = forward(params, batch, training=False)
        yield out.feature.values, out.logits.values


def predict(params: EncoderParams, split: list[Example], batch_size: int = 16) -> np.ndarray:
    """Argmax predictions over eval-mode forwards; equal logits predict 0."""
    wins = [lg[:, 1] > lg[:, 0] for _, lg in _eval_outputs(params, split, batch_size)]
    return np.concatenate(wins).astype(np.int64)


def features_of(params: EncoderParams, split: list[Example], batch_size: int = 16) -> np.ndarray:
    return np.concatenate([f for f, _ in _eval_outputs(params, split, batch_size)])


def _scored(params: EncoderParams, split: list[Example], batch_size: int):
    """A split's true labels, predictions and report."""
    if not split:
        raise ValueError("cannot score an empty split")
    y_true = np.array([e.label for e in split], dtype=np.int64)
    y_pred = predict(params, split, batch_size)
    return y_true, y_pred, report_from_predictions(y_true, y_pred)


def evaluate(params: EncoderParams, split: list[Example], batch_size: int = 16) -> MetricsReport:
    return _scored(params, split, batch_size)[2]


_ESCAPES = (("\\", "\\\\"), ("\t", "\\t"), ("\n", "\\n"), ("\r", "\\r"))


def _escape(text: str) -> str:
    for raw, esc in _ESCAPES:
        text = text.replace(raw, esc)
    return text


def export_embeddings(params: EncoderParams, split: list[Example], path, batch_size: int = 16) -> None:
    """TSV rows: d_feat floats at 9 significant digits, label, escaped text."""
    feats = features_of(params, split, batch_size)
    lines = []
    for e, f in zip(split, feats):
        cells = ["%.9g" % v for v in f] + [str(e.label), _escape(e.text)]
        lines.append("\t".join(cells) + "\n")
    fileio.atomic_write_text(path, "".join(lines))


def confound_probe(params: EncoderParams, test_split: list[Example], batch_size: int = 16) -> dict:
    """Overall metrics plus the false-positive rate on identity-bearing
    non-hate examples, the signature of the identity-term shortcut."""
    id_flags = np.array([has_identity_token(e.text) for e in test_split], dtype=bool)
    if not id_flags.any():
        raise ValueError("split carries no identity tokens; not a confound test split")
    y_true, y_pred, overall = _scored(params, test_split, batch_size)
    subset = id_flags & (y_true == 0)
    n_subset = int(subset.sum())
    fpr = float(y_pred[subset].mean()) if n_subset else 0.0
    return {
        "accuracy": overall.accuracy,
        "macro_f1": overall.macro_f1,
        "identity_nonhate_n": n_subset,
        "identity_fpr": fpr,
    }
