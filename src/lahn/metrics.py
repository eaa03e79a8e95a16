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
from .data import EncodedSplit, has_identity_token, iter_eval_batches
from .encoder import EncoderParams, forward


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


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    # zero division -> 0, keeping macro-F1 defined on degenerate predictions
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def report_from_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> MetricsReport:
    """Scores 1-D labels against predictions of the same shape, all 0 or 1."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.ndim != 1 or y_true.shape != y_pred.shape:
        raise ValueError(f"labels {y_true.shape} and predictions {y_pred.shape} must be 1-D of one shape")
    if y_true.size == 0:
        raise ValueError("cannot score an empty split")
    both = np.stack([y_true, y_pred])
    if not ((both == 0) | (both == 1)).all():
        raise ValueError("labels and predictions must be 0 or 1")
    # the confusion counts, named n<true class><predicted class>
    n00, n01, n10, n11 = np.bincount((2 * both[0] + both[1]).astype(np.int64), minlength=4).tolist()
    n = n00 + n01 + n10 + n11
    f1 = (_f1(n00, n10, n01), _f1(n11, n01, n10))
    return MetricsReport(
        accuracy=(n00 + n11) / n,
        f1=f1,
        macro_f1=(f1[0] + f1[1]) / 2,
        n=n,
    )


def _eval_outputs(params: EncoderParams, split: EncodedSplit, batch_size: int):
    """Each batch's eval-mode features [b x d_feat] and logits [b x 2], in
    split order. Callers keep only what they need of each batch, so scoring
    a split never holds all of its features."""
    for batch in iter_eval_batches(split, batch_size):
        out = forward(params, batch, training=False)
        yield out.feature.values, out.logits.values


def predict(params: EncoderParams, split: EncodedSplit, batch_size: int = 16) -> np.ndarray:
    """Argmax predictions over eval-mode forwards; equal logits predict 0."""
    wins = [lg[:, 1] > lg[:, 0] for _, lg in _eval_outputs(params, split, batch_size)]
    return np.concatenate(wins).astype(np.int64)


def features_of(params: EncoderParams, split: EncodedSplit, batch_size: int = 16) -> np.ndarray:
    return np.concatenate([f for f, _ in _eval_outputs(params, split, batch_size)])


def _scored(params: EncoderParams, split: EncodedSplit, batch_size: int):
    """A split's true labels, predictions and report."""
    y_pred = predict(params, split, batch_size)
    return split.labels, y_pred, report_from_predictions(split.labels, y_pred)


def evaluate(params: EncoderParams, split: EncodedSplit, batch_size: int = 16) -> MetricsReport:
    return _scored(params, split, batch_size)[2]


_ESCAPES = (("\\", "\\\\"), ("\t", "\\t"), ("\n", "\\n"), ("\r", "\\r"))


def _escape(text: str) -> str:
    for raw, esc in _ESCAPES:
        text = text.replace(raw, esc)
    return text


def export_embeddings(params: EncoderParams, split: EncodedSplit, path, batch_size: int = 16) -> None:
    """TSV rows: d_feat floats at 9 significant digits, label, escaped text."""
    feats = features_of(params, split, batch_size)
    row = "\t".join(["%.9g"] * feats.shape[1] + ["%s", "%s"]) + "\n"
    lines = [row % (*f, y, _escape(t)) for t, y, f in zip(split.texts, split.labels.tolist(), feats.tolist())]
    fileio.atomic_write_text(path, "".join(lines))


def confound_probe(params: EncoderParams, test_split: EncodedSplit, batch_size: int = 16) -> dict:
    """Overall metrics plus the false-positive rate on identity-bearing
    non-hate examples, the signature of the identity-term shortcut. Only the
    non-hate texts are tested for the rate; the hate texts are tested, up to
    the first identity token, only when no non-hate text holds one, since a
    confound split must hold an identity token somewhere."""
    texts, labels = test_split.texts, test_split.labels
    subset = [i for i in np.flatnonzero(labels == 0).tolist() if has_identity_token(texts[i])]
    if not subset and not any(has_identity_token(t) for t, y in zip(texts, labels.tolist()) if y):
        raise ValueError("split carries no identity tokens; not a confound test split")
    _, y_pred, overall = _scored(params, test_split, batch_size)
    return {
        "accuracy": overall.accuracy,
        "macro_f1": overall.macro_f1,
        "identity_nonhate_n": len(subset),
        "identity_fpr": float(y_pred[subset].mean()) if subset else 0.0,
    }
