"""Label-aware hard-negative selection over a queue snapshot.

Pipeline per anchor: keep only true negatives (label differs from the
anchor's), weight each candidate's cosine similarity by the momentum head's
probability of assigning it the anchor's class, take the top k. The two
ablation strategies relax that pipeline: SimOnly ranks by similarity alone,
AllQueue skips both the label filter and the top-k cut.

The whole batch runs at once: one [B x S] score matrix against the snapshot
(``autodiff.cosine`` on constants), one keep-mask, one row-wise stable top-k.
Selection influences which similarities enter the contrastive loss, but no
gradient flows through the selection itself. The result holds snapshot
indices, not feature rows; a per-anchor view reads its rows off the snapshot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .encoder import EncoderParams, apply_head


class Strategy(enum.Enum):
    ALL_QUEUE = "all"
    SIM_ONLY = "sim"
    LABEL_SIM_WEIGHT = "simweight"

    @classmethod
    def parse(cls, name: str) -> "Strategy":
        for s in cls:
            if s.value == name:
                return s
        raise ValueError(f"unknown strategy {name!r}; expected one of {[s.value for s in cls]}")


@dataclass
class HardNegativeSet:
    """One anchor's selection: feature rows, their queue indices, their scores.

    Scores are non-increasing; ties were broken by lower queue index.
    """

    features: np.ndarray  # [n x d_feat], n <= k
    queue_indices: np.ndarray  # [n] positions within the snapshot
    scores: np.ndarray  # [n]

    @property
    def size(self) -> int:
        return self.queue_indices.shape[0]


@dataclass
class HardNegativeBatch:
    """Every anchor's selection, padded to a common width w.

    Row i holds anchor i's selection in its first ``valid[i].sum()`` slots
    (``valid`` is a prefix mask); padding slots carry queue index -1 and
    score 0. Indexing or iterating yields per-anchor views, whose features
    are the selected rows of ``snapshot_features``.
    """

    queue_indices: np.ndarray  # [B x w] int64
    scores: np.ndarray  # [B x w]
    valid: np.ndarray  # [B x w] bool
    snapshot_features: np.ndarray  # [S x d_feat], the rows the indices point into
    cosine: np.ndarray  # [B x S], each anchor's cosine with each row, before weighting

    @property
    def similarity(self) -> np.ndarray:  # [B x w], each selection's cosine; 0 in padding
        return np.where(self.valid, np.take_along_axis(self.cosine, self.queue_indices, axis=1), 0.0)

    def __len__(self) -> int:
        return self.valid.shape[0]

    def __getitem__(self, i: int) -> HardNegativeSet:
        n = int(self.valid[i].sum())
        indices = self.queue_indices[i, :n]
        return HardNegativeSet(self.snapshot_features[indices], indices, self.scores[i, :n])

    # perfbench/tracer.py's Recorder._count_sampled iterates a batch's selections
    def __iter__(self):
        return (self[i] for i in range(len(self)))


def anchor_class_prob(head_logits, anchor_labels) -> np.ndarray:
    """Softmax over each row's 2 logits; return the anchor-class column.

    An int label gives [S]; an array of B labels gives [B x S], row b being
    the column of ``anchor_labels[b]``.
    """
    logits = np.asarray(head_logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] != 2:
        raise ValueError(f"expected [S x 2] logits, got shape {logits.shape}")
    labels = np.asarray(anchor_labels)
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError(f"anchor labels must be 0 or 1, got {anchor_labels}")
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).T[labels]


def top_k_order(scores: np.ndarray, keep: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the positions of the best ``k`` kept entries, best first.

    Ties go to the lower position. Returns ``(order, valid)``, both [B x w]
    with w = min(k, most entries any row keeps); ``valid`` marks the slots
    that hold a kept entry and is a prefix of each row.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_kept = np.minimum(keep.sum(axis=1), k)
    width = int(n_kept.max(initial=0))
    if width == 0:
        empty = np.zeros((keep.shape[0], 0), dtype=np.intp)
        return empty, empty.astype(bool)
    key = np.where(keep, -scores, np.inf)
    # only the entries at or below each row's width-th smallest key can make
    # its cut, ties with that key included; sort just those, stably
    survive = key <= np.partition(key, width - 1, axis=1)[:, width - 1 : width]
    row, pos = np.nonzero(survive)
    ranked = pos[np.lexsort((pos, key[row, pos], row))]
    counts = survive.sum(axis=1)
    starts = np.cumsum(counts) - counts
    order = ranked[starts[:, None] + np.arange(width)]
    return order, np.arange(width) < n_kept[:, None]


def sample_for_batch(
    anchor_feats: np.ndarray,
    anchor_labels: np.ndarray,
    snapshot,
    momentum_params: EncoderParams | None,
    strategy: Strategy,
    k: int,
    exclude_ids: np.ndarray | None = None,
) -> HardNegativeBatch:
    """Score every anchor against one shared snapshot, mask, take the top k.

    Scores are ``autodiff.cosine`` against the snapshot, times the momentum
    head's anchor-class probability under LabelSimWeight. Same-label entries
    are masked (except under AllQueue), and so is ``exclude_ids[i]``, anchor
    i's own entry from the current step's enqueue, so its positive never
    doubles as its negative. AllQueue keeps every other entry and ignores k.
    """
    anchor_feats = np.asarray(anchor_feats, dtype=np.float64)
    labels = np.asarray(anchor_labels, dtype=np.int64)
    if anchor_feats.ndim != 2 or anchor_feats.shape[1] != snapshot.features.shape[1]:
        raise ValueError(
            f"anchor shape {anchor_feats.shape} incompatible with snapshot {snapshot.features.shape}"
        )
    if labels.shape != (anchor_feats.shape[0],):
        raise ValueError(f"labels shape {labels.shape} does not match batch {anchor_feats.shape[0]}")
    if strategy is Strategy.LABEL_SIM_WEIGHT and momentum_params is None:
        raise ValueError("LabelSimWeight needs the momentum parameters for its probabilities")
    scores = cosine = ad.cosine(ad.constant(anchor_feats), ad.constant(snapshot.features)).values
    if strategy is Strategy.LABEL_SIM_WEIGHT:
        scores = anchor_class_prob(apply_head(momentum_params, snapshot.features), labels)
        scores *= cosine
    if strategy is Strategy.ALL_QUEUE:
        keep = np.ones(scores.shape, dtype=bool)
    else:
        keep = snapshot.labels[None, :] != labels[:, None]
    if exclude_ids is not None:
        keep &= snapshot.entry_ids[None, :] != np.asarray(exclude_ids)[:, None]
    k_eff = max(snapshot.size, 1) if strategy is Strategy.ALL_QUEUE else k
    order, valid = top_k_order(scores, keep, k_eff)
    return HardNegativeBatch(
        queue_indices=np.where(valid, order, -1),
        scores=np.where(valid, np.take_along_axis(scores, order, axis=1), 0.0),
        valid=valid,
        snapshot_features=snapshot.features,
        cosine=cosine,
    )
