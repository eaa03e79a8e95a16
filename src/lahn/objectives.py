"""Loss assembly: temperature-scaled contrastive loss over (positive, hard
negatives) per anchor, classification cross-entropy, their convex
combination, and the in-batch supervised contrastive baseline.

The contrastive term is built exactly as the softmax-cross-entropy over each
anchor's logit row [pos/tau, neg_1/tau, ..., neg_n/tau] with target index 0,
so the positive similarity appears in the denominator alongside the
negatives. All anchors share one padded row matrix and a validity mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


@dataclass
class LossBreakdown:
    l_cl: float
    l_ce: float
    total: float


def contrastive_loss(sims: ad.Tensor, valid, tau: float) -> ad.Tensor:
    """Mean over all anchors of -log softmax([pos/tau, negs/tau])[0].

    ``sims`` is [B x (1+w)]: column 0 holds each anchor's positive
    similarity, the rest its negatives, padded to a common width, with
    ``valid`` marking the real entries. An anchor with zero negatives
    contributes exactly 0 (its row softmax is a single logit), but it still
    counts in the mean's denominator.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be > 0, got {tau}")
    keep = np.asarray(valid, dtype=bool)
    if sims.values.ndim != 2 or keep.shape != sims.shape:
        raise ValueError(f"need equal [B x (1+w)] sims and valid, got {sims.shape} and {keep.shape}")
    if keep.shape[0] == 0:
        raise ValueError("contrastive_loss over zero anchors")
    if not keep[:, 0].all():
        raise ValueError("column 0 holds each anchor's positive and must be valid")
    if not keep[:, 1:].any():
        return ad.constant(0.0)
    weights = np.zeros(keep.shape)
    weights[:, 0] = 1.0 / keep.shape[0]
    return ad.masked_softmax_cross_entropy(ad.scale(sims, 1.0 / tau), keep, weights)


def classification_loss(logits: ad.Tensor, labels) -> ad.Tensor:
    """Batch mean of -log softmax(logits)[label]: the masked softmax-CE with
    every logit valid and weight 1/B on each row's label."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.values.ndim != 2 or labels.shape != (logits.shape[0],) or labels.size == 0:
        raise ValueError(f"need one label per logit row, got {labels.shape} for {logits.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must all be 0 or 1")
    weights = np.zeros(logits.shape)
    weights[np.arange(labels.size), labels] = 1.0 / labels.size
    return ad.masked_softmax_cross_entropy(logits, np.ones(logits.shape, dtype=bool), weights)


def combined_loss(l_cl: ad.Tensor, l_ce: ad.Tensor, lam: float) -> ad.Tensor:
    """(1 - lam) * l_cl + lam * l_ce."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"loss weight must be in [0, 1], got {lam}")
    return ad.add(ad.scale(l_cl, 1.0 - lam), ad.scale(l_ce, lam))


def scl_loss(features: ad.Tensor, labels, tau: float) -> ad.Tensor:
    """In-batch supervised contrastive loss.

    For each anchor i with positives P(i) = same-label others:
        loss_i = -(1/|P(i)|) * sum_{p in P(i)} log softmax_{a != i}(cos(i,a)/tau)[p]
    averaged over anchors with |P(i)| > 0. Anchors without a same-label
    partner contribute nothing (and a batch with no partnered anchor scores 0).
    """
    if tau <= 0:
        raise ValueError(f"temperature must be > 0, got {tau}")
    labels = np.asarray(labels, dtype=np.int64)
    b = features.values.shape[0]
    if b < 2:
        raise ValueError(f"scl_loss needs a batch of >= 2, got {b}")
    if labels.shape != (b,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {b}")

    others = ~np.eye(b, dtype=bool)
    positive = (labels[:, None] == labels[None, :]) & others
    n_pos = positive.sum(axis=1, keepdims=True)
    n_anchors = int((n_pos > 0).sum())
    if n_anchors == 0:
        return ad.constant(0.0)
    weights = positive / np.maximum(n_pos, 1) / n_anchors
    logits = ad.scale(ad.cosine_matrix(features), 1.0 / tau)
    return ad.masked_softmax_cross_entropy(logits, others, weights)
