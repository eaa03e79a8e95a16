"""Loss assembly: one contrastive loss, the classification cross-entropy,
and their convex combination.

``contrastive_loss`` is the supervised-contrastive softmax over a cosine
matrix; only its masks tell the objectives apart. ``lahn_loss`` gives an
anchor its own momentum view as the one positive and its selected hard
negatives as the other valid entries (MoCo's InfoNCE over label-aware
negatives). ``scl_loss``, the in-batch SCL baseline, makes every other
example valid and the same-label ones positive.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


def contrastive_loss(sims: ad.Tensor, valid, positive, tau: float) -> ad.Tensor:
    """For each anchor, the mean of -log softmax(sims[i] / tau) over its valid
    entries at its positive entries; then the mean over anchors that have a
    positive.

    ``sims``, ``valid`` and ``positive`` are [B x R], every positive entry
    is valid and every row has a valid entry. An anchor whose only valid
    entry is its positive contributes exactly 0 but still counts in the
    mean; an anchor without a positive counts in nothing, and a batch with
    none scores a constant 0.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be > 0, got {tau}")
    keep = np.asarray(valid, dtype=bool)
    pos = np.asarray(positive, dtype=bool)
    if sims.values.ndim != 2 or keep.shape != sims.shape or pos.shape != sims.shape:
        raise ValueError(
            f"need equal [B x R] sims, valid and positive, got {sims.shape}, {keep.shape} and {pos.shape}"
        )
    if keep.shape[0] == 0:
        raise ValueError("contrastive_loss over zero anchors")
    if (pos & ~keep).any():
        raise ValueError("every positive entry must be valid")
    n_pos = pos.sum(axis=1, keepdims=True)
    n_anchors = int((n_pos > 0).sum())
    if n_anchors == 0:
        return ad.constant(0.0)
    weights = pos / np.maximum(n_pos, 1) / n_anchors
    return ad.masked_softmax_cross_entropy(ad.scale(sims, 1.0 / tau), keep, weights)


def classification_loss(logits: ad.Tensor, labels) -> ad.Tensor:
    """Batch mean of -log softmax(logits)[label]: the masked softmax-CE with
    every logit valid and weight 1/B on each row's label."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.values.ndim != 2 or labels.shape != (logits.shape[0],) or labels.size == 0:
        raise ValueError(f"need one label per logit row, got {labels.shape} for {logits.shape}")
    if not ((labels == 0) | (labels == 1)).all():
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
    """In-batch supervised contrastive loss: ``contrastive_loss`` over
    ``cosine(features, features)`` with every other example valid and the
    same-label ones positive.

    For each anchor i with positives P(i) = same-label others:
        loss_i = -(1/|P(i)|) * sum_{p in P(i)} log softmax_{a != i}(cos(i,a)/tau)[p]
    averaged over anchors with |P(i)| > 0. A batch with no partnered anchor
    scores a constant 0 without building the cosine matrix.
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
    if not positive.any():
        return ad.constant(0.0)
    return contrastive_loss(ad.cosine(features, features), others, positive, tau)


def lahn_loss(features: ad.Tensor, x_aug, negs, tau: float) -> ad.Tensor:
    """``contrastive_loss`` with lahn's masks (module docstring) over [x_aug; the rows ``negs`` selected]."""
    cols, slot = np.unique(negs.queue_indices[negs.valid], return_inverse=True)
    rows = np.concatenate([x_aug, negs.snapshot_features[cols]])
    positive = np.eye(len(x_aug), rows.shape[0], dtype=bool)
    valid = positive.copy()
    valid[np.nonzero(negs.valid)[0], len(x_aug) + slot] = True
    return contrastive_loss(ad.cosine(features, ad.constant(rows)), valid, positive, tau)
