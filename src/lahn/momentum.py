"""Momentum-encoder lifecycle: EMA parameter updates and the bounded FIFO
queue (a ring buffer) of detached feature vectors with labels.

The queue is the negative-candidate pool. Entries carry a monotonically
increasing insertion id so a training step can exclude an anchor's own
just-enqueued view from that anchor's candidates. The ids are not stored:
the live ones are always the last ``size`` handed out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import blocked_pass
from .encoder import FLAT_NAMES, EncoderParams


@dataclass
class QueueSnapshot:
    """Age-ordered copy (oldest first); immutable w.r.t. later enqueues."""

    features: np.ndarray  # [S x d_feat]
    labels: np.ndarray  # [S] int64
    entry_ids: np.ndarray  # [S] int64, insertion order

    @property
    def size(self) -> int:
        return self.features.shape[0]


class MomentumQueue:
    """Bounded FIFO of (feature, label) entries; eviction strictly oldest-first.

    A preallocated ring buffer (MoCo's queue): entry id ``i`` lives in slot
    ``i % capacity``, so an enqueue overwrites the oldest slots in place and
    nothing is appended, deleted or stacked per step.
    """

    def __init__(self, capacity: int, d_feat: int):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        if d_feat < 1:
            raise ValueError(f"d_feat must be >= 1, got {d_feat}")
        self.capacity = capacity
        self.d_feat = d_feat
        self._features = np.empty((capacity, d_feat))
        self._labels = np.empty(capacity, dtype=np.int64)
        self._counter = 0  # ids handed out so far; the next entry gets this one

    @property
    def size(self) -> int:
        return min(self._counter, self.capacity)

    def fill_fraction(self) -> float:
        return self.size / self.capacity

    def enqueue_batch(self, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Append in batch order, evict oldest beyond capacity.

        Returns the insertion ids assigned to this batch. Features must be
        plain arrays (already detached); they are copied, never aliased. Of a
        batch larger than the capacity only the newest ``capacity`` rows stay.
        """
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels)
        if features.ndim != 2 or features.shape[1] != self.d_feat:
            raise ValueError(f"expected features [B x {self.d_feat}], got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError(f"labels shape {labels.shape} does not match batch {features.shape[0]}")
        n = features.shape[0]
        assigned = np.arange(self._counter, self._counter + n, dtype=np.int64)
        self._counter += n
        newest = slice(max(n - self.capacity, 0), n)
        slots = assigned[newest] % self.capacity
        self._features[slots] = features[newest]
        self._labels[slots] = labels[newest]
        return assigned

    def snapshot(self) -> QueueSnapshot:
        # one fancy index in age order: a copy, untouched by later enqueues
        entry_ids = np.arange(self._counter - self.size, self._counter)
        age_order = entry_ids % self.capacity
        return QueueSnapshot(
            features=self._features[age_order],
            labels=self._labels[age_order],
            entry_ids=entry_ids,
        )


def ema_update(main: EncoderParams, momentum: EncoderParams, m: float) -> None:
    """theta_m <- m * theta_m + (1 - m) * theta, elementwise, in place: one
    ``blocks.blocked_pass`` over ``emb`` and one over ``flat``, both on
    ``main.scratch``, so it allocates no parameter-sized temporary."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"momentum coefficient must be in [0, 1], got {m}")
    emb, flat = (momentum.emb.values, main.emb.values), (momentum.flat, main.flat)
    for names, (mom, cur) in (("emb", emb), ("/".join(FLAT_NAMES), flat)):
        if mom.shape != cur.shape:
            raise ValueError(f"shape mismatch for {names}: {mom.shape} vs {cur.shape}")

    rest = 1.0 - m

    def update(mb, cb, s) -> None:
        mb *= m
        np.multiply(cb, rest, s)
        mb += s

    blocked_pass(update, emb, main.scratch)
    blocked_pass(update, flat, main.scratch)
