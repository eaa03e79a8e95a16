"""Reverse-mode automatic differentiation over dense float64 tensors.

A deliberately small engine: a ``Tensor`` wraps a numpy float64 array plus an
optional gradient buffer, and a ``Tape`` records every differentiable
operation executed while it is active. ``Tape.backward`` replays the recorded
entries in reverse, accumulating gradients into every tensor that requires
them. Everything is 64-bit, and a tape records only the ops of the thread
or asyncio task that entered it. There is no broadcasting beyond scalar
``scale`` and the explicit row-wise bias add, which keeps every backward rule
short enough to audit by hand.

The encoder and every loss run as whole-batch ops, one tape entry each:
``embed_mean_pool`` gathers and mean-pools every example's embedding rows at
once, ``cosine`` takes every row of one matrix against every row of another
(the one cosine here: SCL's ``cosine(x, x)``, lahn's anchors against their
positives and selected negatives, and the sampler's scores), and
``masked_softmax_cross_entropy`` scores every row of a masked logit matrix
against weighted targets. It is the one softmax cross-entropy here: the
contrastive and classification losses both end in it, the last with every
logit valid and one-hot weights.

A gradient is a dense array, except the one ``embed_mean_pool`` leaves in a
table no other op has written to yet: that is a ``RowGrad``, the few rows
the batch touched, so a step never builds a V x d array of zeros. Any later
accumulation into the same tensor densifies it first.

Ops that take no active tape (or whose inputs carry no gradient) just compute
values, so evaluation paths pay nothing for the machinery.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

_COS_EPS = 1e-8
# the tape that ops record into, one per thread and asyncio task
_active_tape: ContextVar[Tape | None] = ContextVar("lahn_active_tape", default=None)


class ShapeError(ValueError):
    """Operand shapes do not match the operation's contract."""


class RowGrad(NamedTuple):
    """A gradient that is zero outside a few rows of its tensor.

    ``rows`` holds sorted unique row ids and ``values`` their [n x d]
    gradient rows.
    """

    rows: np.ndarray
    values: np.ndarray

    def dense(self, shape: tuple[int, ...]) -> np.ndarray:
        out = np.zeros(shape)
        out[self.rows] = self.values
        return out


def _dense_grad(g: "np.ndarray | RowGrad", shape: tuple[int, ...]) -> np.ndarray:
    """``g`` as a dense array of ``shape`` (a dense ``g`` is returned as is)."""
    return g.dense(shape) if isinstance(g, RowGrad) else g


class Tensor:
    """Dense float64 array with an optional gradient: a same-shape array or,
    for an embedding table, a ``RowGrad``."""

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | RowGrad | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


def param(values) -> Tensor:
    """A leaf tensor that accumulates gradients (a trainable parameter)."""
    return Tensor(values, requires_grad=True)


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


class Tape:
    """Ordered record of operations; backward replays it once, reversed.

    Use as a context manager around one training step's forward pass. The
    record order is the forward execution order, so the reverse is a valid
    topological order and each entry is visited exactly once. A fresh tape
    per step is the "cleared between steps" contract. Tapes nest: on exit,
    the one entered before it records again.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        self._token = _active_tape.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _active_tape.reset(self._token)

    def __len__(self) -> int:
        return len(self._entries)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and propagate through the record."""
        if loss.values.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.values.shape}")
        loss.grad = np.ones((), dtype=np.float64)
        for out, rule in reversed(self._entries):
            if out.grad is not None:
                rule(_dense_grad(out.grad, out.shape))


def _record(out: Tensor, inputs: Sequence[Tensor], rule: Callable[[np.ndarray], None]) -> Tensor:
    tape = _active_tape.get()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._entries.append((out, rule))
    return out


def _accum(t: Tensor, g: "np.ndarray | RowGrad") -> None:
    """Add ``g`` into ``t``'s gradient; every backward rule writes through
    here. A first array or ``RowGrad`` is adopted, so a rule hands each input
    one no other tensor holds; a later one adds into the densified gradient."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if type(g) in (np.ndarray, RowGrad) else np.array(g, dtype=np.float64)
        return
    t.grad = _dense_grad(t.grad, t.shape)
    if type(g) is RowGrad:
        t.grad[g.rows] += g.values
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product [m*n]x[n*p]; backward is the usual transpose pair."""
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    out = Tensor(a.values @ b.values)

    def rule(g: np.ndarray) -> None:
        _accum(a, g @ b.values.T)
        _accum(b, a.values.T @ g)

    return _record(out, (a, b), rule)


def embed_mean_pool(table: Tensor, ids, mask) -> Tensor:
    """Masked mean of embedding rows per example: [V x d], [B x T] -> [B x d].

    Row b is the mean of ``table[ids[b, t]]`` over the positions t where
    ``mask[b, t]`` is true. Masked positions are skipped by the sum, not
    added as 0.0, so pad columns change no bit, and no masked copy of the
    gather is made. Only the leading columns up to the last unmasked one are
    gathered; every id, masked or not, must name a table row. Backward
    gives each unmasked token of example b the share ``g[b] / count[b]`` and
    sums the shares of each table row in row-major token order from 0.0,
    bit for bit a ``np.add.at`` of them into zeros. The sums reach the table
    as a ``RowGrad`` over the rows the batch used.
    """
    idx = np.asarray(ids, dtype=np.int64)
    keep = np.asarray(mask, dtype=bool)
    if idx.ndim != 2 or keep.shape != idx.shape:
        raise ShapeError(f"embed_mean_pool needs [B x T] ids and mask, got {idx.shape} and {keep.shape}")
    n_rows = table.shape[0]
    # as uint64 a negative id reads above every row, so one max checks both ends
    if idx.size and idx.view(np.uint64).max() >= n_rows:
        bad = idx[idx.view(np.uint64) >= n_rows][0]
        raise IndexError(f"id {int(bad)} out of range for table with {n_rows} rows")
    counts = keep.sum(axis=1)
    if not counts.all():
        raise ValueError("embed_mean_pool over an all-false mask row (empty sequence)")
    width = int(np.flatnonzero(keep.any(axis=0))[-1]) + 1 if idx.size else 0
    idx, keep = idx[:, :width], keep[:, :width]
    out = Tensor(np.sum(table.values[idx], axis=1, where=keep[:, :, None]))
    out.values /= counts[:, None]

    def rule(g: np.ndarray) -> None:
        rows, slot = np.unique(idx[keep], return_inverse=True)
        _accum(table, RowGrad(rows, _sum_rows(slot, np.repeat(g / counts[:, None], counts, axis=0), rows.size)))

    return _record(out, (table,), rule)


def _sum_rows(slot: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """[n x d] whose row i sums the rows ``values[j]`` with ``slot[j] == i``
    from 0.0 in order of j: a scatter-add into zeros, bit for bit, but one
    ``np.bincount`` over the flattened elements instead of a row-wise loop."""
    d = values.shape[1]
    return np.bincount((slot[:, None] * d + np.arange(d)).reshape(-1), values.reshape(-1), n * d).reshape(n, d)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape, dtype=np.int64)) != x.values.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    out = Tensor(x.values.reshape(shape).copy())

    def rule(g: np.ndarray) -> None:
        _accum(x, g.reshape(x.values.shape).copy())

    return _record(out, (x,), rule)


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    out = Tensor(a.values + b.values)

    def rule(g: np.ndarray) -> None:
        _accum(a, g.copy())
        _accum(b, g.copy())

    return _record(out, (a, b), rule)


def scale(x: Tensor, alpha: float) -> Tensor:
    alpha = float(alpha)
    out = Tensor(x.values * alpha)

    def rule(g: np.ndarray) -> None:
        _accum(x, g * alpha)

    return _record(out, (x,), rule)


def add_rows(x: Tensor, bias: Tensor) -> Tensor:
    """Add a bias vector to every row of a matrix; bias grad sums over rows."""
    if x.values.ndim != 2 or bias.values.ndim != 1 or x.shape[1] != bias.shape[0]:
        raise ShapeError(f"add_rows needs [B x d] and [d], got {x.shape} and {bias.shape}")
    out = Tensor(x.values + bias.values)

    def rule(g: np.ndarray) -> None:
        _accum(x, g.copy())
        _accum(bias, g.sum(axis=0))

    return _record(out, (x, bias), rule)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.values, 0.0))

    def rule(g: np.ndarray) -> None:
        _accum(x, g * (x.values > 0.0))

    return _record(out, (x,), rule)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximate gelu: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3))), bitwise.

    ``t`` and the output are each one array updated in place by the
    expression's ufuncs on its operands in its order: t = v*v, *v, *0.044715,
    +v, *c, tanh; out = 0.5*v, *(1 + t)."""
    v = x.values
    t = v * v  # then * v, not v**3: numpy has no fast path for a cube
    t *= v
    t *= 0.044715
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    out = Tensor(0.5 * v)
    out.values *= 1.0 + t

    def rule(g: np.ndarray) -> None:
        dinner = _GELU_C * (1.0 + 3.0 * 0.044715 * v**2)
        _accum(x, g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t**2) * dinner))

    return _record(out, (x,), rule)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    Eval mode (or p == 0) is the identity. The mask is drawn once and closed
    over by the backward rule, so forward and backward see the same draw.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    keep = rng.random(x.values.shape) >= p
    inv = 1.0 / (1.0 - p)
    out = Tensor(x.values * keep * inv)

    def rule(g: np.ndarray) -> None:
        _accum(x, g * keep * inv)

    return _record(out, (x,), rule)


# ---------------------------------------------------------------------------
# similarities and losses
# ---------------------------------------------------------------------------


def cosine(x: Tensor, rows: Tensor) -> Tensor:
    """Cosine of every row of ``x`` against every row of ``rows``:
    [B x d] and [R x d] -> [B x R].

    Each dot product is divided by the product of its two row norms, each
    clamped below at ``_COS_EPS``: on integer-valued rows every step is
    exact or correctly rounded, so any route that takes those steps gets the
    same floats and the same ties. A clamped norm is a constant in backward,
    so a zero row stays differentiable. Backward feeds whichever input
    requires gradient; ``cosine(x, x)`` feeds ``x`` through both sides.
    """
    if x.values.ndim != 2 or rows.values.ndim != 2 or x.shape[1] != rows.shape[1]:
        raise ShapeError(f"cosine needs [B x d] and [R x d], got {x.shape} and {rows.shape}")
    raw_x, raw_r = np.linalg.norm(x.values, axis=1), np.linalg.norm(rows.values, axis=1)
    norm_x, norm_r = np.maximum(raw_x, _COS_EPS), np.maximum(raw_r, _COS_EPS)
    out = Tensor((x.values @ rows.values.T) / (norm_x[:, None] * norm_r))

    def rule(g: np.ndarray) -> None:
        # d cos[i, j] / d x[i] = rows[j] / (|x_i| |r_j|) - cos[i, j] x[i] / |x_i|^2,
        # without the radial term where the norm is clamped; rows alike
        g_scaled = g / (norm_x[:, None] * norm_r)
        g_cos = g * out.values
        if x.requires_grad:
            radial = np.where(raw_x > _COS_EPS, g_cos.sum(axis=1) / norm_x**2, 0.0)
            _accum(x, g_scaled @ rows.values - radial[:, None] * x.values)
        if rows.requires_grad:
            radial = np.where(raw_r > _COS_EPS, g_cos.sum(axis=0) / norm_r**2, 0.0)
            _accum(rows, g_scaled.T @ x.values - radial[:, None] * rows.values)

    return _record(out, (x, rows), rule)


def masked_softmax_cross_entropy(logits: Tensor, valid, weights) -> Tensor:
    """Weighted sum of -log softmax(logits)[i, c], the softmax of each row
    taken over its valid entries only: sum_ic weights[i, c] * (lse_i - logits[i, c]).

    ``weights`` must be zero wherever ``valid`` is false, and every row needs
    a valid entry. A row with a single valid entry contributes exactly 0.
    Backward is g * (rowsum(weights) * softmax - weights).
    """
    keep = np.asarray(valid, dtype=bool)
    w = np.asarray(weights, dtype=np.float64)
    if logits.values.ndim != 2 or keep.shape != logits.shape or w.shape != logits.shape:
        raise ShapeError(
            f"masked_softmax_cross_entropy needs equal [B x C] logits, valid and weights, "
            f"got {logits.shape}, {keep.shape} and {w.shape}"
        )
    if not keep.any(axis=1).all():
        raise ValueError("every row needs at least one valid logit")
    if (w[~keep] != 0.0).any():
        raise ValueError("weights must be zero on invalid logits")
    shifted = logits.values - np.where(keep, logits.values, -np.inf).max(axis=1, keepdims=True)
    exp = np.where(keep, np.exp(shifted), 0.0)
    lse = np.log(exp.sum(axis=1, keepdims=True))
    out = Tensor((w * np.where(keep, lse - shifted, 0.0)).sum())

    def rule(g: np.ndarray) -> None:
        sm = exp / exp.sum(axis=1, keepdims=True)
        _accum(logits, float(g) * (w.sum(axis=1, keepdims=True) * sm - w))

    return _record(out, (logits,), rule)


# ---------------------------------------------------------------------------
# finite-difference harness
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_error: float
    n_coords: int
    worst: tuple[int, int, float, float] | None  # input idx, flat idx, analytic, numeric
    note: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"grad_check {status}: max rel error {self.max_rel_error:.3e} over {self.n_coords} coords {self.note}"


def grad_check(
    f: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    h: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients of f(*inputs) against central differences.

    f must be scalar-valued and deterministic (fix any rng it uses per call).
    The numeric side only ever runs forward passes, so it is independent of
    every backward rule it is checking. Relative error per coordinate is
    |a - n| / max(|a|, |n|, 1e-6); the report carries the max.
    """
    for t in inputs:
        t.zero_grad()
    with Tape() as tape:
        out = f(*inputs)
        if not np.isfinite(out.values).all():
            return GradCheckReport(False, math.inf, 0, None, "non-finite forward value")
        tape.backward(out)
    analytic = [
        _dense_grad(t.grad, t.shape).copy() if t.grad is not None else np.zeros_like(t.values)
        for t in inputs
    ]
    for a in analytic:
        if not np.isfinite(a).all():
            return GradCheckReport(False, math.inf, 0, None, "non-finite analytic gradient")

    max_rel = 0.0
    worst = None
    n_coords = 0
    for ti, t in enumerate(inputs):
        flat = t.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            try:
                flat[i] = orig + h
                fp = float(f(*inputs).values)
                flat[i] = orig - h
                fm = float(f(*inputs).values)
            finally:
                flat[i] = orig
            if not (math.isfinite(fp) and math.isfinite(fm)):
                return GradCheckReport(False, math.inf, n_coords, worst, "non-finite perturbed value")
            numeric = (fp - fm) / (2.0 * h)
            ana = float(analytic[ti].reshape(-1)[i])
            rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-6)
            n_coords += 1
            if rel > max_rel:
                max_rel = rel
                worst = (ti, i, ana, numeric)
    return GradCheckReport(max_rel < tol, max_rel, n_coords, worst)
