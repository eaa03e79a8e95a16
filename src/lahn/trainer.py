"""Training loops: the momentum-contrastive pipeline with label-aware hard
negative sampling, plus the CE-only and in-batch SCL baselines.

One step of the full pipeline runs, in order: main forward (train mode),
momentum forward (train mode, its own dropout stream), enqueue of the
detached momentum features, the quarter-fill warmup gate, hard-negative
sampling over a queue snapshot, loss assembly, backward, an Adam update of
the main parameters only, and the EMA update of the momentum parameters.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path
from statistics import median

import numpy as np

from . import autodiff as ad
from . import fileio, metrics, objectives, sampler
from .blocks import blocked_pass
from .data import Example, Vocabulary, build_vocab, encode_examples, make_batches
from .encoder import (
    FLAT_NAMES, EncoderDims, EncoderParams, check_int, check_real, clone_params, forward, init_params, layout,
    save_checkpoint, views_of,
)
from .momentum import MomentumQueue, ema_update
from .sampler import Strategy
from .seeding import STREAM_DROPOUT_MAIN, STREAM_DROPOUT_MOMENTUM, STREAM_SHUFFLE, substream

log = logging.getLogger("lahn")

WARMUP_FILL = 0.25

OBJECTIVES = ("ce", "scl", "lahn")

# integer config fields and the least value each may take; the model's
# fields are checked by EncoderDims.validate
_INT_FIELDS = {
    "q": 1,
    "k": 1,
    "batch_size": 2,
    "epochs": 1,
    "seed": 0,
    "max_len": 1,
    "min_freq": 1,
    "max_vocab": 2,
}
# real config fields: (low, low included, high, high included)
_REAL_FIELDS = {
    "tau": (0.0, False, math.inf, False),
    "lam": (0.0, True, 1.0, True),
    "m": (0.0, True, 1.0, True),
    "lr": (0.0, False, math.inf, False),
    "beta1": (0.0, True, 1.0, False),
    "beta2": (0.0, True, 1.0, False),
    "eps": (0.0, False, math.inf, False),
}


class NonFiniteLossError(RuntimeError):
    """Training aborted on a non-finite loss; carries a diagnostic dump."""

    def __init__(self, step: int, lr: float, l_cl: float, l_ce: float, total: float):
        self.diagnostic = {"step": step, "lr": lr, "l_cl": l_cl, "l_ce": l_ce, "total": total}
        super().__init__(f"non-finite loss at step {step}: {self.diagnostic}")


@dataclass
class TrainConfig:
    objective: str = "lahn"
    strategy: str = "simweight"
    tau: float = 0.05
    lam: float = 0.1
    m: float = 0.999
    q: int = 512
    k: int = 16
    lr: float = 1e-3
    batch_size: int = 16
    dropout: float = 0.1
    epochs: int = 10
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_len: int = 64
    d_emb: int = 64
    hidden: int = 128
    d_feat: int = 64
    activation: str = "gelu"
    min_freq: int = 2
    max_vocab: int = 20000

    def validate(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        Strategy.parse(self.strategy)
        self.dims(2).validate()
        for name, low in _INT_FIELDS.items():
            check_int(name, getattr(self, name), low)
        for name, bounds in _REAL_FIELDS.items():
            check_real(name, getattr(self, name), *bounds)
        if self.k > self.q:
            raise ValueError(f"need q >= k >= 1, got q={self.q}, k={self.k}")
        # Adam's eps_hat = eps * sqrt(1 - beta2^t) is least at t = 1
        if not self.eps * math.sqrt(1.0 - self.beta2) > 0.0:
            raise ValueError(f"eps must keep eps * sqrt(1 - beta2) above 0, got eps={self.eps}, beta2={self.beta2}")

    def dims(self, vocab_size: int) -> EncoderDims:
        """The model spec: ``vocab_size`` and the fields ``EncoderDims``
        shares with this config."""
        shared = {f.name: getattr(self, f.name) for f in dc_fields(EncoderDims) if f.name != "vocab_size"}
        return EncoderDims(vocab_size, **shared)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name for f in dc_fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        cfg = cls(**d)
        cfg.validate()
        return cfg


@dataclass
class AdamState:
    """Adam's first moment ``m`` and the root ``r = sqrt(v)`` of its second,
    each an ``encoder.layout`` of the parameters' shapes (``m["w1"]`` is a
    view of ``m["flat"]``), and the step count. Keeping the root lets an
    entry with no gradient decay it by ``sqrt(beta2)`` with no square root."""

    m: dict[str, np.ndarray]
    r: dict[str, np.ndarray]
    t: int = 0


def init_adam(params: EncoderParams) -> AdamState:
    return AdamState(m=layout(params.dims), r=layout(params.dims))


def _flat_grad(params: EncoderParams, grads: dict[str, np.ndarray | ad.RowGrad | None]) -> np.ndarray:
    """``params.work`` holding the six small gradients (a missing one as
    zeros), in one walk over the parameters. Raise ValueError naming the
    first parameter whose gradient does not fit it or, after that, is not
    finite; a ``RowGrad``'s rows are sorted, so its bounds are its ends."""
    views = dict(zip(FLAT_NAMES, views_of(params.work, [getattr(params, n).shape for n in FLAT_NAMES])))
    for name, tensor in params.named():
        g, shape = grads[name], tensor.shape
        if isinstance(g, ad.RowGrad):
            if g.rows.size and not (
                g.values.shape == g.rows.shape + shape[1:] and g.rows[0] >= 0 and g.rows[-1] < shape[0]
            ):
                raise ValueError(
                    f"row gradient for parameter {name!r} does not fit its shape {shape}: values of "
                    f"shape {g.values.shape} for {g.rows.size} rows in [{g.rows[0]}, {g.rows[-1]}]"
                )
        elif g is not None and getattr(g, "shape", None) != shape:
            raise ValueError(f"gradient for parameter {name!r} has shape {np.shape(g)}, not {shape}")
        if name in views:
            views[name][...] = 0.0 if g is None else g
    emb_g = grads["emb"].values if isinstance(grads["emb"], ad.RowGrad) else grads["emb"]
    if not (emb_g is None or np.isfinite(emb_g).all()) or not np.isfinite(params.work).all():
        bad = next(n for n, v in [("emb", emb_g), *views.items()] if v is not None and not np.isfinite(v).all())
        raise ValueError(f"non-finite gradient for parameter {bad!r}")
    return params.work


def adam_step(
    params: EncoderParams,
    grads: dict[str, np.ndarray | ad.RowGrad | None],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected Adam in Kingma & Ba's folded order (arXiv:1412.6980,
    Sec. 2): theta <- theta - alpha_t * m / (r + eps_hat), with r = sqrt(v),
    alpha_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t) and eps_hat =
    eps * sqrt(1 - beta2^t) computed once a step. An eps whose eps_hat
    rounds to 0 is a ValueError: an untouched coordinate would compute 0 / 0.

    The state keeps r, not v: an entry with no gradient takes r <-
    sqrt(beta2) * r, and one with a gradient r <- sqrt(w * w + (1 - beta2)
    * g * g) with w = sqrt(beta2) * r. For a zero g that gives back w bit
    for bit whenever w is 0 or at least 2^-511, below which w * w loses
    bits; so above that floor a zero gradient and a missing one agree.

    Every parameter takes the full update, whatever its gradient's form. A
    gradient of None is all zeros. A ``RowGrad`` gives its rows the full
    update and every other row the zero-gradient one, which still decays
    m and r and moves theta, so the result is bitwise that of its dense
    form; one that covers at least half its table is applied in that form.
    A gradient that does not fit its parameter (a dense one of another
    shape; a ``RowGrad`` whose values are not one row per row id, or with
    a row id outside the table) or that is not finite is a ValueError
    naming the parameter, raised before any state changes.
    A step makes one in-place ``blocks.blocked_pass`` over ``emb`` (a
    ``RowGrad`` adds one over its rows) and one over ``flat``, all on
    ``params.scratch``: an entry with no gradient takes 7 ufunc calls, one
    with a gradient 13. Only ``emb``'s gradient may be a ``RowGrad``. The
    six small gradients are first copied into ``params.work``, so a step
    allocates no parameter-sized temporary.
    """
    flat_g = _flat_grad(params, grads)
    t = state.t + 1
    root_bc2 = math.sqrt(1.0 - beta2**t)
    alpha = lr * root_bc2 / (1.0 - beta1**t)
    eps_hat = eps * root_bc2
    if not eps_hat > 0.0:
        raise ValueError(f"eps must keep eps * sqrt(1 - beta2^t) above 0, got eps={eps}, beta2={beta2}, t={t}")
    root_b2 = math.sqrt(beta2)
    state.t = t

    def update(tb, gb, mb, rb, s) -> None:
        # m <- m * beta1 + (1 - beta1) * g; r <- sqrt((r * root_b2)^2 +
        # (1 - beta2) * g * g); theta -= m / (r + eps_hat) * alpha, each in
        # this order, so the update is bitwise equal to those expressions'
        mb *= beta1
        rb *= root_b2
        if gb is None:
            # m + (1 - beta1) * 0 turns a -0.0 into +0.0; r is never -0.0
            mb += 0.0
        else:
            np.multiply(gb, 1.0 - beta1, out=s)
            mb += s
            rb *= rb
            np.multiply(gb, 1.0 - beta2, out=s)
            s *= gb
            rb += s
            np.sqrt(rb, out=rb)
        np.add(rb, eps_hat, out=s)
        np.divide(mb, s, out=s)
        s *= alpha
        tb -= s

    theta, g, m, r = params.emb.values, grads["emb"], state.m["emb"], state.r["emb"]
    if isinstance(g, ad.RowGrad) and 2 * g.rows.size >= theta.shape[0]:
        g = g.dense(theta.shape)
    if isinstance(g, ad.RowGrad):
        theta_rows, m_rows, r_rows = theta[g.rows], m[g.rows], r[g.rows]
        blocked_pass(update, (theta_rows, g.values, m_rows, r_rows), params.scratch)
        blocked_pass(update, (theta, None, m, r), params.scratch)
        theta[g.rows], m[g.rows], r[g.rows] = theta_rows, m_rows, r_rows
    else:
        blocked_pass(update, (theta, g, m, r), params.scratch)
    blocked_pass(update, (params.flat, flat_g, state.m["flat"], state.r["flat"]), params.scratch)


@dataclass
class TrainState:
    """All a run carries between steps, each fact in one place: the step
    count is ``opt.t``; ``momentum`` (the EMA twin) and ``queue`` are lahn's."""

    params: EncoderParams
    opt: AdamState
    streams: dict[str, np.random.Generator]
    momentum: EncoderParams | None = None
    queue: MomentumQueue | None = None
    best_val_macro_f1: float = -1.0
    best_epoch: int = 0
    best_params: EncoderParams | None = None


def init_state(config: TrainConfig, vocab_size: int) -> TrainState:
    params = init_params(config.seed, config.dims(vocab_size))
    state = TrainState(
        params=params,
        opt=init_adam(params),
        streams={
            name: substream(config.seed, name)
            for name in (STREAM_SHUFFLE, STREAM_DROPOUT_MAIN, STREAM_DROPOUT_MOMENTUM)
        },
    )
    if config.objective == "lahn":
        state.momentum = clone_params(params)
        state.queue = MomentumQueue(config.q, config.d_feat)
    return state


def train_step(state: TrainState, batch, config: TrainConfig) -> dict:
    """One optimizer step; returns its ``metrics.jsonl`` record: the step
    count after it (``state.opt.t``), the loss terms and the queue's fill
    fraction (0 without a queue)."""
    p = state.params
    p.zero_grads()
    labels = batch.labels
    l_cl = None
    with ad.Tape() as tape:
        main_out = forward(p, batch, training=True, rng=state.streams[STREAM_DROPOUT_MAIN])
        l_ce = objectives.classification_loss(main_out.logits, labels)
        if config.objective == "lahn":
            mom_out = forward(
                state.momentum, batch, training=True, rng=state.streams[STREAM_DROPOUT_MOMENTUM]
            )
            x_aug = mom_out.feature.values  # momentum params carry no gradient
            entry_ids = state.queue.enqueue_batch(x_aug, labels)
            # warmup: the contrastive term waits until the queue is a quarter full
            if state.queue.fill_fraction() >= WARMUP_FILL:
                negs = sampler.sample_for_batch(
                    main_out.feature.values,
                    labels,
                    state.queue.snapshot(),
                    state.momentum,
                    Strategy.parse(config.strategy),
                    config.k,
                    exclude_ids=entry_ids,
                )
                l_cl = objectives.lahn_loss(main_out.feature, x_aug, negs, config.tau)
        elif config.objective == "scl":
            l_cl = objectives.scl_loss(main_out.feature, labels, config.tau)
        if l_cl is None:
            l_cl = ad.constant(0.0)
            total = l_ce
        else:
            total = objectives.combined_loss(l_cl, l_ce, config.lam)
        if not np.isfinite(total.values):
            raise NonFiniteLossError(
                state.opt.t, config.lr, float(l_cl.values), float(l_ce.values), float(total.values)
            )
        tape.backward(total)
    grads = {name: t.grad for name, t in p.named()}
    adam_step(p, grads, state.opt, config.lr, config.beta1, config.beta2, config.eps)
    if state.momentum is not None:
        ema_update(p, state.momentum, config.m)
    return {
        "step": state.opt.t,
        "l_cl": float(l_cl.values),
        "l_ce": float(l_ce.values),
        "total": float(total.values),
        "queue_fill": state.queue.fill_fraction() if state.queue is not None else 0.0,
    }


@dataclass
class RunResult:
    params: EncoderParams
    best_params: EncoderParams
    best_epoch: int
    best_val_macro_f1: float
    vocab: Vocabulary
    records: list[dict] = field(default_factory=list)


def _write_metrics_log(out_dir: Path, records: list[dict]) -> None:
    fileio.atomic_write_text(
        out_dir / "metrics.jsonl", "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    )


def run_training(
    config: TrainConfig,
    train_split: list[Example],
    val_split: list[Example],
    out_dir=None,
) -> RunResult:
    """Epoch loop with per-epoch validation and best-checkpoint selection.

    The vocabulary is built from the training split only. When out_dir is
    given, vocab.txt is written once before the first epoch; after every
    epoch metrics.jsonl and then checkpoint_last.npz are rewritten, and in
    an epoch that improves validation macro-F1 checkpoint_best.npz becomes
    a hard link of that checkpoint_last.npz (a copy where the filesystem
    has no hard links). Each file is replaced atomically but not as a set:
    an interrupted run can leave them from two consecutive epochs.
    """
    config.validate()
    if len(train_split) < 2 or not val_split:
        # fewer than 2 training examples make no batch, so nothing would train
        raise ValueError(
            f"need >= 2 train examples and a nonempty val split, got {len(train_split)} and {len(val_split)}"
        )
    vocab = build_vocab((e.text for e in train_split), config.min_freq, config.max_vocab)
    train_enc = encode_examples(train_split, vocab, config.max_len)
    val_enc = encode_examples(val_split, vocab, config.max_len)
    state = init_state(config, len(vocab))
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        vocab.save(out / "vocab.txt")
    records: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        epoch_seed = int(state.streams[STREAM_SHUFFLE].integers(2**63))
        for batch in make_batches(train_enc, config.batch_size, epoch_seed):
            records.append(train_step(state, batch, config))
        report = metrics.evaluate(state.params, val_enc)
        records.append(
            {"epoch": epoch, "val_accuracy": report.accuracy, "val_macro_f1": report.macro_f1}
        )
        log.info(
            "epoch %d: val_accuracy=%.4f val_macro_f1=%.4f", epoch, report.accuracy, report.macro_f1
        )
        improved = report.macro_f1 > state.best_val_macro_f1
        if improved:
            state.best_val_macro_f1 = report.macro_f1
            state.best_epoch = epoch
            state.best_params = None  # a run holds one best copy, even while taking the next
            state.best_params = clone_params(state.params)
        if out is not None:
            _write_metrics_log(out, records)
            save_checkpoint(out / "checkpoint_last.npz", state.params, config.to_dict(), vocab)
            # best_params equal params in an improving epoch, so best's bytes are last's
            if improved and not fileio.atomic_link(out / "checkpoint_last.npz", out / "checkpoint_best.npz"):
                save_checkpoint(out / "checkpoint_best.npz", state.best_params, config.to_dict(), vocab)
    return RunResult(
        params=state.params,
        best_params=state.best_params,
        best_epoch=state.best_epoch,
        best_val_macro_f1=state.best_val_macro_f1,
        vocab=vocab,
        records=records,
    )


def run_ablation_grid(
    base_config: TrainConfig,
    grid: list[dict],
    seeds: list[int],
    train_split: list[Example],
    val_split: list[Example],
    test_split: list[Example] | None = None,
) -> dict:
    """Per-cell, per-seed runs with medians; failed cells are marked, not fatal."""
    if not grid:
        raise ValueError("empty ablation grid")
    if not seeds or len(set(seeds)) < len(seeds):
        raise ValueError(f"need distinct seeds, got {seeds}")
    if any("seed" in cell for cell in grid):
        raise ValueError("a grid cell may not set 'seed'; the seeds list does")
    cells = []
    for overrides in grid:
        entry: dict = {"overrides": overrides, "per_seed": []}
        try:
            for seed in seeds:
                cfg = TrainConfig.from_dict({**base_config.to_dict(), **overrides, "seed": seed})
                result = run_training(cfg, train_split, val_split)
                rec = {
                    "seed": seed,
                    "best_epoch": result.best_epoch,
                    "val_macro_f1": result.best_val_macro_f1,
                }
                if test_split is not None:
                    test_enc = encode_examples(test_split, result.vocab, cfg.max_len)
                    rec["test_macro_f1"] = metrics.evaluate(result.best_params, test_enc).macro_f1
                entry["per_seed"].append(rec)
            entry["median_val_macro_f1"] = median(r["val_macro_f1"] for r in entry["per_seed"])
            if test_split is not None:
                entry["median_test_macro_f1"] = median(
                    r["test_macro_f1"] for r in entry["per_seed"]
                )
        except Exception as e:
            entry["error"] = f"{type(e).__name__}: {e}"
            log.error("ablation cell %s failed: %s", overrides, e)
        cells.append(entry)
    return {"seeds": seeds, "cells": cells}
