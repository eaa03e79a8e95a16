"""Training loops: the momentum-contrastive pipeline with label-aware hard
negative sampling, plus the CE-only and in-batch SCL baselines.

One step of the full pipeline runs, in order: main forward (train mode),
momentum forward (train mode, its own dropout stream), enqueue of the
detached momentum features, the quarter-fill warmup gate, hard-negative
sampling over a queue snapshot, loss assembly, backward, an Adam update of
the main parameters only, and the EMA update of the momentum parameters.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path
from statistics import median

import numpy as np

from . import autodiff as ad
from . import fileio, metrics, objectives, sampler
from .data import Example, Vocabulary, build_vocab, encode_examples, make_batches
from .encoder import (
    ACTIVATIONS, EncoderDims, EncoderParams, clone_params, forward, init_params, save_checkpoint
)
from .momentum import EmaState, MomentumQueue, ema_update
from .objectives import LossBreakdown
from .sampler import Strategy
from .seeding import STREAM_DROPOUT_MAIN, STREAM_DROPOUT_MOMENTUM, STREAM_SHUFFLE, substream

log = logging.getLogger("lahn")

WARMUP_FILL = 0.25

# elements per Adam block (at least one leading-axis row): two scratch rows
# of this size and the operand blocks fit in a per-core L2 cache
_ADAM_BLOCK = 1 << 14

OBJECTIVES = ("ce", "scl", "lahn")

# integer config fields and the least value each may take
_INT_FIELDS = {
    "q": 1,
    "k": 1,
    "batch_size": 2,
    "epochs": 1,
    "seed": 0,
    "max_len": 1,
    "d_emb": 1,
    "hidden": 1,
    "d_feat": 1,
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
    "dropout": (0.0, True, 1.0, False),
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
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {tuple(ACTIVATIONS)}, got {self.activation!r}")
        for name, low in _INT_FIELDS.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        for name, (low, low_in, high, high_in) in _REAL_FIELDS.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            above = value >= low if low_in else value > low
            below = value <= high if high_in else value < high
            if not (math.isfinite(value) and above and below):
                interval = f"{'[' if low_in else '('}{low}, {high}{']' if high_in else ')'}"
                raise ValueError(f"{name} must be finite and in {interval}, got {value}")
        if self.k > self.q:
            raise ValueError(f"need q >= k >= 1, got q={self.q}, k={self.k}")

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
    """First/second moment buffers for the main parameters, plus the step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam(params: EncoderParams) -> AdamState:
    return AdamState(
        m={name: np.zeros_like(t.values) for name, t in params.named()},
        v={name: np.zeros_like(t.values) for name, t in params.named()},
    )


def adam_step(
    params: EncoderParams,
    grads: dict[str, np.ndarray | ad.RowGrad | None],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected Adam: theta <- theta - lr * m_hat / (sqrt(v_hat) + eps).

    Every parameter takes the full update, whatever its gradient's form. A
    gradient of None is all zeros. A ``RowGrad`` gives its rows the full
    update and every other row the zero-gradient one, which still decays
    m and v and moves theta, so the result is bitwise that of its dense
    form. The update runs in place, one block of leading-axis rows at a
    time through two small scratch arrays, so a step allocates no
    parameter-sized temporaries and each block stays in cache.
    """
    for name, g in grads.items():
        values = g.values if isinstance(g, ad.RowGrad) else g
        if values is not None and not np.isfinite(values).all():
            raise ValueError(f"non-finite gradient for parameter {name!r}")
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    named = params.named()
    scratch = np.empty((2, max([_ADAM_BLOCK] + [t.values[:1].size for _, t in named])))

    def update(theta, g, m, v) -> None:
        _adam_blocks(theta, g, m, v, scratch, lr, beta1, beta2, eps, bc1, bc2)

    for name, tensor in named:
        theta, g, m, v = tensor.values, grads[name], state.m[name], state.v[name]
        if isinstance(g, ad.RowGrad):
            theta_rows, m_rows, v_rows = theta[g.rows], m[g.rows], v[g.rows]
            update(theta_rows, g.values, m_rows, v_rows)
            update(theta, None, m, v)
            theta[g.rows], m[g.rows], v[g.rows] = theta_rows, m_rows, v_rows
        else:
            update(theta, g, m, v)


def _adam_blocks(theta, g, m, v, scratch, lr, beta1, beta2, eps, bc1, bc2) -> None:
    """One Adam update of theta, m and v in place; ``g is None`` is a zero
    gradient."""
    rows = max(_ADAM_BLOCK * theta.shape[0] // max(theta.size, 1), 1)
    for lo in range(0, theta.shape[0], rows):
        part = slice(lo, lo + rows)
        tb, mb, vb = theta[part], m[part], v[part]
        s1 = scratch[0, : tb.size].reshape(tb.shape)
        s2 = scratch[1, : tb.size].reshape(tb.shape)
        # the operations of lr * (m / bc1) / (np.sqrt(v / bc2) + eps) in
        # their order, so the update is bitwise equal to that expression's
        mb *= beta1
        if g is None:
            # m + (1 - beta1) * 0 turns a -0.0 into +0.0; v is never -0.0
            mb += 0.0
            vb *= beta2
        else:
            gb = g[part]
            np.multiply(gb, 1.0 - beta1, out=s1)
            mb += s1
            vb *= beta2
            np.multiply(gb, 1.0 - beta2, out=s1)
            s1 *= gb
            vb += s1
        np.divide(mb, bc1, out=s1)
        s1 *= lr
        np.divide(vb, bc2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += eps
        s1 /= s2
        tb -= s1


@dataclass
class TrainState:
    params: EncoderParams
    opt: AdamState
    streams: dict[str, np.random.Generator]
    ema: EmaState | None = None
    queue: MomentumQueue | None = None
    step: int = 0
    best_val_macro_f1: float = -1.0
    best_epoch: int = 0
    best_params: EncoderParams | None = None


def init_state(config: TrainConfig, vocab_size: int) -> TrainState:
    dims = EncoderDims(
        vocab_size=vocab_size,
        d_emb=config.d_emb,
        hidden=config.hidden,
        d_feat=config.d_feat,
        dropout=config.dropout,
        activation=config.activation,
    )
    params = init_params(config.seed, dims)
    state = TrainState(
        params=params,
        opt=init_adam(params),
        streams={
            STREAM_DROPOUT_MAIN: substream(config.seed, STREAM_DROPOUT_MAIN),
            STREAM_DROPOUT_MOMENTUM: substream(config.seed, STREAM_DROPOUT_MOMENTUM),
        },
    )
    if config.objective == "lahn":
        state.ema = EmaState(config.m, clone_params(params))
        state.queue = MomentumQueue(config.q, config.d_feat)
    return state


def train_step(state: TrainState, batch, config: TrainConfig) -> LossBreakdown:
    """One optimizer step; returns the loss components that were logged."""
    p = state.params
    p.zero_grads()
    labels = batch.labels
    with ad.Tape() as tape:
        main_out = forward(p, batch, training=True, rng=state.streams[STREAM_DROPOUT_MAIN])
        l_ce = objectives.classification_loss(main_out.logits, labels)
        if config.objective == "lahn":
            mom_out = forward(
                state.ema.params, batch, training=True, rng=state.streams[STREAM_DROPOUT_MOMENTUM]
            )
            x_aug = mom_out.feature.values  # momentum params carry no gradient
            entry_ids = state.queue.enqueue_batch(x_aug, labels)
            if state.queue.fill_fraction() >= WARMUP_FILL:
                snap = state.queue.snapshot()
                negs = sampler.sample_for_batch(
                    main_out.feature.values,
                    labels,
                    snap,
                    state.ema.params,
                    Strategy.parse(config.strategy),
                    config.k,
                    exclude_ids=entry_ids,
                )
                # column 0 of each anchor's block is its positive, then its negatives
                blocks = np.concatenate([x_aug[:, None, :], negs.features], axis=1)
                valid = np.concatenate([np.ones((batch.size, 1), dtype=bool), negs.valid], axis=1)
                sims = ad.cosine_blocks(main_out.feature, blocks)
                l_cl = objectives.contrastive_loss(sims, valid, config.tau)
                total = objectives.combined_loss(l_cl, l_ce, config.lam)
            else:
                # warmup: contrastive term inactive until the queue is a quarter full
                l_cl = ad.constant(0.0)
                total = l_ce
        elif config.objective == "scl":
            l_cl = objectives.scl_loss(main_out.feature, labels, config.tau)
            total = objectives.combined_loss(l_cl, l_ce, config.lam)
        else:
            l_cl = ad.constant(0.0)
            total = l_ce
        if not np.isfinite(total.values):
            raise NonFiniteLossError(
                state.step, config.lr, float(l_cl.values), float(l_ce.values), float(total.values)
            )
        tape.backward(total)
    grads = {name: t.grad for name, t in p.named()}
    adam_step(p, grads, state.opt, config.lr, config.beta1, config.beta2, config.eps)
    if state.ema is not None:
        ema_update(p, state.ema)
    state.step += 1
    return LossBreakdown(float(l_cl.values), float(l_ce.values), float(total.values))


@dataclass
class RunResult:
    params: EncoderParams
    best_params: EncoderParams
    best_epoch: int
    best_val_macro_f1: float
    vocab: Vocabulary
    records: list[dict] = field(default_factory=list)


def _write_metrics_log(out_dir: Path, records: list[dict]) -> None:
    import json

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
    given, metrics.jsonl, vocab.txt, and the best/last checkpoints are
    (re)written atomically after every epoch, so an interrupted run keeps
    its latest complete epoch.
    """
    config.validate()
    if not train_split or not val_split:
        raise ValueError("train and val splits must be nonempty")
    vocab = build_vocab((e.text for e in train_split), config.min_freq, config.max_vocab)
    train_enc = encode_examples(train_split, vocab, config.max_len)
    val_enc = encode_examples(val_split, vocab, config.max_len)
    state = init_state(config, len(vocab))
    shuffle_rng = substream(config.seed, STREAM_SHUFFLE)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        vocab.save(out / "vocab.txt")
    records: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        epoch_seed = int(shuffle_rng.integers(2**63))
        for batch in make_batches(train_enc, config.batch_size, epoch_seed):
            lb = train_step(state, batch, config)
            fill = state.queue.fill_fraction() if state.queue is not None else 0.0
            records.append(
                {
                    "step": state.step,
                    "l_cl": lb.l_cl,
                    "l_ce": lb.l_ce,
                    "total": lb.total,
                    "queue_fill": fill,
                }
            )
        report = metrics.evaluate(state.params, val_enc, config.batch_size)
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
            state.best_params = clone_params(state.params)
        if out is not None:
            _write_metrics_log(out, records)
            save_checkpoint(out / "checkpoint_last.npz", state.params, config.to_dict(), vocab)
            if improved:
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
    if not seeds:
        raise ValueError("no seeds given")
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
                    rec["test_macro_f1"] = metrics.evaluate(
                        result.best_params, test_enc, cfg.batch_size
                    ).macro_f1
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
