"""The benchmark's workloads and the seeded generators of their inputs.

Each workload drives lahn's public API from outside. It generates its
inputs from the workload seed when it is built (untimed), exposes
``setup()`` (the timed set-up: raw examples or checkpoint to first step or
request ready), ``unit(i, call_span)`` (one operation of the closed loop: a
training run, or one scoring request, whose public API call runs inside
``call_span()``), and ``finish(outputs)`` for the quality metrics. Every unit checks its own outputs and lists what failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

import lahn.data as ldata
import lahn.encoder as lencoder
import lahn.metrics as lmetrics
import lahn.trainer as ltrainer

# Criterion 6's lahn half: corpus size, confound rate and training config.
CONFOUND_N_PER_CLASS = 150
CONFOUND_RATE = 1.0
CONFOUND_SEEDS = 7
LAHN_CONFIG = dict(objective="lahn", strategy="simweight", q=256, k=16, tau=0.05, epochs=8)

# Wide-vocabulary corpus. Documents are longer than max_len (64) because
# build_vocab counts every token while encoding truncates; 1000 training
# documents of 56-200 tokens, 70% of them drawn from a flat Zipf over 60k
# types, give 23.4k-24.1k types seen twice (seeds 0-7), so the 20 000
# max_vocab cap is reached with margin.
WIDE_TRAIN, WIDE_VAL, WIDE_TEST = 1000, 200, 400
WIDE_TYPES = 60_000
WIDE_ZIPF = 0.4
WIDE_LEN = (56, 200)
# The planted rule: 30% of all tokens are class cues from a 16-word lexicon
# per class, and 5% of those cues come from the other class. A weaker rule
# (20% cues, 20% flipped) left some seeds at test macro-F1 0.73 after the
# two epochs, too wide a spread for a gated metric.
WIDE_CUES = 16
WIDE_CUE_RATE = 0.3
WIDE_CUE_FLIP = 0.05
WIDE_EPOCHS = 2

# eval-probe: a short ce model on a confound corpus, probed over a large
# split with identity subjects in half of each class. The model trains
# without the shortcut (rate 0.5): a ce model trained on the rate-1.0 trap
# scores a macro-F1 between 0.85 and 0.94 depending on the seed, too wide a
# spread for a gated metric.
PROBE_RATE = 0.5
PROBE_N_PER_CLASS = 8000  # 3 * n = 24 000 examples over the three splits
PROBE_CE_EPOCHS = 4
PROBE_CHUNK = 256
# The request mix repeats every five requests: two reads of each kind, one write.
PROBE_KINDS = ("evaluate", "confound_probe", "evaluate", "confound_probe", "export_embeddings")
# A run makes at least 20 passes of the mix, 100 requests; output_digest covers them.
PROBE_MIN_REQUESTS = 20 * len(PROBE_KINDS)

INVARIANCE_SAMPLE = 64


@dataclass
class UnitResult:
    """What one unit did: its timed API call, examples it scored, its outputs."""

    call_start_ns: int
    call_end_ns: int
    outputs: dict
    problems: list[str] = field(default_factory=list)
    examples: int = 0  # scored examples; training units count steps instead


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def check_records(records: list[dict]) -> list[str]:
    """Every logged loss is finite and every logged metric lies in [0, 1]."""
    problems = []
    for r in records:
        for key in ("l_cl", "l_ce", "total"):
            if key in r and not math.isfinite(r[key]):
                problems.append(f"non-finite {key} at step {r['step']}")
        for key in ("queue_fill", "val_accuracy", "val_macro_f1"):
            if key in r and not 0.0 <= r[key] <= 1.0:
                problems.append(f"{key}={r[key]} outside [0, 1]")
    return problems


def check_unit_interval(values: dict, keys) -> list[str]:
    return [f"{k}={values[k]} outside [0, 1]" for k in keys if not 0.0 <= values[k] <= 1.0]


def check_batch_invariance(params, split) -> list[str]:
    """The README promises that eval predictions do not depend on batch size."""
    sample = split[:INVARIANCE_SAMPLE]
    if np.array_equal(lmetrics.predict(params, sample, 16), lmetrics.predict(params, sample, 1)):
        return []
    return ["eval predictions differ between batch sizes 16 and 1"]


def generate_wide_corpus(
    seed: int,
    n_train: int = WIDE_TRAIN,
    n_val: int = WIDE_VAL,
    n_test: int = WIDE_TEST,
    n_types: int = WIDE_TYPES,
    lengths: tuple[int, int] = WIDE_LEN,
):
    """(train, val, test) of random-token documents with a planted cue rule.

    Filler tokens ``w<rank>`` follow a Zipf law with exponent WIDE_ZIPF.
    Labels are balanced. A mean-pooled bag of words separates the classes by
    the share of each lexicon's cue tokens (``c0x<j>`` / ``c1x<j>``).
    """
    rng = np.random.default_rng([seed, 0x77696465])  # "wide"
    p = 1.0 / np.arange(1, n_types + 1) ** WIDE_ZIPF
    p /= p.sum()
    filler = np.array([f"w{i}" for i in range(n_types)], dtype=object)
    cues = np.array([[f"c{c}x{j}" for j in range(WIDE_CUES)] for c in (0, 1)], dtype=object)

    def split(n: int) -> list:
        labels = np.repeat([0, 1], [n // 2, n - n // 2])
        rng.shuffle(labels)
        lens = rng.integers(lengths[0], lengths[1] + 1, size=n)
        total = int(lens.sum())
        doc_label = np.repeat(labels, lens)
        words = filler[rng.choice(n_types, size=total, p=p)]
        is_cue = rng.random(total) < WIDE_CUE_RATE
        cue_class = np.where(rng.random(total) < WIDE_CUE_FLIP, 1 - doc_label, doc_label)
        cue_words = cues[cue_class, rng.integers(0, WIDE_CUES, size=total)]
        words = np.where(is_cue, cue_words, words)
        bounds = np.concatenate([[0], np.cumsum(lens)])
        return [
            ldata.Example(" ".join(words[bounds[i] : bounds[i + 1]]), int(labels[i]))
            for i in range(n)
        ]

    return split(n_train), split(n_val), split(n_test)


def probe_split(seed: int, n_per_class: int = PROBE_N_PER_CLASS) -> list:
    """All three splits of a confound-rate-0.5 corpus: identity subjects
    appear in half of each class, as in a confound test split."""
    train, val, test = ldata.generate_confound_corpus(n_per_class, 0.5, seed)
    return train + val + test


def request_schedule(seed: int, n_examples: int, chunk: int = PROBE_CHUNK) -> list[int]:
    """Seeded order in which the closed loop visits the split's chunks."""
    n_chunks = n_examples // chunk
    return [int(c) * chunk for c in np.random.default_rng([seed, 0x70726F62]).permutation(n_chunks)]


class _Training:
    """Shared shape of the two training workloads: a unit is one run_training."""

    kind = "train"

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def config(self, i: int) -> ltrainer.TrainConfig:
        raise NotImplementedError

    def setup(self) -> None:
        """run_training's own set-up, through the same public calls."""
        cfg = self.config(0)
        vocab = ldata.build_vocab((e.text for e in self.train), cfg.min_freq, cfg.max_vocab)
        ldata.encode_examples(self.train, vocab, cfg.max_len)
        ldata.encode_examples(self.val, vocab, cfg.max_len)
        ltrainer.init_state(cfg, len(vocab))

    def release(self) -> None:
        """Nothing to free: run_training repeats this set-up on its own."""

    def after_setup(self) -> list[str]:
        return []


class ConfoundLahn(_Training):
    name = "confound-lahn"
    op_kind = "trainer.train_step"
    period = CONFOUND_SEEDS  # unit i repeats unit i - period bit for bit
    min_units = CONFOUND_SEEDS

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(work_dir)
        self.train, self.val, self.test = ldata.generate_confound_corpus(
            CONFOUND_N_PER_CLASS, CONFOUND_RATE, seed
        )
        self.train_seeds = [CONFOUND_SEEDS * seed + j for j in range(CONFOUND_SEEDS)]

    def config(self, i: int) -> ltrainer.TrainConfig:
        return ltrainer.TrainConfig(**LAHN_CONFIG, seed=self.train_seeds[i % CONFOUND_SEEDS])

    def unit(self, i: int, call_span) -> UnitResult:
        cfg = self.config(i)
        with call_span():
            t0 = time.perf_counter_ns()
            result = ltrainer.run_training(cfg, self.train, self.val)
            t1 = time.perf_counter_ns()
        problems = check_records(result.records)
        test_enc = ldata.encode_examples(self.test, result.vocab, cfg.max_len)
        probe = lmetrics.confound_probe(result.best_params, test_enc, cfg.batch_size)
        problems += check_unit_interval(probe, ("accuracy", "macro_f1", "identity_fpr"))
        if i == 0:
            problems += check_batch_invariance(result.best_params, test_enc)
        return UnitResult(t0, t1, {"records": result.records, "probe": probe}, problems)

    def finish(self, outputs: list[dict]) -> dict:
        first = outputs[:CONFOUND_SEEDS]
        return {
            "test_macro_f1": median(o["probe"]["macro_f1"] for o in first),
            "identity_fpr": median(o["probe"]["identity_fpr"] for o in first),
            "loss_records": [o["records"] for o in first],
        }


class WideVocabScl(_Training):
    name = "wide-vocab-scl"
    op_kind = "trainer.train_step"
    period = 1
    min_units = 1

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(work_dir)
        self.seed = seed
        self.train, self.val, self.test = generate_wide_corpus(seed)

    def config(self, i: int) -> ltrainer.TrainConfig:
        return ltrainer.TrainConfig(objective="scl", epochs=WIDE_EPOCHS, seed=self.seed)

    def unit(self, i: int, call_span) -> UnitResult:
        cfg = self.config(i)
        out_dir = self.work_dir / "wide-run"
        with call_span():
            t0 = time.perf_counter_ns()
            result = ltrainer.run_training(cfg, self.train, self.val, out_dir)
            t1 = time.perf_counter_ns()
        problems = check_records(result.records)
        outputs = {"records": result.records}
        if i == 0:
            loaded, _, _ = lencoder.load_checkpoint(out_dir / "checkpoint_best.npz")
            for (name, a), (_, b) in zip(loaded.named(), result.best_params.named()):
                if not np.array_equal(a.values, b.values):
                    problems.append(f"checkpoint_best.npz does not round-trip {name}")
            test_enc = ldata.encode_examples(self.test, result.vocab, cfg.max_len)
            report = lmetrics.evaluate(result.best_params, test_enc, cfg.batch_size)
            problems += check_unit_interval(report.to_dict(), ("accuracy", "macro_f1"))
            problems += check_batch_invariance(result.best_params, test_enc)
            outputs["vocab_size"] = len(result.vocab)
            outputs["test"] = report.to_dict()
        return UnitResult(t0, t1, outputs, problems)

    def finish(self, outputs: list[dict]) -> dict:
        return {
            "test_macro_f1": outputs[0]["test"]["macro_f1"],
            "vocab_size": outputs[0]["vocab_size"],
            "loss_records": [outputs[0]["records"]],
        }


class EvalProbe:
    name = "eval-probe"
    kind = "eval"
    op_kind = "bench.call"
    period = None
    min_units = PROBE_MIN_REQUESTS

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = work_dir
        train, val, _ = ldata.generate_confound_corpus(CONFOUND_N_PER_CLASS, PROBE_RATE, seed)
        cfg = ltrainer.TrainConfig(objective="ce", epochs=PROBE_CE_EPOCHS, seed=seed)
        model_dir = work_dir / "ce-model"
        trained = ltrainer.run_training(cfg, train, val, model_dir)
        self.trained_params = trained.best_params
        self.ce_records = trained.records
        self.checkpoint = model_dir / "checkpoint_best.npz"
        self.split = probe_split(seed + 1)
        self.schedule = request_schedule(seed, len(self.split))
        self.export_path = work_dir / "probe-embeddings.tsv"
        self.setup_problems = check_records(trained.records)

    def release(self) -> None:
        self.params = self.enc = None

    def setup(self) -> None:
        params, config, vocab = lencoder.load_checkpoint(self.checkpoint)
        self.params = params
        self.batch_size = config["batch_size"]
        self.enc = ldata.encode_examples(self.split, vocab, config["max_len"])

    def after_setup(self) -> list[str]:
        problems = list(self.setup_problems)
        for (name, a), (_, b) in zip(self.params.named(), self.trained_params.named()):
            if not np.array_equal(a.values, b.values):
                problems.append(f"load_checkpoint does not round-trip {name}")
        return problems + check_batch_invariance(self.params, self.enc)

    def unit(self, i: int, call_span) -> UnitResult:
        kind = PROBE_KINDS[i % len(PROBE_KINDS)]
        start = self.schedule[i % len(self.schedule)]
        chunk = self.enc[start : start + PROBE_CHUNK]
        with call_span():
            t0 = time.perf_counter_ns()
            if kind == "evaluate":
                out = lmetrics.evaluate(self.params, chunk, self.batch_size).to_dict()
            elif kind == "confound_probe":
                out = lmetrics.confound_probe(self.params, chunk, self.batch_size)
            else:
                lmetrics.export_embeddings(self.params, chunk, self.export_path, self.batch_size)
            t1 = time.perf_counter_ns()
        if kind == "export_embeddings":
            out, problems = self._check_export(chunk)
        else:
            keys = ("accuracy", "macro_f1", "identity_fpr") if kind == "confound_probe" else ("accuracy", "macro_f1")
            problems = check_unit_interval(out, keys)
        return UnitResult(t0, t1, {"kind": kind, "start": start, "out": out}, problems, len(chunk))

    def _check_export(self, chunk) -> tuple[dict, list[str]]:
        data = self.export_path.read_bytes()
        lines = data.decode("utf-8").split("\n")[:-1]
        width = self.params.dims.d_feat + 2
        problems = []
        if len(lines) != len(chunk):
            problems.append(f"export wrote {len(lines)} rows for {len(chunk)} examples")
        elif any(line.count("\t") != width - 1 for line in lines):
            problems.append(f"export rows do not all have {width} fields")
        elif [int(line.split("\t")[-2]) for line in lines] != [e.label for e in chunk]:
            problems.append("export labels do not match the examples")
        return {"tsv_sha256": hashlib.sha256(data).hexdigest()}, problems

    def finish(self, outputs: list[dict]) -> dict:
        probe = lmetrics.confound_probe(self.params, self.enc, self.batch_size)
        return {
            "test_macro_f1": probe["macro_f1"],
            "identity_fpr": probe["identity_fpr"],
            "loss_records": [self.ce_records],
            "output_records": outputs[:PROBE_MIN_REQUESTS],
        }


WORKLOADS = {w.name: w for w in (ConfoundLahn, WideVocabScl, EvalProbe)}
