"""Outside-in span and counter recorder for lahn's public functions.

The benchmark never edits ``src/``. Instead it replaces module and class
attributes for the duration of a traced unit of work, at the place where
each caller looks the function up (``lahn.trainer.forward`` for the training
step, ``lahn.metrics.forward`` for evaluation, ``Tape.backward`` on the class,
and so on), and puts the originals back afterwards.

A span is (name, start, end, parent). Spans live in memory as parallel lists
and are summarised when the run ends. A span's self time is its duration
minus the part of it that its child spans cover.

Nothing here draws random numbers or touches array values, so a traced unit
computes exactly what an untraced one does.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import lahn.autodiff as lad
import lahn.data as ldata
import lahn.encoder as lencoder
import lahn.fileio as lfileio
import lahn.metrics as lmetrics
import lahn.momentum as lmomentum
import lahn.objectives as lobjectives
import lahn.sampler as lsampler
import lahn.trainer as ltrainer

# Every span kind the tracer records, in report order. Names are
# "<module>.<what>"; forward calls are split three ways by mode.
SPAN_KINDS = (
    "data.build_vocab",
    "data.encode_examples",
    "data.make_batches",
    "encoder.forward_main",
    "encoder.forward_momentum",
    "encoder.forward_eval",
    "encoder.save_checkpoint",
    "encoder.load_checkpoint",
    "autodiff.backward",
    "momentum.enqueue",
    "momentum.snapshot",
    "momentum.ema_update",
    "sampler.sample_for_batch",
    "objectives.contrastive_loss",
    "objectives.scl_loss",
    "objectives.classification_loss",
    "trainer.train_step",
    "trainer.adam_step",
    "trainer.run_training",
    "metrics.evaluate",
    "metrics.confound_probe",
    "metrics.export_embeddings",
    "fileio.atomic_write",
)

# Public tape ops of lahn.autodiff whose calls are counted per step. An op
# that a later version deletes reports 0 calls; ops it adds show up in the
# "total" counter, which counts every public function of the module.
AUTODIFF_OPS = (
    "matmul",
    "embedding_lookup",
    "mean_pool",
    "stack_rows",
    "row",
    "concat1d",
    "reshape",
    "add",
    "mul",
    "scale",
    "add_rows",
    "add_n",
    "relu",
    "gelu",
    "dropout",
    "cosine_similarity",
    "cosine_many",
    "softmax_cross_entropy",
)
_AUTODIFF_NOT_OPS = frozenset({"param", "constant", "grad_check"})


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        """Wrap ``owner.attr`` if it exists; a missing attribute is skipped."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class StepTimer:
    """The one timer the untraced run keeps: wall time of each train_step.

    ``before``, if given, runs ahead of each step, outside its timed interval.
    """

    def __init__(self, before=None):
        self.steps: list[tuple[int, int, int]] = []  # (start_ns, end_ns, batch size)
        self.before = before

    @contextmanager
    def installed(self):
        patches = Patches()

        def make(fn):
            def timed_step(state, batch, config):
                if self.before is not None:
                    self.before()
                t0 = time.perf_counter_ns()
                out = fn(state, batch, config)
                self.steps.append((t0, time.perf_counter_ns(), batch.size))
                return out

            return timed_step

        patches.replace(ltrainer, "train_step", make)
        try:
            yield self
        finally:
            patches.restore()


class Recorder:
    """In-memory spans plus counters, and the patches that feed them.

    ``op_kind`` names the span kind that is one operation of the workload
    (a training step or a scoring request); autodiff calls are counted only
    while such a span is open.
    """

    def __init__(self, op_kind: str):
        self.op_kind = op_kind
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._op_depth = 0
        self.op_calls: dict[str, int] = defaultdict(int)
        self.tape_entries: list[int] = []
        self.vocab_sizes: list[int] = []
        self.bytes_written = 0
        self.sampler_anchors = 0
        self.sampler_candidates = 0
        self.sampler_selected = 0
        self.sampler_empty = 0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        if name == self.op_kind:
            self._op_depth += 1
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")
        if self.names[idx] == self.op_kind:
            self._op_depth -= 1

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def _spanned(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def _forward(self, fn):
        def wrapper(params, batch, training, rng=None):
            if not training:
                name = "encoder.forward_eval"
            elif params.emb.requires_grad:
                name = "encoder.forward_main"
            else:
                name = "encoder.forward_momentum"
            idx = self.open(name)
            try:
                return fn(params, batch, training, rng)
            finally:
                self.close(idx)

        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self._op_depth:
                self.op_calls[name] += 1
                self.op_calls["total"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters computed from arguments and results --------------------------

    def _count_backward(self, out, tape, loss) -> None:
        self.tape_entries.append(len(tape))

    def _count_vocab(self, vocab, *args, **kwargs) -> None:
        self.vocab_sizes.append(len(vocab))

    def _count_loaded_vocab(self, out, *args, **kwargs) -> None:
        if out[2] is not None:
            self.vocab_sizes.append(len(out[2]))

    def _count_written(self, out, path, *args, **kwargs) -> None:
        self.bytes_written += os.path.getsize(path)

    def _count_sampled(self, negsets, *args, **kwargs) -> None:
        bound = _SAMPLE_SIGNATURE.bind(*args, **kwargs)
        a = bound.arguments
        snap = a["snapshot"]
        labels = np.asarray(a["anchor_labels"])
        if a["strategy"].value == "all":
            cand = np.ones((labels.shape[0], snap.size), dtype=bool)
        else:
            cand = snap.labels[None, :] != labels[:, None]
        exclude = a.get("exclude_ids")
        if exclude is not None:
            cand &= snap.entry_ids[None, :] != np.asarray(exclude)[:, None]
        sizes = [s.size for s in negsets]
        self.sampler_anchors += labels.shape[0]
        self.sampler_candidates += int(cand.sum())
        self.sampler_selected += sum(sizes)
        self.sampler_empty += sum(1 for n in sizes if n == 0)

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every traced boundary for the duration of the block."""
        p = Patches()
        s = self._spanned
        p.replace(ltrainer, "build_vocab", lambda f: s("data.build_vocab", f, self._count_vocab))
        p.replace(ldata, "build_vocab", lambda f: s("data.build_vocab", f, self._count_vocab))
        p.replace(ltrainer, "encode_examples", lambda f: s("data.encode_examples", f))
        p.replace(ldata, "encode_examples", lambda f: s("data.encode_examples", f))
        p.replace(ltrainer, "make_batches", lambda f: s("data.make_batches", f))
        p.replace(ltrainer, "forward", self._forward)
        p.replace(lmetrics, "forward", self._forward)
        p.replace(ltrainer, "save_checkpoint", lambda f: s("encoder.save_checkpoint", f))
        p.replace(
            lencoder, "load_checkpoint", lambda f: s("encoder.load_checkpoint", f, self._count_loaded_vocab)
        )
        p.replace(lad.Tape, "backward", lambda f: s("autodiff.backward", f, self._count_backward))
        p.replace(lmomentum.MomentumQueue, "enqueue_batch", lambda f: s("momentum.enqueue", f))
        p.replace(lmomentum.MomentumQueue, "snapshot", lambda f: s("momentum.snapshot", f))
        p.replace(ltrainer, "ema_update", lambda f: s("momentum.ema_update", f))
        p.replace(lsampler, "sample_for_batch", lambda f: s("sampler.sample_for_batch", f, self._count_sampled))
        for loss in ("contrastive_loss", "scl_loss", "classification_loss"):
            p.replace(lobjectives, loss, lambda f, n=loss: s("objectives." + n, f))
        p.replace(ltrainer, "train_step", lambda f: s("trainer.train_step", f))
        p.replace(ltrainer, "adam_step", lambda f: s("trainer.adam_step", f))
        p.replace(ltrainer, "run_training", lambda f: s("trainer.run_training", f))
        for name in ("evaluate", "confound_probe", "export_embeddings"):
            p.replace(lmetrics, name, lambda f, n=name: s("metrics." + n, f))
        p.replace(lfileio, "atomic_write", lambda f: s("fileio.atomic_write", f, self._count_written))
        for name in autodiff_public_functions():
            p.replace(lad, name, lambda f, n=name: self._counted(n, f))
        try:
            yield self
        finally:
            p.restore()


_SAMPLE_SIGNATURE = inspect.signature(lsampler.sample_for_batch)


def autodiff_public_functions() -> list[str]:
    """Public functions defined in lahn.autodiff other than constructors and tools."""
    return sorted(
        name
        for name, obj in vars(lad).items()
        if inspect.isfunction(obj)
        and obj.__module__ == lad.__name__
        and not name.startswith("_")
        and name not in _AUTODIFF_NOT_OPS
    )


# ---------------------------------------------------------------------------
# summarising a span tree
# ---------------------------------------------------------------------------


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent, so a child that outlives its
    parent never drives the parent's self time below zero.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            a, b = max(starts[c], lo), min(ends[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def subtree_of(parents, roots) -> list[int]:
    """Map each span to the index of its ancestor among ``roots`` (or -1)."""
    roots = set(roots)
    owner = []
    for i, p in enumerate(parents):
        if i in roots:
            owner.append(i)
        elif p >= 0:
            owner.append(owner[p])  # parents always precede children
        else:
            owner.append(-1)
    return owner
