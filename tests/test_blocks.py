import errno
import mmap
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from lahn import autodiff as ad
from lahn import blocks, momentum, trainer
from lahn.data import Example
from lahn.encoder import FLAT_NAMES, EncoderDims, clone_params, init_params
from lahn.momentum import ema_update
from lahn.trainer import TrainConfig, adam_step, init_adam, run_training

# a table of this many rows at d_emb = 64 takes four full blocks and a short one
WIDE_ROWS = 4 * blocks.BLOCK // 64 + 10


def bits(a):
    return a.view(np.uint64).copy()


def row_range(block, array):
    """The rows of ``array`` that ``block``, a view of them, holds."""
    first = (block.ctypes.data - array.ctypes.data) // array.strides[0]
    return first, first + block.shape[0]


class TestSplitPass:
    """A pass splits its arrays into row blocks and runs them in order."""

    @pytest.mark.parametrize(
        "shape, block, want",
        [
            ((50, 7), 16, [(i, i + 2) for i in range(0, 50, 2)]),  # blocks of 2 rows
            ((5, 100), 16, [(i, i + 1) for i in range(5)]),  # rows wider than a block
            ((7, 28), 200, [(0, 7)]),  # one block a pass
        ],
    )
    def test_uneven_ranges_and_blocks(self, monkeypatch, shape, block, want):
        monkeypatch.setattr(blocks, "BLOCK", block)
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=shape), rng.normal(size=shape)
        expected = a * 0.75 + b * 0.25
        seen = []

        def kernel(ab, bb, s):
            seen.append(row_range(ab, a))
            assert row_range(bb, b) == seen[-1] and s.shape == ab.shape
            ab *= 0.75
            np.multiply(bb, 0.25, out=s)
            ab += s

        blocks.blocked_pass(kernel, (a, b), blocks.scratch(shape[1]))
        np.testing.assert_array_equal(a, expected)
        assert seen == want

    def test_threads_passing_at_once_keep_their_own_scratch(self):
        # each kernel parks its block in its caller's scratch, hands the
        # interpreter to another thread and reads the block back: scratch
        # the pass shared between calling threads would hand one thread's
        # values to another
        def kernel(ab, s):
            np.copyto(s, ab)
            time.sleep(0)
            np.add(s, 1.0, out=ab)

        arrays = [np.full(500 + i, float(i)) for i in range(8)]

        def passes(a):
            scratch = blocks.scratch()
            for _ in range(50):
                blocks.blocked_pass(kernel, (a,), scratch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=passes, args=(a,)) for a in arrays]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, a in enumerate(arrays):
            assert (a == i + 50.0).all()

    def test_given_scratch_serves_every_range_of_a_split(self):
        # 30000 x 8 at BLOCK / 8 rows a block is three full blocks and a
        # short one: every block runs on the leading elements of the one
        # given scratch block, and the pass allocates no block
        rng = np.random.default_rng(9)
        start, b = rng.normal(size=(30_000, 8)), rng.normal(size=(30_000, 8))
        seen = []

        def kernel(ab, bb, s):
            seen.append((row_range(ab, got), s.ctypes.data))
            np.multiply(bb, bb, out=s)
            ab *= 0.5
            ab += s

        scratch = blocks.scratch(8)
        assert scratch.shape == (blocks.BLOCK,)
        got = start.copy()
        scratch[...] = np.nan
        tracemalloc.start()
        try:
            blocks.blocked_pass(kernel, (got, b), scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = blocks.BLOCK // 8
        assert seen == [((lo, min(lo + rows, 30_000)), scratch.ctypes.data) for lo in range(0, 30_000, rows)]
        np.testing.assert_array_equal(bits(got), bits(start * 0.5 + b * b))
        # the last, shorter block overwrites the leading elements of the
        # block before it
        last, before = (b * b)[3 * rows :].ravel(), (b * b)[2 * rows : 3 * rows].ravel()
        np.testing.assert_array_equal(scratch, np.concatenate([last, before[last.size :]]))
        assert peak < blocks.BLOCK * 8 // 4


class TestEmaInPlace:
    def test_bitwise_the_expression_over_several_blocks(self):
        dims = EncoderDims(vocab_size=3 * blocks.BLOCK // 64 + 5, d_emb=64, hidden=6, d_feat=4)
        main, mom = init_params(3, dims), clone_params(init_params(4, dims))
        m = 0.987
        want = {n: m * t.values + (1 - m) * dict(main.named())[n].values for n, t in mom.named()}
        ema_update(main, mom, m)
        for n, t in mom.named():
            np.testing.assert_array_equal(bits(t.values), bits(want[n]))

    def test_no_parameter_sized_temporary_at_wide_vocab(self):
        # a 20000 x 64 table is 10.24 MB; once main's scratch exists, the
        # passes allocate no block at all
        dims = EncoderDims(vocab_size=20_000, d_emb=64, hidden=8, d_feat=4)
        main, mom = init_params(1, dims), clone_params(init_params(2, dims))
        ema_update(main, mom, 0.99)
        tracemalloc.start()
        try:
            ema_update(main, mom, 0.99)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestAdamInPlace:
    def test_row_grad_step_allocates_only_its_gathers_at_wide_vocab(self):
        # the row-sparse path gathers theta, m and r at the gradient's rows,
        # three arrays of g.values' size; its passes allocate no block
        p = init_params(0, EncoderDims(vocab_size=20_000, d_emb=64, hidden=8, d_feat=4))
        state = init_adam(p)
        rng = np.random.default_rng(3)
        grads = {name: rng.normal(size=getattr(p, name).shape) for name in FLAT_NAMES}
        rows = np.unique(rng.integers(0, 20_000, size=1000))
        grads["emb"] = g = ad.RowGrad(rows, rng.normal(size=(rows.size, 64)))
        adam_step(p, grads, state, lr=1e-2)
        tracemalloc.start()
        try:
            adam_step(p, grads, state, lr=1e-2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * g.values.nbytes


class TestOneScratchBlock:
    @pytest.mark.parametrize("d_emb, vocab_size", [(64, WIDE_ROWS), (blocks.BLOCK + 1, 5)])
    def test_every_range_gets_one_slot_of_the_owners_scratch(self, monkeypatch, d_emb, vocab_size):
        # Adam's row-sparse, dense and flat passes and the EMA's two passes
        # each run on params.scratch itself, one block of it, and every
        # block on its leading elements, rows wider than a block included
        passes, starts = [], set()

        def spy(real):
            def blocked_pass(kernel, arrays, scratch):
                passes.append(scratch)
                real(lambda *b: (starts.add(b[-1].ctypes.data), kernel(*b)), arrays, scratch)

            return blocked_pass

        monkeypatch.setattr(trainer, "blocked_pass", spy(trainer.blocked_pass))
        monkeypatch.setattr(momentum, "blocked_pass", spy(momentum.blocked_pass))
        dims = EncoderDims(vocab_size=vocab_size, d_emb=d_emb, hidden=3, d_feat=2)
        p, mom = init_params(0, dims), clone_params(init_params(1, dims))
        assert p.scratch.shape == (max(blocks.BLOCK, d_emb),)
        state = init_adam(p)
        rng = np.random.default_rng(8)
        grads = {name: rng.normal(size=getattr(p, name).shape) for name in FLAT_NAMES}
        rows = np.arange(0, vocab_size, 3)
        for g in (ad.RowGrad(rows, rng.normal(size=(rows.size, d_emb))), rng.normal(size=p.emb.shape)):
            adam_step(p, {**grads, "emb": g}, state, lr=1e-2)
        ema_update(p, mom, 0.99)
        # Adam: rows, table, flat; then table, flat; EMA: table, flat
        assert len(passes) == 7
        assert all(scratch is p.scratch for scratch in passes)
        assert starts == {p.scratch.ctypes.data}


class TestRowGradDensified:
    @pytest.mark.parametrize("n_rows, dense_passes", [(20, 4), (19, 0)])
    def test_half_covered_table_takes_the_dense_update(self, monkeypatch, n_rows, dense_passes):
        # 20 of 40 rows are densified, 19 stay row-sparse; either way the
        # result is bitwise that of the dense gradient
        passes = []
        real = blocks.blocked_pass

        def spy(kernel, arrays, scratch):
            passes.append(arrays[1] is not None and arrays[1].shape == (40, 3))
            real(kernel, arrays, scratch)

        monkeypatch.setattr(trainer, "blocked_pass", spy)
        rng = np.random.default_rng(6)
        rows = np.arange(0, 2 * n_rows, 2)
        grads = [ad.RowGrad(rows, rng.normal(size=(n_rows, 3))) for _ in range(4)]
        grads[1].values[0] = -0.0
        runs = []
        for dense in (False, True):
            p = init_params(0, EncoderDims(vocab_size=40, d_emb=3, hidden=4, d_feat=2))
            p.emb.values[...] = 1.0
            state = init_adam(p)
            state.m["emb"][:, 0] = -0.0
            for g in grads:
                adam_step(p, {**dict.fromkeys(FLAT_NAMES), "emb": g.dense((40, 3)) if dense else g}, state, lr=1e-2)
            runs.append([bits(a) for a in (p.emb.values, state.m["emb"], state.r["emb"])])
            if not dense:
                assert sum(passes) == dense_passes
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)


def wide_examples(n, first=0, words=110):
    """Examples of their own words each: 40 of them take the vocabulary past
    four blocks at d_emb 64. The first word tells the label."""
    return [
        Example(text=f"c{i % 2} " + " ".join(f"w{i}x{j}" for j in range(words)), label=i % 2)
        for i in range(first, first + n)
    ]


WIDE_CONFIG = dict(
    objective="lahn", tau=0.2, m=0.99, q=16, k=4, batch_size=8, epochs=2,
    max_len=16, d_emb=64, hidden=16, d_feat=8, min_freq=1,
)


class TestTrainingAtWideVocabulary:
    def test_artifacts_equal_across_runs(self, tmp_path):
        cfg = TrainConfig(**WIDE_CONFIG)
        train, val = wide_examples(40), wide_examples(8, first=40)
        artifacts = {}
        for run in ("a", "b"):
            result = run_training(cfg, train, val, tmp_path / run)
            assert len(result.vocab) * cfg.d_emb >= 4 * blocks.BLOCK
            artifacts[run] = {
                name: (tmp_path / run / name).read_bytes()
                for name in ("metrics.jsonl", "checkpoint_last.npz", "checkpoint_best.npz")
            }
        assert artifacts["a"] == artifacts["b"]

    def test_wide_vocabulary_training_starts_no_thread(self, tmp_path):
        before = threading.active_count()
        run_training(TrainConfig(**WIDE_CONFIG), wide_examples(40), wide_examples(8, first=40), tmp_path)
        assert threading.active_count() == before


def _write_in_child(*tables):
    for a in tables:
        a[5, 3] = 123
    sys.exit(0)


def test_forked_child_writes_stay_in_the_child():
    # a 20000 x 64 table, float64 or int64, lives in a mapping of its own; a
    # child's write to it must not reach the parent, as with memory from the
    # C heap
    p = init_params(0, EncoderDims(vocab_size=20_000, d_emb=64, hidden=8, d_feat=4))
    ids = blocks.mapped_zeros((20_000, 64), np.int64)
    before = p.emb.values[5, 3]
    child = multiprocessing.get_context("fork").Process(target=_write_in_child, args=(p.emb.values, ids))
    child.start()
    child.join(timeout=60)
    assert child.exitcode == 0
    assert p.emb.values[5, 3] == before
    assert ids[5, 3] == 0


@pytest.mark.parametrize("shape", [(4, 64), (20_000, 64)])
def test_mapped_zeros_of_a_dtype(shape):
    # the smaller array comes from the heap, the larger from a mapping
    a = blocks.mapped_zeros(shape, np.int64)
    assert a.dtype == np.int64 and a.shape == shape and not a.any()
    assert blocks.mapped_zeros(shape).dtype == np.float64
    owner = a
    while isinstance(owner, np.ndarray):
        owner = owner.base
    assert isinstance(getattr(owner, "obj", owner), mmap.mmap) == (a.nbytes >= blocks._MAPPED_MIN_BYTES)


def spy_mmap(monkeypatch, refuse=False):
    """Put a subclass of ``mmap.mmap`` in its place that logs each
    ``madvise`` call as (mapping size, advice); with ``refuse`` the call
    raises ``OSError`` as a kernel that refuses the advice would."""
    calls = []

    class Spy(mmap.mmap):
        def madvise(self, option, *args):
            calls.append((len(self), option))
            if refuse:
                raise OSError(errno.EINVAL, "advice refused")
            return super().madvise(option, *args)

    monkeypatch.setattr(mmap, "mmap", Spy)
    return calls


@pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"), reason="no MADV_HUGEPAGE on this platform")
@pytest.mark.parametrize(
    "shape, advised",
    [((1 << 18,), True), ((20_000, 64), True), (((1 << 18) - 1,), False), ((blocks._MAPPED_MIN_BYTES // 8,), False)],
)
def test_mappings_of_two_mib_and_up_ask_for_huge_pages(monkeypatch, shape, advised):
    # 1 << 18 float64 are exactly 2 MiB; one element fewer, or the smallest
    # mapped array, keeps a mapping of small pages
    calls = spy_mmap(monkeypatch)
    a = blocks.mapped_zeros(shape)
    assert calls == ([(a.nbytes, mmap.MADV_HUGEPAGE)] if advised else [])


@pytest.mark.parametrize("refuse, advice", [(True, True), (False, False)])
def test_refused_or_missing_advice_still_gives_a_zeroed_writable_array(monkeypatch, refuse, advice):
    calls = spy_mmap(monkeypatch, refuse=refuse)
    if not advice:
        monkeypatch.delattr(mmap, "MADV_HUGEPAGE", raising=False)
    a = blocks.mapped_zeros((20_000, 64))
    assert len(calls) == int(refuse and hasattr(mmap, "MADV_HUGEPAGE"))
    assert a.shape == (20_000, 64) and not a.any()
    a[...] = 2.5
    assert (a == 2.5).all()


def thp_mode():
    """The bracketed transparent huge page mode, read only, or None."""
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as fh:
            text = fh.read()
    except OSError:
        return None
    return text[text.find("[") + 1 : text.find("]")] or None


def anon_huge_kib():
    with open("/proc/self/smaps_rollup") as fh:
        for line in fh:
            if line.startswith("AnonHugePages:"):
                return int(line.split()[1])
    return 0


@pytest.mark.skipif(
    not hasattr(mmap, "MADV_HUGEPAGE") or thp_mode() in (None, "never") or not os.path.exists("/proc/self/smaps_rollup"),
    reason="transparent huge pages are off or cannot be counted",
)
def test_a_written_wide_table_is_backed_by_huge_pages():
    before = anon_huge_kib()
    a = blocks.mapped_zeros((20_000, 64))
    a[...] = 1.0
    assert anon_huge_kib() > before
