import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lahn
from lahn import autodiff as ad
from lahn import blocks, trainer
from lahn.data import Batch, Example, write_jsonl
from lahn.encoder import FLAT_NAMES, EncoderDims, clone_params, init_params
from lahn.momentum import ema_update
from lahn.trainer import TrainConfig, adam_step, init_adam, init_state, run_training, train_step

# a table of this many rows at d_emb = 64 is split in two on two CPUs
SPLIT_ROWS = 2 * blocks.SPLIT_MIN // 64 + 10


@pytest.fixture
def ranges(monkeypatch):
    """Records each range a pass runs, with the thread that ran it."""
    seen = []
    real = blocks._run

    def spy(kernel, arrays, scratch, rows, lo, hi):
        seen.append((lo, hi, threading.get_ident()))
        real(kernel, arrays, scratch, rows, lo, hi)

    monkeypatch.setattr(blocks, "_run", spy)
    return seen


def pools():
    """How many pools this process's passes have cached."""
    return blocks._workers.cache_info().currsize


def drop_pool():
    """Stop the cached pool, joining its threads, and forget it."""
    if pools():
        blocks._workers(os.getpid()).shutdown()
    blocks._workers.cache_clear()


@pytest.fixture
def no_pool():
    """The test starts with no pool, as a new process does; a pool it makes
    is stopped after it."""
    drop_pool()
    yield
    drop_pool()


def cpus(monkeypatch, n):
    monkeypatch.setattr(blocks, "usable_cpus", lambda: n)


def bits(a):
    return a.view(np.uint64).copy()


def adam_run(n_cpus, monkeypatch, grad_kinds, steps=3):
    """Adam steps on a split-size table and a small flat group; the table's
    gradient form at step i is grad_kinds[i % len]."""
    cpus(monkeypatch, n_cpus)
    rng = np.random.default_rng(4)
    p = init_params(0, EncoderDims(vocab_size=SPLIT_ROWS, d_emb=64, hidden=5, d_feat=3))
    p.emb.values[...] = rng.normal(size=p.emb.shape)
    state = init_adam(p)
    state.m["emb"][:, 0] = -0.0
    for i in range(steps):
        kind = grad_kinds[i % len(grad_kinds)]
        rows = np.unique(rng.integers(0, SPLIT_ROWS, size=300))
        dense = rng.normal(size=p.emb.shape)
        grads = {name: rng.normal(size=getattr(p, name).shape) for name in FLAT_NAMES}
        grads["emb"] = {"row": ad.RowGrad(rows, dense[rows]), "dense": dense, "none": None}[kind]
        adam_step(p, grads, state, lr=1e-2, beta1=0.3)
    return [bits(a) for a in (p.emb.values, state.m["emb"], state.r["emb"], p.flat, state.m["flat"], state.r["flat"])]


class TestSplitPass:
    @pytest.mark.parametrize("kinds", [("row",), ("dense",), ("none",), ("row", "none", "dense")])
    def test_adam_split_equals_one_part(self, monkeypatch, ranges, kinds):
        one = adam_run(1, monkeypatch, kinds)
        assert {hi - lo for lo, hi, _ in ranges} >= {SPLIT_ROWS}
        ranges.clear()
        split = adam_run(2, monkeypatch, kinds)
        assert {(lo, hi) for lo, hi, _ in ranges} >= {(0, SPLIT_ROWS // 2), (SPLIT_ROWS // 2, SPLIT_ROWS)}
        assert len({ident for *_, ident in ranges}) == 2
        for got, want in zip(split, one):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n_cpus", [2, 3])
    def test_ema_split_equals_one_part(self, monkeypatch, ranges, n_cpus):
        dims = EncoderDims(vocab_size=n_cpus * blocks.SPLIT_MIN // 64 + 10, d_emb=64, hidden=8, d_feat=4)
        runs = []
        for n in (1, n_cpus):
            cpus(monkeypatch, n)
            ranges.clear()
            main, mom = init_params(1, dims), clone_params(init_params(2, dims))
            ema_update(main, mom, 0.9)
            runs.append([bits(t.values) for _, t in mom.named()])
            assert len([lo for lo, hi, _ in ranges if hi - lo > 1000]) == n
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "shape, block, want",
        [
            ((50, 7), 16, [(0, 16), (16, 33), (33, 50)]),  # blocks of 2 rows
            ((5, 100), 16, [(0, 1), (1, 3), (3, 5)]),  # rows wider than a block
            ((7, 30), 200, [(0, 2), (2, 4), (4, 7)]),  # one block a range
        ],
    )
    def test_uneven_ranges_and_blocks(self, monkeypatch, ranges, shape, block, want):
        monkeypatch.setattr(blocks, "BLOCK", block)
        monkeypatch.setattr(blocks, "SPLIT_MIN", 64)
        cpus(monkeypatch, 3)
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=shape), rng.normal(size=shape)
        expected = a * 0.75 + b * 0.25

        def kernel(ab, bb, s):
            ab *= 0.75
            np.multiply(bb, 0.25, out=s)
            ab += s

        blocks.blocked_pass(kernel, (a, b), blocks.scratch(1, shape[1]))
        np.testing.assert_array_equal(a, expected)
        assert sorted((lo, hi) for lo, hi, _ in ranges) == want

    def test_parts_follow_size_and_cpus(self, monkeypatch, ranges):
        cpus(monkeypatch, 2)
        two = blocks.scratch(1)
        cpus(monkeypatch, 8)
        eight = blocks.scratch(1, 5 * blocks.SPLIT_MIN)
        for size in (2 * blocks.SPLIT_MIN - 1, 2 * blocks.SPLIT_MIN, 3 * blocks.SPLIT_MIN):
            ranges.clear()
            blocks.blocked_pass(lambda ab, s: None, (np.zeros(size),), eight)
            assert len(ranges) == max(size // blocks.SPLIT_MIN, 1)
        ranges.clear()
        blocks.blocked_pass(lambda ab, s: None, (np.zeros((2, 5 * blocks.SPLIT_MIN)),), eight)
        assert len(ranges) == 2  # never more ranges than rows
        ranges.clear()
        blocks.blocked_pass(lambda ab, s: None, (np.zeros(3 * blocks.SPLIT_MIN),), two)
        assert len(ranges) == 2  # nor than the scratch has slots

    @pytest.mark.parametrize("failing", ["worker", "caller", "both"])
    def test_error_in_a_range_reaches_the_caller(self, monkeypatch, failing):
        cpus(monkeypatch, 2)
        n = 2 * blocks.SPLIT_MIN
        finished, raised = [], []

        def kernel(ab, ib, s):
            in_worker = ib[0] >= n // 2  # the second range starts at row n // 2
            if failing == "both" or (failing == "worker") == in_worker:
                raise ArithmeticError(f"range from {ib[0]}")
            time.sleep(0.05)
            finished.append(ib.size)

        scratch = blocks.scratch(1)

        def call():
            try:
                blocks.blocked_pass(kernel, (np.zeros(n), np.arange(n)), scratch)
            except ArithmeticError as e:
                raised.append(e)

        caller = threading.Thread(target=call)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive()
        assert len(raised) == 1
        # the range that did not fail ran to its end before the call returned
        assert sum(finished) == (0 if failing == "both" else n // 2)
        a = np.ones(n)
        blocks.blocked_pass(lambda ab, s: ab.__imul__(2.0), (a,), scratch)
        assert (a == 2.0).all()  # and the pool still runs passes

    def test_many_ranges_under_fast_thread_switching(self, monkeypatch, no_pool):
        # more ranges and workers than cores, each range adding to its own
        # rows: a row run twice or skipped breaks the count
        monkeypatch.setattr(blocks, "BLOCK", 64)
        monkeypatch.setattr(blocks, "SPLIT_MIN", 256)
        cpus(monkeypatch, 6)
        a, scratch = np.zeros((300, 7)), blocks.scratch(1, 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                blocks.blocked_pass(lambda ab, s: ab.__iadd__(1.0), (a,), scratch)
        finally:
            sys.setswitchinterval(interval)
        assert (a == 50.0).all()

    def test_concurrent_first_splits(self, monkeypatch, no_pool):
        # two threads make the process's first split at once: each may build
        # a pool (the cache holds no lock), and both passes must be correct
        n = 2 * blocks.SPLIT_MIN
        start = np.random.default_rng(8).normal(size=n)

        def kernel(ab, s):
            np.multiply(ab, ab, out=s)
            ab *= 0.75
            ab += s

        cpus(monkeypatch, 1)
        want = start.copy()
        blocks.blocked_pass(kernel, (want,), blocks.scratch(1))
        assert pools() == 0

        built = []

        class SlowPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                time.sleep(0.2)  # the other thread reaches its first split meanwhile
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SlowPool)
        cpus(monkeypatch, 2)
        arrays = [start.copy(), start.copy()]
        barrier = threading.Barrier(2)

        def split(a, scratch):
            barrier.wait()
            blocks.blocked_pass(kernel, (a,), scratch)

        threads = [threading.Thread(target=split, args=(a, blocks.scratch(1))) for a in arrays]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        for pool in built:
            pool.shutdown()
        assert 1 <= len(built) <= 2 and pools() == 1
        for a in arrays:
            np.testing.assert_array_equal(bits(a), bits(want))

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
            scratch = blocks.scratch(1)
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

    def test_given_scratch_serves_every_range_of_a_split(self, monkeypatch, ranges, no_pool):
        # 30000 x 8 at BLOCK / 8 rows a block, split in three ranges of 10000
        # rows: range i runs on slot i of the given scratch, each block on
        # the leading elements of its slot, and the pass allocates no block
        monkeypatch.setattr(blocks, "SPLIT_MIN", 1 << 14)
        rng = np.random.default_rng(9)
        start, b = rng.normal(size=(30_000, 8)), rng.normal(size=(30_000, 8))

        def kernel(ab, bb, s1, s2):
            np.multiply(bb, bb, out=s1)
            np.multiply(ab, 0.5, out=s2)
            np.add(s1, s2, out=ab)

        cpus(monkeypatch, 1)
        want = start.copy()
        blocks.blocked_pass(kernel, (want, b), blocks.scratch(2, 8))
        cpus(monkeypatch, 3)
        scratch = blocks.scratch(2, 8)
        assert scratch.shape == (3, 2, blocks.BLOCK)
        blocks.blocked_pass(kernel, (start.copy(), b), scratch)  # the pool exists before measuring
        ranges.clear()
        got = start.copy()
        scratch[...] = np.nan
        tracemalloc.start()
        try:
            blocks.blocked_pass(kernel, (got, b), scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted((lo, hi) for lo, hi, _ in ranges) == [(0, 10_000), (10_000, 20_000), (20_000, 30_000)]
        np.testing.assert_array_equal(bits(got), bits(want))
        # a range's first block fills its slot; its last, shorter one
        # overwrites the slot's leading elements
        rows = blocks.BLOCK // 8
        for i, lo in enumerate((0, 10_000, 20_000)):
            first, last = (b * b)[lo : lo + rows].ravel(), (b * b)[lo + rows : lo + 10_000].ravel()
            np.testing.assert_array_equal(scratch[i, 0], np.concatenate([last, first[last.size :]]))
        assert peak < blocks.BLOCK * 8 // 4

    def test_usable_cpus_without_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert blocks.usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert blocks.usable_cpus() == 1


class TestEmaInPlace:
    def test_bitwise_the_expression_over_several_blocks(self):
        dims = EncoderDims(vocab_size=3 * blocks.BLOCK // 64 + 5, d_emb=64, hidden=6, d_feat=4)
        main, mom = init_params(3, dims), clone_params(init_params(4, dims))
        m = 0.987
        want = {n: m * t.values + (1 - m) * dict(main.named())[n].values for n, t in mom.named()}
        ema_update(main, mom, m)
        for n, t in mom.named():
            np.testing.assert_array_equal(bits(t.values), bits(want[n]))

    def test_no_parameter_sized_temporary_at_wide_vocab(self, monkeypatch):
        # a 20000 x 64 table is 10.24 MB; once the pool and main's scratch
        # exist, the two ranges' passes allocate no block at all
        cpus(monkeypatch, 2)
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
    def test_row_grad_step_allocates_only_its_gathers_at_wide_vocab(self, monkeypatch):
        # the row-sparse path gathers theta, m and r at the gradient's rows,
        # three arrays of g.values' size; its passes allocate no block
        cpus(monkeypatch, 2)
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
    the split size at d_emb 64. The first word tells the label."""
    return [
        Example(text=f"c{i % 2} " + " ".join(f"w{i}x{j}" for j in range(words)), label=i % 2)
        for i in range(first, first + n)
    ]


WIDE_CONFIG = dict(
    objective="lahn", tau=0.2, m=0.99, q=16, k=4, batch_size=8, epochs=2,
    max_len=16, d_emb=64, hidden=16, d_feat=8, min_freq=1,
)


class TestTrainingAtSplitSize:
    def test_artifacts_equal_across_runs_and_cpu_counts(self, tmp_path, monkeypatch, ranges):
        cfg = TrainConfig(**WIDE_CONFIG)
        train, val = wide_examples(40), wide_examples(8, first=40)
        artifacts = {}
        for run, n_cpus in (("a", 2), ("b", 2), ("one", 1)):
            cpus(monkeypatch, n_cpus)
            ranges.clear()
            result = run_training(cfg, train, val, tmp_path / run)
            assert len(result.vocab) * cfg.d_emb >= 2 * blocks.SPLIT_MIN
            assert len({ident for *_, ident in ranges}) == n_cpus
            artifacts[run] = {
                name: (tmp_path / run / name).read_bytes()
                for name in ("metrics.jsonl", "checkpoint_last.npz", "checkpoint_best.npz")
            }
        assert artifacts["a"] == artifacts["b"] == artifacts["one"]

    def test_small_vocabulary_step_starts_no_thread(self, no_pool):
        cfg = TrainConfig(**{**WIDE_CONFIG, "d_emb": 8})
        state = init_state(cfg, 50)
        rng = np.random.default_rng(7)
        before = threading.active_count()
        for _ in range(5):
            ids = rng.integers(2, 50, size=(8, 16))
            batch = Batch(token_ids=ids, mask=np.ones((8, 16), dtype=bool), labels=np.arange(8) % 2)
            train_step(state, batch, cfg)
        assert threading.active_count() == before
        assert pools() == 0

    def test_cli_train_exits_promptly(self, tmp_path):
        # the worker is idle when training ends; it must not hold the
        # interpreter open
        write_jsonl(tmp_path / "train.jsonl", wide_examples(40))
        write_jsonl(tmp_path / "val.jsonl", wide_examples(8, first=40))
        (tmp_path / "config.json").write_text(json.dumps(WIDE_CONFIG))
        script = (
            "import sys, time, lahn.blocks as b, lahn.cli as c\n"
            "b.usable_cpus = lambda: 2\n"
            "rc = c.main(sys.argv[1:])\n"
            "assert b._workers.cache_info().currsize, 'no pass was split'\n"
            "print(time.time(), file=sys.stderr)\n"
            "sys.exit(rc)\n"
        )
        src = str(Path(lahn.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", script, "train", "--config", str(tmp_path / "config.json"),
             "--train", str(tmp_path / "train.jsonl"), "--val", str(tmp_path / "val.jsonl"),
             "--out", str(tmp_path / "run")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        exited = time.time()
        assert proc.returncode == 0, proc.stderr
        assert exited - float(proc.stderr.split()[-1]) < 10


def _split_pass_in_child(n):
    blocks.usable_cpus = lambda: 2
    a = np.ones(n)
    blocks.blocked_pass(lambda ab, s: ab.__imul__(3.0), (a,), blocks.scratch(1))
    sys.exit(0 if (a == 3.0).all() else 1)


def _write_in_child(a):
    a[5, 3] = 123.0
    sys.exit(0)


def test_forked_child_writes_stay_in_the_child():
    # a 20000 x 64 table lives in a mapping of its own; a child's write to
    # it must not reach the parent, as with memory from the C heap
    p = init_params(0, EncoderDims(vocab_size=20_000, d_emb=64, hidden=8, d_feat=4))
    before = p.emb.values[5, 3]
    child = multiprocessing.get_context("fork").Process(target=_write_in_child, args=(p.emb.values,))
    child.start()
    child.join(timeout=60)
    assert child.exitcode == 0
    assert p.emb.values[5, 3] == before


def test_forked_child_splits_without_the_parents_threads(monkeypatch):
    # a child forked after the parent's pool has threads gets none of them
    cpus(monkeypatch, 2)
    n = 2 * blocks.SPLIT_MIN
    blocks.blocked_pass(lambda ab, s: None, (np.zeros(n),), blocks.scratch(1))
    assert pools() == 1
    child = multiprocessing.get_context("fork").Process(target=_split_pass_in_child, args=(n,))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the split pass in the forked child never finished")
    assert child.exitcode == 0
