"""In-place elementwise passes over parameter-sized arrays, one block of
rows at a time, split across the process's CPUs when an array is large.

A pass hands a kernel one block of leading-axis rows of each array, plus
scratch of the block's shape, so it allocates no array. The scratch comes
from ``scratch``, made once by the arrays' owner and kept: one slot per
usable CPU, each slot holding the kernel's scratch arrays of one block.
An array of ``2 * SPLIT_MIN`` elements or more is cut into disjoint row
ranges, at most one per slot and per ``SPLIT_MIN`` elements. The calling
thread runs the first range and the process's one pool of worker threads,
made on that process's first split, runs the rest; numpy releases the GIL
inside each ufunc, so the ranges run at the same time.
Every element goes through the kernel's operations in the kernel's order
however the array is cut, so the result is bitwise that of one serial pass.
A pass of one range runs inline and starts no thread.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
from collections.abc import Callable, Sequence

import numpy as np

# elements per block of rows (at least one row). Larger blocks make fewer
# ufunc calls and so fewer GIL hand-offs between the ranges of a split pass,
# but every slot holds its scratch for good: Adam's two blocks take 1 MB a
# slot at this size
BLOCK = 1 << 16
# elements per range of a split pass, at the least
SPLIT_MIN = 1 << 17
# arrays below this size come from the C heap, which reuses small blocks
# well; a mapping each would cost a system call and a page apiece. It is
# glibc's default mmap threshold: a block this large seldom fits a hole the
# heap has, so it grows the heap and, once freed, leaves a hole of its own
_MAPPED_MIN_BYTES = 1 << 17


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def mapped_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """A float64 zero array; from ``_MAPPED_MIN_BYTES`` up, in a private
    anonymous memory mapping of its own.

    A training run keeps its parameters, Adam moments, parameter copies
    and pass scratch in these, so freeing a large one unmaps it. A table
    freed into the C heap stays resident, and small blocks allocated after
    it can keep the next run from reusing its space, so a process that
    trains more than once would peak higher by whole tables, depending on
    its allocation history. The mapping is private, as heap memory is: a
    forked child's writes stay in the child.
    """
    n = math.prod(shape)
    if n * 8 < _MAPPED_MIN_BYTES:
        return np.zeros(shape)
    return np.frombuffer(mmap.mmap(-1, n * 8, flags=mmap.MAP_PRIVATE), dtype=np.float64, count=n).reshape(shape)


def scratch(n: int, width: int = 1) -> np.ndarray:
    """Scratch for ``blocked_pass`` with ``n`` scratch arrays a block, over
    arrays whose rows hold up to ``width`` elements: one slot per usable
    CPU, each ``n`` arrays of one block. Its owner makes it once and keeps
    it; ``s[:, :k]`` serves a kernel of ``k`` scratch arrays."""
    return mapped_zeros((usable_cpus(), n, max(BLOCK, width)))


@functools.cache
def _workers(pid: int):
    """The worker pool of process ``pid``, made on its first split. The pid
    is only the key: a forked child has none of its parent's pool threads
    (work handed to them would never run), and its new pid gets it its own.
    Two threads making a process's first split at once may each build a
    pool; one is cached, the other serves its one pass and is collected, and
    both passes are correct. At interpreter exit a pool stops and joins its
    idle threads, so they never keep the process alive."""
    # imported here, so a process whose passes never split does not load it
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max(usable_cpus() - 1, 1), thread_name_prefix="lahn-pass")


def blocked_pass(kernel: Callable[..., None], arrays: Sequence[np.ndarray | None], scratch: np.ndarray) -> None:
    """Call ``kernel(*blocks, *scratch_blocks)`` over consecutive row blocks.

    ``arrays`` share one shape; ``blocks`` holds each one's rows of the
    block (an entry of None stays None). ``scratch`` is made by
    ``blocks.scratch(k, width)``, ``width`` at least the arrays' row size:
    range ``i`` of the pass uses slot ``i``, and each block takes the
    leading elements of the slot's ``k`` arrays, shaped as the block, so a
    pass allocates none. An exception raised in any range reaches the
    caller once every range has stopped.
    """
    lead = arrays[0]
    n = lead.shape[0]
    rows = max(BLOCK // math.prod(lead.shape[1:]), 1)
    parts = 1 if lead.size < 2 * SPLIT_MIN else min(len(scratch), lead.size // SPLIT_MIN, n)
    if parts == 1:
        _run(kernel, arrays, scratch[0], rows, 0, n)
        return
    from concurrent.futures import wait

    edges = [n * i // parts for i in range(parts + 1)]
    pool = _workers(os.getpid())
    futures = [
        pool.submit(_run, kernel, arrays, scratch[i], rows, edges[i], edges[i + 1])
        for i in range(1, parts)
    ]
    try:
        _run(kernel, arrays, scratch[0], rows, edges[0], edges[1])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _run(kernel, arrays, slot: np.ndarray, rows: int, lo: int, hi: int) -> None:
    """The kernel over rows ``lo`` to ``hi``, ``rows`` at a time."""
    for start in range(lo, hi, rows):
        stop = min(start + rows, hi)
        blocks = [None if a is None else a[start:stop] for a in arrays]
        size, shape = blocks[0].size, blocks[0].shape
        kernel(*blocks, *[s[:size].reshape(shape) for s in slot])
