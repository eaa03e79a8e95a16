"""In-place elementwise passes over parameter-sized arrays, one block of
rows at a time, split across the process's CPUs when an array is large.

A pass hands a kernel one block of leading-axis rows of each array, plus
scratch of the block's shape (rows of the caller's, if it keeps some), so it
allocates no array-sized temporary. An array of ``2 * SPLIT_MIN`` elements
or more is cut into disjoint row ranges, one per usable CPU and at most one
per ``SPLIT_MIN`` elements. The calling thread runs the first range and the
process's one pool of worker threads, made on that process's first split,
runs the rest; numpy releases the GIL inside each ufunc, so the ranges run
at the same time.
Every element goes through the kernel's operations in the kernel's order
however the array is cut, so the result is bitwise that of one serial pass.
A pass of one range runs inline and starts no thread.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Callable, Sequence

import numpy as np

# elements per block of rows (at least one row). Larger blocks make fewer
# ufunc calls and so fewer GIL hand-offs between the ranges of a split pass,
# but every range holds its scratch at once: Adam's two blocks take 1 MB a
# range at this size
BLOCK = 1 << 16
# elements per range of a split pass, at the least
SPLIT_MIN = 1 << 17


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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


def blocked_pass(kernel: Callable[..., None], arrays: Sequence[np.ndarray | None], scratch: int | np.ndarray) -> None:
    """Call ``kernel(*blocks, *scratch)`` over consecutive row blocks.

    ``arrays`` share one shape; ``blocks`` holds each one's rows of the
    block (an entry of None stays None) and ``scratch`` that many
    uninitialised arrays of the block's shape. The caller allocates every
    range's scratch in one array, so a worker thread allocates no block.
    ``scratch`` may instead be the arrays themselves, rows of one array of
    the arrays' shape: each range then takes its own rows of them, and each
    block the leading rows of its range's, so a pass allocates none.
    An exception raised in any range reaches the caller once every range
    has stopped.
    """
    lead = arrays[0]
    given = not isinstance(scratch, int)
    if lead.size <= BLOCK:  # one block: the arrays themselves
        kernel(*arrays, *(scratch if given else [np.empty(lead.shape) for _ in range(scratch)]))
        return
    n = lead.shape[0]
    rows = max(BLOCK * n // lead.size, 1)
    parts = 1 if lead.size < 2 * SPLIT_MIN else min(usable_cpus(), lead.size // SPLIT_MIN, n)
    edges = [n * i // parts for i in range(parts + 1)]
    if given:
        scratch = [scratch[:, a : min(a + rows, b)] for a, b in zip(edges, edges[1:])]
    else:  # the last range is the longest: ceil(n / parts) rows
        scratch = np.empty((parts, scratch, min(rows, n - edges[-2])) + lead.shape[1:])
    if parts == 1:
        _run(kernel, arrays, scratch[0], rows, 0, n)
        return
    from concurrent.futures import wait

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


def _run(kernel, arrays, scratch: np.ndarray, rows: int, lo: int, hi: int) -> None:
    """The kernel over rows ``lo`` to ``hi``, ``rows`` at a time."""
    scratch = list(scratch)
    for start in range(lo, hi, rows):
        stop = min(start + rows, hi)
        if stop - start < len(scratch[0]):  # a range's last, shorter block
            scratch = [s[: stop - start] for s in scratch]
        kernel(*[None if a is None else a[start:stop] for a in arrays], *scratch)
