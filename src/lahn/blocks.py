"""In-place elementwise passes over parameter-sized arrays, one block of
rows at a time.

A pass hands a kernel one block of leading-axis rows of each array, plus
one scratch block of the block's shape, so it allocates no array. The
scratch comes from ``scratch``, made once by the arrays' owner and kept;
passes that run at once in two threads need a scratch each. The blocks run
in order, first row to last, in the calling thread.

The arrays these passes walk come from ``mapped_zeros``, which advises those
of 2 MiB and up onto transparent huge pages.
"""

from __future__ import annotations

import math
import mmap
from collections.abc import Callable, Sequence

import numpy as np

# elements per block of rows (at least one row). Larger blocks make fewer
# ufunc calls, but the arrays' owner holds its scratch block for good: one
# block takes 512 KB at this size
BLOCK = 1 << 16
# arrays below this size come from the C heap, which reuses small blocks
# well; a mapping each would cost a system call and a page apiece. It is
# glibc's default mmap threshold: a block this large seldom fits a hole the
# heap has, so it grows the heap and, once freed, leaves a hole of its own
_MAPPED_MIN_BYTES = 1 << 17
# mappings from this size up are advised onto transparent huge pages: one
# huge page is 2 MiB on x86-64 and arm64 with 4 KiB pages, so a smaller
# mapping could hold none of them
_HUGE_MIN_BYTES = 1 << 21


def mapped_zeros(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A zero array; from ``_MAPPED_MIN_BYTES`` up, in a private anonymous
    memory mapping of its own.

    A training run keeps its parameters, Adam moments, parameter copies
    and pass scratch in these, and ``data.encode_examples`` a split's id
    table and staged ids, so freeing a large one unmaps it. A table freed
    into the C heap stays resident, and small blocks allocated after it can
    keep the next run from reusing its space, so a process that trains more
    than once would peak higher by whole tables, depending on its
    allocation history. The mapping is private, as heap memory is: a forked child's
    writes stay in the child.

    A mapping of ``_HUGE_MIN_BYTES`` or more is advised onto transparent
    huge pages (``MADV_HUGEPAGE``). At a wide vocabulary that is the
    embedding table and the arrays shaped like it (Adam's two moments, the
    best and momentum copies), and an id table of 2 MiB or more; at the
    paper's 34-token vocabulary no array is that large. Each 2 MiB-aligned
    span of such a mapping then faults in as one page on its first write,
    instead of 512, and a pass over it misses the TLB less. The advice
    changes no value; where the platform lacks it or the kernel refuses
    it, the mapping keeps small pages.
    """
    dtype = np.dtype(dtype)
    n = math.prod(shape)
    nbytes = n * dtype.itemsize
    if nbytes < _MAPPED_MIN_BYTES:
        return np.zeros(shape, dtype)
    mapping = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    advice = getattr(mmap, "MADV_HUGEPAGE", None)
    if nbytes >= _HUGE_MIN_BYTES and advice is not None:
        try:
            mapping.madvise(advice)
        except OSError:
            pass
    return np.frombuffer(mapping, dtype, n).reshape(shape)


def scratch(width: int = 1) -> np.ndarray:
    """Scratch for ``blocked_pass`` over arrays whose rows hold up to
    ``width`` elements: one scratch block. Its owner makes it once and
    keeps it."""
    return mapped_zeros((max(BLOCK, width),))


def blocked_pass(kernel: Callable[..., None], arrays: Sequence[np.ndarray | None], scratch: np.ndarray) -> None:
    """Call ``kernel(*blocks, s)`` over consecutive row blocks, in order.

    ``arrays`` share one shape; ``blocks`` holds each one's rows of the
    block (an entry of None stays None). ``scratch`` is made by
    ``blocks.scratch(width)``, ``width`` at least the arrays' row size, and
    ``s`` is its leading elements, shaped as the block, so a pass
    allocates none.
    """
    lead = arrays[0]
    rows = max(BLOCK // math.prod(lead.shape[1:]), 1)
    for start in range(0, lead.shape[0], rows):
        blocks = [None if a is None else a[start : start + rows] for a in arrays]
        kernel(*blocks, scratch[: blocks[0].size].reshape(blocks[0].shape))
