"""Atomic file writes: temp file in the destination directory, then rename.

Every artifact this package writes (datasets, vocabularies, metrics logs,
checkpoints, embedding exports) goes through one of these helpers so that a
crash mid-write never leaves a truncated file at the final path.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    data = text.encode("utf-8")
    atomic_write(path, lambda fh: fh.write(data))


def atomic_write(path: str | os.PathLike, write: Callable) -> None:
    """Call ``write(fh)`` on a temp file, fsync, then rename onto ``path``.
    The temp file gets mode 0o666 less the umask, as ``open()`` gives a new
    file, and the rename keeps it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
