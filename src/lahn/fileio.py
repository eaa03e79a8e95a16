"""Atomic file writes: temp file in the destination directory, then rename.

Every artifact this package writes (datasets, vocabularies, metrics logs,
checkpoints, embedding exports) goes through one of these helpers so that a
crash mid-write never leaves a truncated file at the final path. None of them
writes into an existing file: each makes a new one and renames it onto the
path, so a second name that ``atomic_link`` gave a file keeps its bytes.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    data = text.encode("utf-8")
    atomic_write(path, lambda fh: fh.write(data))


def _temp_name(path: Path) -> Path:
    return path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")


def atomic_write(path: str | os.PathLike, write: Callable) -> None:
    """Call ``write(fh)`` on a temp file, fsync, then rename onto ``path``.
    The temp file gets mode 0o666 less the umask, as ``open()`` gives a new
    file, and the rename keeps it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _temp_name(path)
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


def atomic_link(src: str | os.PathLike, path: str | os.PathLike) -> bool:
    """Make ``path`` a second name (a hard link) of the file ``src``: link
    a temp name in ``path``'s directory, then rename it onto ``path``.

    Returns False, having written nothing, when ``os.link`` raises
    ``OSError`` (a filesystem without hard links, say), so the caller can
    write the bytes itself. Any later error removes the temp name and is
    raised. The two names share one file, bytes and mode alike.
    """
    path = Path(path)
    tmp = _temp_name(path)
    try:
        os.link(src, tmp)
    except OSError:
        return False
    try:
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return True
