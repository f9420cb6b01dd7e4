"""Crash-safe file writes shared by every checkpoint format.

:func:`atomic_write_bytes` (and its text form) is the one
durable-save path every checkpoint writer uses: a plain
``Path.write_bytes`` that crashes mid-write leaves a truncated file
where the *only* copy of a fleet or deployment snapshot used to be.
Writing a temp file in the same directory, fsyncing it, and
``os.replace``-ing it over the target makes the save all-or-nothing —
readers only ever see the old complete file or the new complete file.
Files that hold arrays are binary bodies
(:func:`repro.utils.binframe.write_file`).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write_bytes", "atomic_write_text", "fsync_directory"]


def fsync_directory(directory: Path) -> None:
    """Flush a directory entry to disk (rename/create durability); a
    no-op on platforms that cannot fsync directories."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Crash-safe replacement for ``Path(path).write_bytes(data)``.

    The bytes land in a temp file beside the target (same filesystem, so
    the final rename is atomic), are fsynced, then ``os.replace``d over
    the target; the directory entry is fsynced last so the rename itself
    survives a power loss.  A crash at any point leaves either the old
    file or the new one — never a truncated hybrid.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."),
                                    prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with_error = Path(tmp_name)
        if with_error.exists():
            with_error.unlink()
        raise
    fsync_directory(path.parent)


def atomic_write_text(path: str | Path, text: str) -> None:
    """:func:`atomic_write_bytes` over UTF-8 ``text``."""
    atomic_write_bytes(path, text.encode("utf-8"))
