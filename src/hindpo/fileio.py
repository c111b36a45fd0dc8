"""Atomic artefact writes: a reader finds the old file or the whole new
one at a path, never a half-written one."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable


def write_atomic(path: str | Path, chunks: str | Iterable[str]) -> Path:
    """Write UTF-8 text to ``path`` through a temp file in its directory.

    The chunks go to ``.<name>.<pid>.tmp`` next to the target, which
    ``os.replace`` then moves over ``path`` in one step. If producing or
    writing a chunk raises, the temp file is removed and an earlier file
    at ``path`` is left as it was.
    """
    path = Path(path)
    if isinstance(chunks, str):
        chunks = (chunks,)
    tmp = path.with_name(".%s.%d.tmp" % (path.name, os.getpid()))
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
