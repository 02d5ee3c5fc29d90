"""Small shared utilities.

Currently: atomic file replacement.  Several subsystems rewrite small
state files in place — the ``BENCH_*.json`` baselines, the cluster's
voted-watermark logs, history-log compactions.  A plain
``write_text`` can be interrupted mid-write (SIGKILL, job timeout,
power loss), leaving a truncated file that the next reader consumes as
corrupt state.  Writing to a sibling temp file
and ``os.replace``-ing it over the target makes every such update
all-or-nothing: readers only ever see the old complete file or the new
complete file.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union


def atomic_write(path: Union[str, Path], data: Union[str, bytes]) -> None:
    """Atomically replace ``path``'s contents with ``data``.

    The temp file lives in the target directory so the final
    ``os.replace`` is a same-filesystem rename (atomic on POSIX and
    Windows); on any failure the partial temp file is removed and the
    previous file is left untouched.  Text is written as UTF-8.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        if isinstance(data, str):
            with os.fdopen(handle, "w", encoding="utf-8") as tmp:
                tmp.write(data)
        else:
            with os.fdopen(handle, "wb") as tmp:
                tmp.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
