"""One-shot migration of legacy JSONL history directories.

Older shards kept one JSON-lines log per series, named by
:func:`series_filename` and listed in ``series-index.json``.  Each line
is a full ``{module: record}`` snapshot without the update counter; the
last complete line wins.  :func:`migrate_jsonl_dir` (``avoc store
migrate DIR``) copies that snapshot of every indexed series into
``DIR/packed`` with ``updates == 0`` — the state those shards restarted
with.  Series already present are skipped (a second run is a no-op) and
the ``.jsonl`` files stay in place.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, Optional, Union

from ..exceptions import HistoryStoreError
from .packed import PackedHistoryStore

__all__ = ["migrate_jsonl_dir", "read_legacy_log", "series_filename"]


def series_filename(series: str) -> str:
    """A filesystem-safe, collision-free log name for a series key."""
    slug = re.sub(r"[^A-Za-z0-9_.-]", "_", series)[:48]
    digest = hashlib.blake2b(series.encode("utf-8"), digest_size=6).hexdigest()
    return f"{slug}-{digest}.jsonl"


def read_legacy_log(path: Union[str, Path]) -> Optional[Dict[str, float]]:
    """The last complete snapshot in a legacy log (None if missing/empty)."""
    last: Dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    snapshot = json.loads(line)
                    if isinstance(snapshot, dict):
                        last = {str(k): float(v) for k, v in snapshot.items()}
                except (TypeError, ValueError):
                    continue  # blank, torn or garbage line: keep the previous one
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise HistoryStoreError(f"cannot read history log {path}: {exc}")
    return last or None


def migrate_jsonl_dir(directory: Union[str, Path]) -> Dict[str, int]:
    """Copy a legacy JSONL history directory into ``directory/packed``.

    Returns counts: series ``migrated``, series the packed store already
    held (``present``), and indexed series without a complete snapshot
    (``missing``: their rounds were only ever pending).
    """
    directory = Path(directory)
    index = directory / "series-index.json"
    try:
        series = [str(key) for key in json.loads(index.read_text(encoding="utf-8"))]
    except (OSError, ValueError) as exc:
        raise HistoryStoreError(f"cannot read series index {index}: {exc}")
    counts = {"migrated": 0, "present": 0, "missing": 0}
    with PackedHistoryStore(directory / "packed") as packed:
        for key in series:
            if key in packed:
                counts["present"] += 1
                continue
            records = read_legacy_log(directory / series_filename(key))
            if records is None:
                counts["missing"] += 1
            else:
                packed.write(key, records, 0)
                counts["migrated"] += 1
    return counts
