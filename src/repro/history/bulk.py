"""Non-packed :class:`SeriesStateStore` backings.

Both plug into :class:`~repro.history.tiered.TieredHistoryStore` like
the packed store does, so the cluster's ``--store`` knob can choose a
storage tier without the shard code caring:

* :class:`MemoryStateStore` — a dict; state survives engine eviction
  but dies with the process.
* :class:`SqliteStateStore` — one SQLite database for the whole shard
  with per-series record rows and an update-counter table: a real
  transactional on-device datastore, the paper's §7 bottleneck made
  concrete.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from ..exceptions import HistoryStoreError
from .store import SeriesState, SeriesStateStore

__all__ = ["MemoryStateStore", "SqliteStateStore"]


class MemoryStateStore(SeriesStateStore):
    """Dict-backed bulk store; contents live and die with the process."""

    def __init__(self) -> None:
        self._states: Dict[str, SeriesState] = {}
        self._lock = threading.Lock()

    def read(self, series: str) -> Optional[SeriesState]:
        with self._lock:
            state = self._states.get(series)
            if state is None:
                return None
            records, updates = state
            return dict(records), updates

    def write(self, series: str, records: Mapping[str, float], updates: int) -> None:
        with self._lock:
            self._states[series] = (dict(records), int(updates))

    def delete(self, series: str) -> None:
        with self._lock:
            self._states.pop(series, None)

    def series(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._states))

    def clear(self) -> None:
        with self._lock:
            self._states.clear()


_SCHEMA = """
CREATE TABLE IF NOT EXISTS series_records (
    series TEXT NOT NULL,
    module TEXT NOT NULL,
    record REAL NOT NULL,
    PRIMARY KEY (series, module)
);
CREATE TABLE IF NOT EXISTS series_meta (
    series TEXT PRIMARY KEY,
    updates INTEGER NOT NULL
);
"""


class SqliteStateStore(SeriesStateStore):
    """One SQLite database holding every series of a shard."""

    def __init__(
        self, path: Union[str, Path], synchronous: str = "NORMAL"
    ):
        if synchronous.upper() not in ("OFF", "NORMAL", "FULL"):
            raise HistoryStoreError(
                f"synchronous must be OFF/NORMAL/FULL, got {synchronous!r}"
            )
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        try:
            self._connection = sqlite3.connect(
                str(self.path), check_same_thread=False
            )
            self._connection.execute(f"PRAGMA synchronous={synchronous.upper()}")
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.executescript(_SCHEMA)
            self._connection.commit()
        except sqlite3.Error as exc:
            raise HistoryStoreError(f"cannot open series database: {exc}")

    def read(self, series: str) -> Optional[SeriesState]:
        with self._lock:
            try:
                meta = self._connection.execute(
                    "SELECT updates FROM series_meta WHERE series=?", (series,)
                ).fetchone()
                rows = self._connection.execute(
                    "SELECT module, record FROM series_records WHERE series=?",
                    (series,),
                ).fetchall()
            except sqlite3.Error as exc:
                raise HistoryStoreError(f"cannot read series state: {exc}")
        if meta is None and not rows:
            return None
        records = {module: float(record) for module, record in rows}
        return records, int(meta[0]) if meta is not None else 0

    def write(self, series: str, records: Mapping[str, float], updates: int) -> None:
        self.write_many([(series, records, updates)])

    def write_many(
        self, states: Iterable[Tuple[str, Mapping[str, float], int]]
    ) -> None:
        """Persist many series in one transaction."""
        with self._lock:
            try:
                for series, records, updates in states:
                    self._connection.execute(
                        "DELETE FROM series_records WHERE series=?", (series,)
                    )
                    self._connection.executemany(
                        "INSERT INTO series_records(series, module, record) "
                        "VALUES(?, ?, ?)",
                        [(series, m, float(r)) for m, r in records.items()],
                    )
                    self._connection.execute(
                        "INSERT INTO series_meta(series, updates) VALUES(?, ?) "
                        "ON CONFLICT(series) DO UPDATE SET "
                        "updates=excluded.updates",
                        (series, int(updates)),
                    )
                self._connection.commit()
            except sqlite3.Error as exc:
                raise HistoryStoreError(f"cannot persist series state: {exc}")

    def delete(self, series: str) -> None:
        with self._lock:
            try:
                self._connection.execute(
                    "DELETE FROM series_records WHERE series=?", (series,)
                )
                self._connection.execute(
                    "DELETE FROM series_meta WHERE series=?", (series,)
                )
                self._connection.commit()
            except sqlite3.Error as exc:
                raise HistoryStoreError(f"cannot delete series state: {exc}")

    def series(self) -> Tuple[str, ...]:
        with self._lock:
            try:
                rows = self._connection.execute(
                    "SELECT series FROM series_meta "
                    "UNION SELECT DISTINCT series FROM series_records"
                ).fetchall()
            except sqlite3.Error as exc:
                raise HistoryStoreError(f"cannot list series: {exc}")
        return tuple(sorted(row[0] for row in rows))

    def compact(self) -> None:
        with self._lock:
            try:
                self._connection.commit()
                self._connection.execute("VACUUM")
            except sqlite3.Error:
                pass  # VACUUM is advisory; WAL checkpoints still apply

    def clear(self) -> None:
        with self._lock:
            try:
                self._connection.execute("DELETE FROM series_records")
                self._connection.execute("DELETE FROM series_meta")
                self._connection.commit()
            except sqlite3.Error as exc:
                raise HistoryStoreError(f"cannot clear series state: {exc}")

    def close(self) -> None:
        with self._lock:
            try:
                self._connection.close()
            except sqlite3.Error:
                pass
