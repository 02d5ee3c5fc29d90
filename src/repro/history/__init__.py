"""Persistent backends for per-series history state.

The paper's deployment keeps history records in a datastore and notes
that "datastore reads and writes [are] the bottleneck" of the
1-millisecond history-aware round (§7).  This package has one storage
interface, :class:`SeriesStateStore` — ``(records, update_counter)``
per series key — with three backings:

* :class:`MemoryStateStore` — a dict (dies with the process);
* :class:`PackedHistoryStore` — append-only mmap segments, the
  default for durable shards;
* :class:`SqliteStateStore` — one SQLite database per shard.

:class:`TieredHistoryStore` fronts any of them with an LRU-bounded hot
set and optional write-behind batching (``flush_every``); its
:class:`TieredSeriesStore` view is what a
:class:`~repro.voting.history.HistoryRecords` attaches to.
:func:`migrate_jsonl_dir` (``avoc store migrate``) imports legacy
one-JSONL-log-per-series directories into the packed store.
"""

from .store import SeriesState, SeriesStateStore
from .bulk import MemoryStateStore, SqliteStateStore
from .packed import PackedHistoryStore
from .tiered import DEFAULT_HOT_SERIES, TieredHistoryStore, TieredSeriesStore
from .migrate import migrate_jsonl_dir

__all__ = [
    "DEFAULT_HOT_SERIES",
    "MemoryStateStore",
    "PackedHistoryStore",
    "SeriesState",
    "SeriesStateStore",
    "SqliteStateStore",
    "TieredHistoryStore",
    "TieredSeriesStore",
    "migrate_jsonl_dir",
]
