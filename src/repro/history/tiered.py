"""LRU-tiered front for a bulk :class:`SeriesStateStore`.

A shard hosting a million series cannot keep a million live
:class:`~repro.voting.history.HistoryRecords` resident.
:class:`TieredHistoryStore` splits the population into two tiers:

* a **hot set** — an LRU-ordered dict of at most ``hot_series`` states,
  served without touching storage;
* the **backing** :class:`~repro.history.store.SeriesStateStore`
  (packed segments, SQLite, memory) holding everyone.

Writes land in the hot set and are flushed through to the backing
every ``flush_every`` saves per series (default 1 = write-through, the
same per-round durability the shards have always had).  Inside a
:meth:`TieredHistoryStore.commit_scope` those write-throughs are queued
and leave the scope as one
:meth:`~repro.history.store.SeriesStateStore.write_many` — a shard
commits every series of one kernel call with a single backing write.
Evicted series are written back if dirty and rehydrate transparently
on the next read, bit-identically — state is ``(records,
update_counter)``, so a rehydrated engine is indistinguishable from one
that never left memory.

A :class:`TieredSeriesStore` view (from :meth:`store_for`) is the one
per-series store: its ``load_state``/``save_state``/``clear`` protocol
is what ``HistoryRecords`` attaches to.  Write-behind batching is
``flush_every`` > 1.

An optional maintenance thread periodically compacts the backing store
(reclaiming dead packed-segment space) and runs a caller-supplied hook
— the shard server uses it to compact the voted-rounds watermark log
in the background instead of on the vote path.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

from ..exceptions import HistoryStoreError
from ..obs import StoreInstruments, get_default_registry
from .store import SeriesState, SeriesStateStore

__all__ = ["TieredHistoryStore", "TieredSeriesStore", "DEFAULT_HOT_SERIES"]

#: Default hot-set capacity. Sized so a shard's resident state stays in
#: the tens of MB even with wide module rosters; ``avoc cluster`` exposes
#: it as ``--max-resident-series``.
DEFAULT_HOT_SERIES = 10_000


class _HotEntry:
    __slots__ = ("records", "updates", "dirty", "saves_since_flush")

    def __init__(self, records: Dict[str, float], updates: int, dirty: bool):
        self.records = records
        self.updates = updates
        self.dirty = dirty
        self.saves_since_flush = 0


class TieredHistoryStore:
    """LRU-bounded hot set of series states over a bulk backing store.

    Args:
        backing: the durable (or memory) bulk store holding every series.
        hot_series: hot-set capacity; least-recently-used series beyond
            it are written back (if dirty) and evicted.  ``None``
            disables eviction (everything stays resident).
        flush_every: write a series through to the backing every this
            many saves.  1 (default) is write-through — every update
            round is durable (inside a :meth:`commit_scope`, as the
            scope ends).  Larger values batch writes and rely on
            eviction / :meth:`flush` / :meth:`close` for durability.
        registry: metrics registry for :class:`StoreInstruments`
            (defaults to the process-global registry).
        maintenance_interval: when set, a daemon thread calls
            :meth:`compact` (and ``maintenance_hook``, if any) every
            this many seconds.
        maintenance_hook: extra callable run by the maintenance thread
            after each compaction pass; exceptions are swallowed.
    """

    def __init__(
        self,
        backing: SeriesStateStore,
        hot_series: Optional[int] = DEFAULT_HOT_SERIES,
        flush_every: int = 1,
        registry=None,
        maintenance_interval: Optional[float] = None,
        maintenance_hook: Optional[Callable[[], None]] = None,
    ):
        if hot_series is not None and hot_series < 1:
            raise HistoryStoreError(
                f"hot_series must be >= 1 or None, got {hot_series}"
            )
        if flush_every < 1:
            raise HistoryStoreError(f"flush_every must be >= 1, got {flush_every}")
        if maintenance_interval is not None and maintenance_interval <= 0:
            raise HistoryStoreError("maintenance_interval must be positive")
        self.backing = backing
        self.hot_series = hot_series
        self.flush_every = flush_every
        self._hot: "OrderedDict[str, _HotEntry]" = OrderedDict()
        # Write-throughs queued by an open commit scope (None outside
        # one); each entry stays dirty until the scope writes it.
        self._queued: Optional[Dict[str, _HotEntry]] = None
        self._lock = threading.RLock()
        self._closed = False
        self.evictions = 0
        self.rehydrations = 0
        self.writebacks = 0
        self._obs = StoreInstruments(
            registry if registry is not None else get_default_registry(), self
        )
        self._maintenance_hook = maintenance_hook
        self._maintenance_stop = threading.Event()
        self._maintenance_thread: Optional[threading.Thread] = None
        if maintenance_interval is not None:
            self._maintenance_thread = threading.Thread(
                target=self._maintenance_loop,
                args=(maintenance_interval,),
                name="history-maintenance",
                daemon=True,
            )
            self._maintenance_thread.start()

    # -- state access -----------------------------------------------------

    def get_state(self, series: str) -> Optional[SeriesState]:
        """The current ``(records, updates)`` for ``series``, or None.

        Serves from the hot set when resident (marking the series most
        recently used); otherwise rehydrates from the backing store.
        """
        with self._lock:
            entry = self._hot.get(series)
            if entry is not None:
                self._hot.move_to_end(series)
                return dict(entry.records), entry.updates
            state = self.backing.read(series)
            if state is None:
                return None
            records, updates = state
            self._hot[series] = _HotEntry(dict(records), int(updates), dirty=False)
            self.rehydrations += 1
            self._obs.rehydrations.inc()
            self._shrink()
            return dict(records), int(updates)

    def put_state(
        self, series: str, records: Mapping[str, float], updates: int
    ) -> None:
        """Record the new state of ``series`` (durable per ``flush_every``)."""
        with self._lock:
            entry = self._hot.get(series)
            if entry is None:
                entry = _HotEntry(dict(records), int(updates), dirty=True)
                self._hot[series] = entry
            else:
                entry.records = dict(records)
                entry.updates = int(updates)
                entry.dirty = True
                self._hot.move_to_end(series)
            entry.saves_since_flush += 1
            if entry.saves_since_flush >= self.flush_every:
                if self._queued is not None:
                    self._queued[series] = entry
                else:
                    self._writeback(series, entry)
            self._shrink()

    @contextmanager
    def commit_scope(self) -> Iterator[None]:
        """Commit the scope's write-throughs with one backing write.

        Inside the scope a ``put_state`` updates the hot entry and
        queues its write instead of writing through; the scope's exit —
        also on an exception — writes every queued state that is still
        dirty with one :meth:`SeriesStateStore.write_many`.  Until then
        a queued entry is an ordinary dirty one: ``get_state`` serves
        it, and an LRU eviction, :meth:`flush` or :meth:`close` writes
        it as usual.  Scopes do not nest.
        """
        with self._lock:
            self._queued = {}
        try:
            yield
        finally:
            with self._lock:
                queued, self._queued = self._queued, None
                dirty = [
                    (series, entry)
                    for series, entry in queued.items()
                    if entry.dirty
                ]
                if dirty:
                    self.backing.write_many(
                        (series, entry.records, entry.updates)
                        for series, entry in dirty
                    )
                    for _, entry in dirty:
                        entry.dirty = False
                        entry.saves_since_flush = 0
                    self.writebacks += len(dirty)
                    self._obs.writebacks.inc(len(dirty))

    def delete(self, series: str) -> None:
        """Forget one series in both tiers."""
        with self._lock:
            self._hot.pop(series, None)
            if self._queued is not None:
                self._queued.pop(series, None)
            self.backing.delete(series)

    def series(self) -> Tuple[str, ...]:
        """Every known series: backing population plus unflushed hot ones."""
        with self._lock:
            known = set(self.backing.series())
            known.update(self._hot)
            return tuple(sorted(known))

    def __contains__(self, series: str) -> bool:
        with self._lock:
            return series in self._hot or series in self.backing

    # -- residency management --------------------------------------------

    def _writeback(self, series: str, entry: _HotEntry) -> None:
        self.backing.write(series, entry.records, entry.updates)
        entry.dirty = False
        entry.saves_since_flush = 0
        self.writebacks += 1
        self._obs.writebacks.inc()

    def _shrink(self) -> None:
        if self.hot_series is None:
            return
        while len(self._hot) > self.hot_series:
            series, entry = self._hot.popitem(last=False)
            if entry.dirty:
                self._writeback(series, entry)
            self.evictions += 1
            self._obs.evictions.inc()

    def evict(self, series: Optional[str] = None) -> int:
        """Evict one series (or the whole hot set), writing back dirty state.

        Returns the number of series evicted.
        """
        with self._lock:
            if series is not None:
                entry = self._hot.pop(series, None)
                if entry is None:
                    return 0
                if entry.dirty:
                    self._writeback(series, entry)
                self.evictions += 1
                self._obs.evictions.inc()
                return 1
            count = len(self._hot)
            self.flush()
            self._hot.clear()
            self.evictions += count
            for _ in range(count):
                self._obs.evictions.inc()
            return count

    def flush(self) -> None:
        """Write every dirty hot series through to the backing store."""
        with self._lock:
            for series, entry in self._hot.items():
                if entry.dirty:
                    self._writeback(series, entry)

    @property
    def hot_size(self) -> int:
        """Series currently resident in the hot set."""
        with self._lock:
            return len(self._hot)

    @property
    def dirty_count(self) -> int:
        """Hot series with state not yet written to the backing store."""
        with self._lock:
            return sum(1 for entry in self._hot.values() if entry.dirty)

    # -- maintenance ------------------------------------------------------

    def compact(self) -> None:
        """Flush dirty state and compact the backing store (timed)."""
        started = time.perf_counter()
        self.flush()
        self.backing.compact()
        self._obs.compaction_seconds.observe(time.perf_counter() - started)

    def _maintenance_loop(self, interval: float) -> None:
        while not self._maintenance_stop.wait(interval):
            try:
                self.compact()
            except Exception:
                pass  # storage errors surface on the next foreground write
            hook = self._maintenance_hook
            if hook is not None:
                try:
                    hook()
                except Exception:
                    pass

    def clear(self) -> None:
        """Forget everything in both tiers."""
        with self._lock:
            self._hot.clear()
            if self._queued is not None:
                self._queued.clear()
            self.backing.clear()

    def close(self) -> None:
        """Flush dirty state, stop maintenance, close the backing store."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._maintenance_stop.set()
        thread = self._maintenance_thread
        if thread is not None:
            thread.join(timeout=5.0)
        self.flush()
        self.backing.close()

    # -- per-series views -------------------------------------------------

    def store_for(self, series: str) -> "TieredSeriesStore":
        """The one-series view a ``HistoryRecords`` attaches to."""
        return TieredSeriesStore(self, series)


class TieredSeriesStore:
    """One series of a :class:`TieredHistoryStore`.

    ``load_state``/``save_state`` carry the records *and* the update
    counter, so an attached :class:`~repro.voting.history.HistoryRecords`
    rehydrates bit-identically after eviction or restart.
    """

    def __init__(self, tiered: TieredHistoryStore, series: str):
        self.tiered = tiered
        self.series = series

    def load_state(self) -> Optional[SeriesState]:
        return self.tiered.get_state(self.series)

    def save_state(self, records: Mapping[str, float], updates: int) -> None:
        self.tiered.put_state(self.series, records, updates)

    def clear(self) -> None:
        self.tiered.delete(self.series)
