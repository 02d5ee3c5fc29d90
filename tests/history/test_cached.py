"""Write-behind caching: ``TieredHistoryStore(flush_every=N)``.

Reads come from the hot set and the backing store is only written every
``flush_every`` saves per series (or on flush/eviction/close).  A crash
loses at most the unflushed rounds, which history records tolerate by
design (they re-converge from subsequent agreement).
"""

from __future__ import annotations

import contextlib

import pytest

from repro.exceptions import HistoryStoreError
from repro.history import MemoryStateStore, PackedHistoryStore, TieredHistoryStore


class CountingStore(MemoryStateStore):
    def __init__(self):
        super().__init__()
        self.reads = 0
        self.writes = 0

    def read(self, series):
        self.reads += 1
        return super().read(series)

    def write(self, series, records, updates):
        self.writes += 1
        super().write(series, records, updates)


class TestCaching:
    def test_reads_come_from_cache(self):
        backing = CountingStore()
        backing.write("s", {"E1": 0.5}, 1)
        store = TieredHistoryStore(backing, flush_every=100)
        store.get_state("s")
        reads_before = backing.reads
        for _ in range(10):
            assert store.get_state("s") == ({"E1": 0.5}, 1)
        assert backing.reads == reads_before  # no further backend reads

    def test_saves_deferred_until_flush_every(self):
        backing = CountingStore()
        store = TieredHistoryStore(backing, flush_every=4)
        for i in range(3):
            store.put_state("s", {"E1": i / 10}, i + 1)
        assert backing.writes == 0
        assert store.dirty_count == 1
        store.put_state("s", {"E1": 0.9}, 4)
        assert backing.writes == 1
        assert store.dirty_count == 0
        assert backing.read("s") == ({"E1": 0.9}, 4)

    def test_flush_every_one_is_write_through(self):
        backing = CountingStore()
        store = TieredHistoryStore(backing, flush_every=1)
        store.put_state("s", {"E1": 0.3}, 1)
        assert backing.writes == 1

    def test_explicit_flush(self):
        backing = CountingStore()
        store = TieredHistoryStore(backing, flush_every=100)
        store.put_state("s", {"E1": 0.2}, 1)
        store.flush()
        assert backing.read("s") == ({"E1": 0.2}, 1)
        assert store.writebacks == 1

    def test_flush_without_dirty_state_is_noop(self):
        backing = CountingStore()
        store = TieredHistoryStore(backing)
        store.flush()
        assert backing.writes == 0

    def test_context_manager_flushes_on_exit(self, tmp_path):
        backing = PackedHistoryStore(tmp_path / "packed")
        with contextlib.closing(TieredHistoryStore(backing, flush_every=100)) as store:
            store.put_state("s", {"E1": 0.7}, 3)
        with PackedHistoryStore(tmp_path / "packed") as reopened:
            assert reopened.read("s") == ({"E1": 0.7}, 3)

    def test_clear_propagates(self):
        backing = CountingStore()
        backing.write("s", {"E1": 1.0}, 1)
        store = TieredHistoryStore(backing)
        store.clear()
        assert backing.read("s") is None
        assert store.get_state("s") is None

    def test_invalid_flush_every(self):
        with pytest.raises(HistoryStoreError):
            TieredHistoryStore(MemoryStateStore(), flush_every=0)


class TestVoterIntegration:
    def test_reduces_backend_writes_per_round(self):
        from repro.types import Round
        from repro.voting.hybrid import HybridVoter

        backing = CountingStore()
        store = TieredHistoryStore(backing, flush_every=10)
        voter = HybridVoter(history_store=store.store_for("s"))
        for i in range(40):
            voter.vote(Round.from_values(i, [18.0, 18.1, 17.9]))
        # 40 rounds, flushed every 10 -> exactly 4 backend writes.
        assert backing.writes == 4
        store.flush()
        # State is still the latest record set.
        revived = HybridVoter(
            history_store=TieredHistoryStore(backing).store_for("s")
        )
        assert revived.history.snapshot() == voter.history.snapshot()

    def test_bounded_staleness_on_crash(self, tmp_path):
        from repro.types import Round
        from repro.voting.hybrid import HybridVoter

        store = TieredHistoryStore(
            PackedHistoryStore(tmp_path / "packed"), flush_every=10
        )
        voter = HybridVoter(history_store=store.store_for("s"))
        for i in range(15):
            voter.vote(Round.from_values(i, [18.0, 18.1, 17.9, 24.0]))
        # Simulated crash: no flush.  The backing store holds the
        # round-10 state, not round-15 — staleness is bounded.
        with PackedHistoryStore(tmp_path / "packed") as persisted:
            _, updates = persisted.read("s")
        assert updates == 10  # the flush at round 10 happened
        assert voter.history.update_count == 15
        assert store.dirty_count == 1
        store.close()
