"""Tests for the LRU-tiered history store and its per-series views."""

from __future__ import annotations

import json
import random

import pytest

from repro.exceptions import HistoryStoreError
from repro.history import (
    MemoryStateStore,
    PackedHistoryStore,
    SqliteStateStore,
    TieredHistoryStore,
    migrate_jsonl_dir,
)
from repro.history.migrate import series_filename
from repro.obs import MetricsRegistry
from repro.voting.history import HistoryRecords


def _tiered(hot=4, **kwargs):
    return TieredHistoryStore(MemoryStateStore(), hot_series=hot, **kwargs)


class TestHotSet:
    def test_hot_set_never_exceeds_capacity(self):
        store = _tiered(hot=3)
        for k in range(10):
            store.put_state(f"s{k}", {"E1": 0.5}, k)
        assert store.hot_size == 3
        assert store.evictions == 7

    def test_unbounded_keeps_everything_resident(self):
        store = _tiered(hot=None)
        for k in range(100):
            store.put_state(f"s{k}", {"E1": 0.5}, k)
        assert store.hot_size == 100
        assert store.evictions == 0

    def test_lru_order_evicts_least_recently_used(self):
        store = _tiered(hot=2)
        store.put_state("a", {"E1": 0.1}, 1)
        store.put_state("b", {"E1": 0.2}, 2)
        assert store.get_state("a") is not None  # touch: a becomes MRU
        store.put_state("c", {"E1": 0.3}, 3)  # b is the LRU now
        assert set(store._hot) == {"a", "c"}

    def test_eviction_writes_back_dirty_state(self):
        backing = MemoryStateStore()
        store = TieredHistoryStore(backing, hot_series=1, flush_every=100)
        store.put_state("a", {"E1": 0.1}, 1)
        assert backing.read("a") is None  # batched: not yet flushed
        store.put_state("b", {"E1": 0.2}, 2)  # evicts a -> write-back
        assert backing.read("a") == ({"E1": 0.1}, 1)

    def test_rehydration_counts_and_restores(self):
        store = _tiered(hot=1)
        store.put_state("a", {"E1": 0.1}, 5)
        store.put_state("b", {"E1": 0.2}, 6)  # evicts a
        assert store.get_state("a") == ({"E1": 0.1}, 5)
        assert store.rehydrations == 1

    def test_write_through_is_immediately_durable(self):
        backing = MemoryStateStore()
        store = TieredHistoryStore(backing, hot_series=8, flush_every=1)
        store.put_state("a", {"E1": 0.1}, 1)
        assert backing.read("a") == ({"E1": 0.1}, 1)
        assert store.dirty_count == 0

    def test_flush_every_batches_writes(self):
        backing = MemoryStateStore()
        store = TieredHistoryStore(backing, hot_series=8, flush_every=3)
        store.put_state("a", {"E1": 0.1}, 1)
        store.put_state("a", {"E1": 0.2}, 2)
        assert backing.read("a") is None
        store.put_state("a", {"E1": 0.3}, 3)  # third save flushes
        assert backing.read("a") == ({"E1": 0.3}, 3)

    def test_explicit_flush_and_evict(self):
        backing = MemoryStateStore()
        store = TieredHistoryStore(backing, hot_series=8, flush_every=100)
        store.put_state("a", {"E1": 0.1}, 1)
        store.flush()
        assert backing.read("a") == ({"E1": 0.1}, 1)
        assert store.evict("a") == 1
        assert store.hot_size == 0
        assert store.evict("missing") == 0
        store.put_state("b", {"E1": 0.2}, 2)
        assert store.evict() == 1  # evict-all

    def test_close_flushes_dirty_state(self):
        backing = MemoryStateStore()
        store = TieredHistoryStore(backing, hot_series=8, flush_every=100)
        store.put_state("a", {"E1": 0.1}, 1)
        store.close()
        assert backing.read("a") == ({"E1": 0.1}, 1)

    def test_delete_and_series_union(self):
        store = _tiered(hot=1, flush_every=100)
        store.put_state("a", {"E1": 0.1}, 1)  # flushed on eviction...
        store.put_state("b", {"E1": 0.2}, 2)  # ...b stays dirty in hot
        assert store.series() == ("a", "b")
        assert "a" in store and "b" in store
        store.delete("a")
        assert store.series() == ("b",)
        store.clear()
        assert store.series() == ()

    def test_validation(self):
        with pytest.raises(HistoryStoreError):
            _tiered(hot=0)
        with pytest.raises(HistoryStoreError):
            _tiered(hot=4, flush_every=0)
        with pytest.raises(HistoryStoreError):
            _tiered(hot=4, maintenance_interval=-1.0)

    def test_metrics_are_registered(self):
        registry = MetricsRegistry()
        store = TieredHistoryStore(
            MemoryStateStore(), hot_series=1, registry=registry
        )
        store.put_state("a", {"E1": 0.1}, 1)
        store.put_state("b", {"E1": 0.2}, 2)
        store.get_state("a")  # rehydrating a evicts b: 2 evictions total
        rendered = registry.render()
        assert "store_evictions_total 2" in rendered
        assert "store_rehydrations_total 1" in rendered
        assert "store_hot_series 1" in rendered


class TestMaintenance:
    def test_background_thread_compacts_and_runs_hook(self, tmp_path):
        calls = []
        store = TieredHistoryStore(
            PackedHistoryStore(tmp_path, segment_bytes=4096),
            hot_series=4,
            maintenance_interval=0.02,
            maintenance_hook=lambda: calls.append(1),
        )
        for k in range(40):
            store.put_state(f"s{k % 5}", {"E1": k / 40}, k)
        deadline = __import__("time").time() + 2.0
        while not calls and __import__("time").time() < deadline:
            __import__("time").sleep(0.01)
        store.close()
        assert calls  # the hook ran at least once
        assert store.backing.compactions >= 1


class TestBitIdentity:
    """Evict/rehydrate must be invisible to the voting recurrence."""

    @pytest.mark.parametrize("policy", ["additive", "ema"])
    def test_random_trace_matches_in_memory_reference(self, tmp_path, policy):
        backings = {
            "memory": MemoryStateStore(),
            "packed": PackedHistoryStore(tmp_path / "p", segment_bytes=4096),
            "sqlite": SqliteStateStore(tmp_path / "s.db"),
        }
        rng = random.Random(31)
        for name, backing in backings.items():
            store = TieredHistoryStore(backing, hot_series=2)
            references = {f"s{k}": HistoryRecords(policy=policy)
                          for k in range(8)}
            for round_no in range(25):
                for key, reference in references.items():
                    live = HistoryRecords(
                        policy=policy, store=store.store_for(key)
                    )
                    scores = {
                        m: rng.random() for m in ("E1", "E2", "E3")
                        if rng.random() > 0.2
                    }
                    live.update(scores)
                    reference.update(scores)
                    assert live.snapshot() == reference.snapshot(), name
                    assert live.update_count == reference.update_count, name
            assert store.evictions > 0 and store.rehydrations > 0
            store.close()

    def test_jsonl_backing_restores_records_only(self, tmp_path):
        """The legacy line format has no update counter: migrated records
        round-trip, the counter restarts at 0 — as legacy shards did."""
        h = HistoryRecords()
        h.update({"E1": 0.4})
        h.update({"E1": 0.9})
        (tmp_path / "series-index.json").write_text('["a"]')
        (tmp_path / series_filename("a")).write_text(
            json.dumps(h.snapshot()) + "\n"
        )
        migrate_jsonl_dir(tmp_path)
        store = TieredHistoryStore(
            PackedHistoryStore(tmp_path / "packed"), hot_series=1
        )
        rehydrated = HistoryRecords(store=store.store_for("a"))
        assert rehydrated.snapshot() == h.snapshot()
        assert rehydrated.update_count == 0
        store.close()


class TestSeriesViews:
    def test_state_protocol(self):
        store = _tiered(hot=4)
        view = store.store_for("a")
        assert view.load_state() is None
        view.save_state({"E1": 0.25}, 9)
        assert view.load_state() == ({"E1": 0.25}, 9)
        assert store.get_state("a") == ({"E1": 0.25}, 9)
        view.clear()
        assert view.load_state() is None
        assert "a" not in store
