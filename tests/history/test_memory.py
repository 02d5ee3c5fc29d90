"""Tests for the in-memory series-state store."""

from __future__ import annotations

from repro.history import MemoryStateStore


class TestMemoryStore:
    def test_empty_load(self):
        assert MemoryStateStore().read("s") is None

    def test_save_then_load(self):
        store = MemoryStateStore()
        store.write("s", {"E1": 0.5, "E2": 1.0}, 3)
        assert store.read("s") == ({"E1": 0.5, "E2": 1.0}, 3)

    def test_save_replaces_snapshot(self):
        store = MemoryStateStore()
        store.write("s", {"E1": 0.5}, 1)
        store.write("s", {"E2": 0.7}, 2)
        assert store.read("s") == ({"E2": 0.7}, 2)

    def test_load_returns_copy(self):
        store = MemoryStateStore()
        store.write("s", {"E1": 0.5}, 1)
        records, _ = store.read("s")
        records["E1"] = 99.0
        assert store.read("s") == ({"E1": 0.5}, 1)

    def test_clear(self):
        store = MemoryStateStore()
        store.write("s", {"E1": 0.5}, 1)
        store.clear()
        assert store.read("s") is None
        assert store.series() == ()

    def test_counters(self):
        """The store counts series, not writes."""
        store = MemoryStateStore()
        store.write("a", {}, 0)
        store.write("a", {"E1": 0.5}, 1)
        store.write("b", {"E1": 0.5}, 1)
        assert len(store) == 2
        assert store.series() == ("a", "b")
