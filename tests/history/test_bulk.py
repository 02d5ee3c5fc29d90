"""Tests for the non-packed bulk series-state backings and the legacy
per-series JSONL layout they replace."""

from __future__ import annotations

import pytest

from repro.exceptions import HistoryStoreError
from repro.history import MemoryStateStore, PackedHistoryStore, SqliteStateStore
from repro.history.migrate import migrate_jsonl_dir, read_legacy_log, series_filename


def test_series_filename_is_safe_and_collision_free():
    name = series_filename("room/42 §température")
    assert name.endswith(".jsonl")
    assert "/" not in name and " " not in name
    assert series_filename("a") != series_filename("b")
    # Same slug, different keys: the digest disambiguates.
    long_a = "x" * 60 + "a"
    long_b = "x" * 60 + "b"
    assert series_filename(long_a) != series_filename(long_b)


@pytest.mark.parametrize("backing", ["memory", "sqlite"])
def test_bulk_round_trip(backing, tmp_path):
    store = {
        "memory": lambda: MemoryStateStore(),
        "sqlite": lambda: SqliteStateStore(tmp_path / "s.db"),
    }[backing]()
    assert store.read("a") is None
    store.write("a", {"E1": 0.5, "E2": 1.0}, 7)
    store.write("b", {"E1": 0.25}, 3)
    assert store.read("a") == ({"E1": 0.5, "E2": 1.0}, 7)
    assert store.series() == ("a", "b")
    assert "a" in store and "nope" not in store
    assert len(store) == 2
    store.delete("a")
    assert store.read("a") is None
    store.compact()
    store.clear()
    assert store.read("b") is None
    store.close()


def test_sqlite_persists_updates_across_reopen(tmp_path):
    SqliteStateStore(tmp_path / "s.db").write("a", {"E1": 0.5}, 42)
    reopened = SqliteStateStore(tmp_path / "s.db")
    assert reopened.read("a") == ({"E1": 0.5}, 42)
    reopened.close()


def test_sqlite_rejects_bad_synchronous(tmp_path):
    with pytest.raises(HistoryStoreError):
        SqliteStateStore(tmp_path / "s.db", synchronous="nope")


def test_jsonl_reads_cold_without_enumeration(tmp_path):
    """Any legacy log reads by key, but the hashed file names cannot be
    inverted: migration enumerates series through the index alone."""
    (tmp_path / series_filename("room/42")).write_text('{"E1": 0.5}\n')
    (tmp_path / "series-index.json").write_text("[]")
    assert read_legacy_log(tmp_path / series_filename("room/42")) == {"E1": 0.5}
    assert migrate_jsonl_dir(tmp_path)["migrated"] == 0


def test_jsonl_uses_legacy_per_series_files(tmp_path):
    (tmp_path / series_filename("a")).write_text('{"E1": 0.5}\n')
    (tmp_path / "series-index.json").write_text('["a"]')
    migrate_jsonl_dir(tmp_path)
    with PackedHistoryStore(tmp_path / "packed") as packed:
        assert packed.read("a") == ({"E1": 0.5}, 0)
