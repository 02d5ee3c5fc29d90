"""Tests for the SQLite series-state store."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import HistoryStoreError
from repro.history import SqliteStateStore, TieredHistoryStore


@pytest.fixture()
def store(tmp_path):
    store = SqliteStateStore(tmp_path / "s.db")
    yield store
    store.close()


class TestRoundTrip:
    def test_empty_load(self, store):
        assert store.read("s") is None

    def test_save_then_load(self, store):
        store.write("s", {"E1": 0.5, "E2": 1.0}, 4)
        assert store.read("s") == ({"E1": 0.5, "E2": 1.0}, 4)

    def test_upsert_updates_existing(self, store):
        store.write("s", {"E1": 0.5}, 1)
        store.write("s", {"E1": 0.25, "E2": 0.75}, 2)
        assert store.read("s") == ({"E1": 0.25, "E2": 0.75}, 2)

    def test_clear(self, store):
        store.write("s", {"E1": 0.5}, 1)
        store.clear()
        assert store.read("s") is None

    def test_survives_process_restart(self, tmp_path):
        path = tmp_path / "history.db"
        first = SqliteStateStore(path)
        first.write("s", {"E1": 0.3}, 42)
        first.close()
        second = SqliteStateStore(path)
        assert second.read("s") == ({"E1": 0.3}, 42)
        second.close()

    def test_invalid_synchronous_rejected(self, tmp_path):
        with pytest.raises(HistoryStoreError):
            SqliteStateStore(tmp_path / "s.db", synchronous="SOMETIMES")


class TestConcurrency:
    def test_threaded_saves_do_not_corrupt(self, store):
        errors = []

        def writer(series):
            try:
                for i in range(50):
                    store.write(series, {"E1": i / 50}, i + 1)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(f"s{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert store.series() == ("s0", "s1", "s2", "s3")
        for series in store.series():
            assert store.read(series) == ({"E1": 49 / 50}, 50)


class TestVoterIntegration:
    def test_voter_records_persist_and_reload(self, tmp_path):
        from repro.voting.avoc import AvocVoter

        path = tmp_path / "avoc.db"
        tiered = TieredHistoryStore(SqliteStateStore(path))
        voter = AvocVoter(history_store=tiered.store_for("s"))
        voter.vote_values([18.0, 18.1, 17.9, 24.0, 18.05])
        tiered.close()
        reopened = TieredHistoryStore(SqliteStateStore(path))
        revived = AvocVoter(history_store=reopened.store_for("s"))
        assert revived.history.get("E4") == 0.0
        assert not revived.history.all_fresh(["E1", "E2", "E3", "E4", "E5"])
        assert revived.history.update_count == voter.history.update_count
        reopened.close()
