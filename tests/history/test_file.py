"""Tests for reading legacy JSONL history logs (``avoc store migrate``)."""

from __future__ import annotations

import json

import pytest

from repro.history import PackedHistoryStore, TieredHistoryStore, migrate_jsonl_dir
from repro.history.migrate import read_legacy_log, series_filename


def write_legacy_dir(directory, logs):
    """A legacy shard directory: index plus one log per series."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "series-index.json").write_text(json.dumps(sorted(logs)))
    for series, snapshots in logs.items():
        lines = "".join(json.dumps(s, sort_keys=True) + "\n" for s in snapshots)
        (directory / series_filename(series)).write_text(lines)


class TestRoundTrip:
    def test_missing_file_loads_empty(self, tmp_path):
        assert read_legacy_log(tmp_path / "h.jsonl") is None

    def test_save_then_load(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"E1": 0.5}\n')
        assert read_legacy_log(path) == {"E1": 0.5}

    def test_last_snapshot_wins(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"E1": 0.5}\n{"E1": 0.25}\n')
        assert read_legacy_log(path) == {"E1": 0.25}

    def test_survives_process_restart(self, tmp_path):
        write_legacy_dir(tmp_path, {"s": [{"E1": 0.3}]})
        migrate_jsonl_dir(tmp_path)
        with PackedHistoryStore(tmp_path / "packed") as reopened:
            assert reopened.read("s") == ({"E1": 0.3}, 0)

    def test_creates_parent_directories(self, tmp_path):
        write_legacy_dir(tmp_path, {"s": [{"a": 1.0}]})
        assert migrate_jsonl_dir(tmp_path)["migrated"] == 1
        assert (tmp_path / "packed" / "index.jsonl").exists()


class TestCrashSafety:
    def test_torn_trailing_line_ignored(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"E1": 0.5}\n{"E1": 0.2')  # crash mid-write
        assert read_legacy_log(path) == {"E1": 0.5}

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('\n{"E1": 0.4}\n\n')
        assert read_legacy_log(path) == {"E1": 0.4}

    def test_garbage_and_non_numeric_lines_ignored(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"E1": 0.4}\n[1, 2]\n{"E1": "x"}\n{"E1": null}\n')
        assert read_legacy_log(path) == {"E1": 0.4}

    def test_torn_only_line_reads_as_missing(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"E1": 0.')
        assert read_legacy_log(path) is None


class TestMigrate:
    def test_updates_counter_is_zero_and_logs_stay(self, tmp_path):
        write_legacy_dir(
            tmp_path, {"room/1": [{"E1": 0.5}, {"E1": 0.75, "E2": 0.1}]}
        )
        assert migrate_jsonl_dir(tmp_path) == {
            "migrated": 1, "present": 0, "missing": 0,
        }
        with PackedHistoryStore(tmp_path / "packed") as packed:
            assert packed.read("room/1") == ({"E1": 0.75, "E2": 0.1}, 0)
        assert (tmp_path / series_filename("room/1")).exists()

    def test_second_run_is_a_noop(self, tmp_path):
        write_legacy_dir(tmp_path, {"a": [{"E1": 0.5}], "b": [{"E1": 0.6}]})
        migrate_jsonl_dir(tmp_path)
        index_before = (tmp_path / "packed" / "index.jsonl").read_bytes()
        assert migrate_jsonl_dir(tmp_path) == {
            "migrated": 0, "present": 2, "missing": 0,
        }
        assert (tmp_path / "packed" / "index.jsonl").read_bytes() == index_before

    def test_series_already_present_are_not_overwritten(self, tmp_path):
        write_legacy_dir(tmp_path, {"a": [{"E1": 0.5}]})
        with PackedHistoryStore(tmp_path / "packed") as packed:
            packed.write("a", {"E1": 0.9}, 12)
        assert migrate_jsonl_dir(tmp_path)["present"] == 1
        with PackedHistoryStore(tmp_path / "packed") as packed:
            assert packed.read("a") == ({"E1": 0.9}, 12)

    def test_indexed_series_without_log_is_counted_missing(self, tmp_path):
        write_legacy_dir(tmp_path, {"a": [{"E1": 0.5}]})
        (tmp_path / "series-index.json").write_text(json.dumps(["a", "pending"]))
        assert migrate_jsonl_dir(tmp_path) == {
            "migrated": 1, "present": 0, "missing": 1,
        }

    def test_directory_without_index_is_rejected(self, tmp_path):
        from repro.exceptions import HistoryStoreError

        with pytest.raises(HistoryStoreError, match="series index"):
            migrate_jsonl_dir(tmp_path)


class TestVoterIntegration:
    def test_voter_history_survives_restart(self, tmp_path):
        from repro.voting.standard import StandardVoter

        voter = StandardVoter()
        for i in range(5):
            voter.vote_values([1.0, 1.0, 9.0], round_number=i)
        write_legacy_dir(tmp_path, {"s": [voter.history.snapshot()]})
        migrate_jsonl_dir(tmp_path)
        tiered = TieredHistoryStore(PackedHistoryStore(tmp_path / "packed"))
        revived = StandardVoter(history_store=tiered.store_for("s"))
        assert revived.history.get("E3") == pytest.approx(voter.history.get("E3"))
        tiered.close()
