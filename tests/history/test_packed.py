"""Tests for the packed mmap-segment bulk store."""

from __future__ import annotations

import json
import random

import pytest

from repro.exceptions import HistoryStoreError
from repro.history.packed import (
    PackedHistoryStore,
    _decode_block,
    _encode_block,
)


def _fill(store, n=20, updates=7):
    for k in range(n):
        store.write(f"s{k}", {"E1": 0.5 + k / 100, "E2": 0.25}, updates + k)


class TestBlockCodec:
    def test_round_trip(self):
        block = _encode_block("series-a", {"E1": 0.5, "E2": 1.0}, 42)
        series, records, updates = _decode_block(block, 0, len(block))
        assert series == "series-a"
        assert records == {"E1": 0.5, "E2": 1.0}
        assert updates == 42

    def test_empty_records(self):
        block = _encode_block("s", {}, 0)
        assert _decode_block(block, 0, len(block)) == ("s", {}, 0)

    def test_corrupt_payload_is_detected(self):
        block = bytearray(_encode_block("s", {"E1": 0.5}, 1))
        block[-1] ^= 0xFF
        with pytest.raises(HistoryStoreError):
            _decode_block(bytes(block), 0, len(block))

    def test_bad_magic_is_detected(self):
        block = bytearray(_encode_block("s", {"E1": 0.5}, 1))
        block[0] ^= 0xFF
        with pytest.raises(HistoryStoreError):
            _decode_block(bytes(block), 0, len(block))

    def test_truncated_block_is_detected(self):
        block = _encode_block("s", {"E1": 0.5}, 1)
        with pytest.raises(HistoryStoreError):
            _decode_block(block[:-3], 0, len(block))


class TestRoundTrip:
    def test_missing_series_reads_none(self, tmp_path):
        store = PackedHistoryStore(tmp_path)
        assert store.read("nope") is None

    def test_write_then_read(self, tmp_path):
        store = PackedHistoryStore(tmp_path)
        store.write("s", {"E1": 0.5}, 3)
        assert store.read("s") == ({"E1": 0.5}, 3)

    def test_last_write_wins(self, tmp_path):
        store = PackedHistoryStore(tmp_path)
        store.write("s", {"E1": 0.5}, 1)
        store.write("s", {"E1": 0.25}, 2)
        assert store.read("s") == ({"E1": 0.25}, 2)

    def test_survives_process_restart(self, tmp_path):
        with PackedHistoryStore(tmp_path) as store:
            _fill(store, n=10)
        reopened = PackedHistoryStore(tmp_path)
        assert len(reopened) == 10
        assert reopened.read("s3") == ({"E1": 0.53, "E2": 0.25}, 10)
        reopened.close()

    def test_delete_survives_restart(self, tmp_path):
        with PackedHistoryStore(tmp_path) as store:
            _fill(store, n=4)
            store.delete("s1")
            assert store.read("s1") is None
        reopened = PackedHistoryStore(tmp_path)
        assert reopened.read("s1") is None
        assert reopened.read("s2") is not None
        reopened.close()

    def test_series_enumeration(self, tmp_path):
        store = PackedHistoryStore(tmp_path)
        _fill(store, n=3)
        assert store.series() == ("s0", "s1", "s2")
        assert "s1" in store and "nope" not in store

    def test_rejects_tiny_segments(self, tmp_path):
        with pytest.raises(HistoryStoreError):
            PackedHistoryStore(tmp_path, segment_bytes=100)

    def test_closed_store_refuses_writes(self, tmp_path):
        store = PackedHistoryStore(tmp_path)
        store.close()
        with pytest.raises(HistoryStoreError):
            store.write("s", {"E1": 0.5}, 1)

    def test_clear_wipes_disk(self, tmp_path):
        store = PackedHistoryStore(tmp_path)
        _fill(store, n=5)
        store.clear()
        assert len(store) == 0
        assert not list(tmp_path.glob("seg-*.pack"))
        store.write("s", {"E1": 0.5}, 1)  # usable again after clear
        assert store.read("s") == ({"E1": 0.5}, 1)


class TestSegments:
    def test_rollover_spreads_blocks_across_segments(self, tmp_path):
        store = PackedHistoryStore(tmp_path, segment_bytes=4096)
        _fill(store, n=200)
        assert store.segment_count > 1
        assert all(store.read(f"s{k}") is not None for k in range(200))

    def test_dead_bytes_accumulate_on_overwrite(self, tmp_path):
        store = PackedHistoryStore(
            tmp_path, segment_bytes=1 << 20, compact_dead_fraction=None
        )
        _fill(store, n=50)
        assert store.dead_bytes == 0
        _fill(store, n=50, updates=100)
        assert store.dead_bytes > 0
        assert store.live_bytes + store.dead_bytes == store.total_bytes

    def test_compaction_reclaims_dead_space(self, tmp_path):
        store = PackedHistoryStore(
            tmp_path, segment_bytes=4096, compact_dead_fraction=None
        )
        for _ in range(5):
            _fill(store, n=40)
        before = store.read("s7")
        store.compact()
        assert store.dead_bytes == 0
        assert store.compactions == 1
        assert store.last_compaction_seconds >= 0.0
        assert store.read("s7") == before
        reopened = PackedHistoryStore(tmp_path)
        assert reopened.read("s7") == before
        reopened.close()

    def test_auto_compaction_triggers_on_dead_fraction(self, tmp_path):
        store = PackedHistoryStore(
            tmp_path,
            segment_bytes=4096,
            compact_dead_fraction=0.5,
            compact_min_bytes=1024,
        )
        for _ in range(10):
            _fill(store, n=30)
        assert store.compactions >= 1
        assert all(store.read(f"s{k}") is not None for k in range(30))


def _batch(n=20, updates=7, shift=0.0):
    return [(f"s{k}", {"E1": 0.5 + k / 100 + shift, "E2": 0.25}, updates + k)
            for k in range(n)]


class TestWriteMany:
    def test_round_trip_with_one_append_each(self, tmp_path, monkeypatch):
        store = PackedHistoryStore(tmp_path, compact_dead_fraction=None)
        appends = []
        for name in ("_append_run", "_append_index"):
            original = getattr(PackedHistoryStore, name)

            def counted(self, *args, _name=name, _original=original):
                appends.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(PackedHistoryStore, name, counted)
        batch = _batch()
        store.write_many(batch)
        # Blocks first, then their index lines: one append each.
        assert appends == ["_append_run", "_append_index"]
        assert len(store.index_path.read_text().splitlines()) == len(batch)
        for series, records, updates in batch:
            assert store.read(series) == (records, updates)
        store.write_many([])  # a no-op
        store.close()
        reopened = PackedHistoryStore(tmp_path)
        for series, records, updates in batch:
            assert reopened.read(series) == (records, updates)
        reopened.close()

    def test_matches_one_write_per_series(self, tmp_path):
        batch = _batch() + [("s3", {"E1": 0.125}, 99)]  # last one wins
        many = PackedHistoryStore(tmp_path / "many")
        many.write_many(batch)
        single = PackedHistoryStore(tmp_path / "single")
        for state in batch:
            single.write(*state)
        assert many.series() == single.series()
        assert {k: many.read(k) for k in many.series()} == {
            k: single.read(k) for k in single.series()
        }
        assert many.total_bytes == single.total_bytes
        assert many.live_bytes == single.live_bytes
        many.close()
        single.close()

    def test_rolls_the_segment_where_the_batch_crosses_it(self, tmp_path):
        store = PackedHistoryStore(
            tmp_path, segment_bytes=4096, compact_dead_fraction=None
        )
        batch = _batch(n=200)
        store.write_many(batch)
        assert store.segment_count > 1
        assert max(store._segment_sizes.values()) <= 4096
        for series, records, updates in batch:
            assert store.read(series) == (records, updates)
        store.write_many(_batch(n=200, shift=0.125))  # all of it dead now
        store.compact()
        assert store.dead_bytes == 0
        want = {series: (records, updates)
                for series, records, updates in _batch(n=200, shift=0.125)}
        assert {k: store.read(k) for k in want} == want
        store.close()
        reopened = PackedHistoryStore(tmp_path)
        assert {k: reopened.read(k) for k in want} == want
        reopened.close()

    def test_corrupt_block_falls_back_to_the_previous_batch(self, tmp_path):
        store = PackedHistoryStore(
            tmp_path, segment_bytes=1 << 20, compact_dead_fraction=None
        )
        store.write_many([("s", {"E1": 0.5}, 1), ("t", {"E1": 0.75}, 1)])
        store.write_many([("s", {"E1": 0.25}, 2), ("t", {"E1": 0.5}, 2)])
        entry = store._entries["s"]
        store.close()
        seg = tmp_path / f"seg-{entry.segment:06d}.pack"
        data = bytearray(seg.read_bytes())
        data[entry.offset + 12] ^= 0xFF
        seg.write_bytes(bytes(data))
        reopened = PackedHistoryStore(tmp_path)
        assert reopened.read("s") == ({"E1": 0.5}, 1)
        assert reopened.read("t") == ({"E1": 0.5}, 2)
        reopened.close()

    def test_closed_store_refuses_batches(self, tmp_path):
        store = PackedHistoryStore(tmp_path)
        store.close()
        with pytest.raises(HistoryStoreError):
            store.write_many(_batch(n=2))


class TestCrashRecovery:
    def test_truncated_segment_tail_falls_back(self, tmp_path):
        """A torn final block yields the previous durable state."""
        store = PackedHistoryStore(tmp_path, compact_dead_fraction=None)
        store.write("s", {"E1": 0.5}, 1)
        store.write("s", {"E1": 0.25}, 2)
        store.close()
        seg = next(tmp_path.glob("seg-*.pack"))
        data = seg.read_bytes()
        seg.write_bytes(data[:-10])  # tear the tail mid-block
        reopened = PackedHistoryStore(tmp_path)
        assert reopened.read("s") == ({"E1": 0.5}, 1)
        reopened.close()

    def test_garbage_segment_tail_is_ignored(self, tmp_path):
        """Unindexed junk appended to a segment is plain dead space."""
        store = PackedHistoryStore(tmp_path)
        _fill(store, n=5)
        store.close()
        seg = sorted(tmp_path.glob("seg-*.pack"))[-1]
        with open(seg, "ab") as handle:
            handle.write(b"\x00garbage\xff" * 7)
        reopened = PackedHistoryStore(tmp_path)
        assert len(reopened) == 5
        assert reopened.read("s4") == ({"E1": 0.54, "E2": 0.25}, 11)
        reopened.write("after", {"E1": 1.0}, 1)  # still writable
        assert reopened.read("after") == ({"E1": 1.0}, 1)
        reopened.close()

    def test_corrupt_block_falls_back_to_stale_entry(self, tmp_path):
        """Disk corruption in the latest block reads the previous one."""
        store = PackedHistoryStore(
            tmp_path, segment_bytes=1 << 20, compact_dead_fraction=None
        )
        store.write("s", {"E1": 0.5}, 1)
        store.write("s", {"E1": 0.25}, 2)
        entry = store._entries["s"]
        store.close()
        seg = tmp_path / f"seg-{entry.segment:06d}.pack"
        data = bytearray(seg.read_bytes())
        data[entry.offset + 12] ^= 0xFF  # flip a payload byte in place
        seg.write_bytes(bytes(data))
        reopened = PackedHistoryStore(tmp_path)
        assert reopened.read("s") == ({"E1": 0.5}, 1)
        reopened.close()

    def test_torn_index_line_is_skipped(self, tmp_path):
        store = PackedHistoryStore(tmp_path)
        store.write("a", {"E1": 0.5}, 1)
        store.write("b", {"E1": 0.75}, 2)
        store.close()
        index = tmp_path / "index.jsonl"
        text = index.read_text()
        index.write_text(text[: len(text) - 8])  # tear the final line
        reopened = PackedHistoryStore(tmp_path)
        assert reopened.read("a") == ({"E1": 0.5}, 1)
        assert reopened.read("b") is None  # its entry was torn away
        reopened.close()

    def test_garbage_index_lines_are_skipped(self, tmp_path):
        store = PackedHistoryStore(tmp_path)
        store.write("a", {"E1": 0.5}, 1)
        store.close()
        index = tmp_path / "index.jsonl"
        with open(index, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"k": "ghost", "s": 99, "o": 0, "l": 64}\n')
            handle.write(json.dumps({"k": "short"}) + "\n")
        reopened = PackedHistoryStore(tmp_path)
        assert reopened.series() == ("a",)
        assert reopened.read("a") == ({"E1": 0.5}, 1)
        reopened.close()

    def test_crash_before_compacted_index_rewrite(self, tmp_path, monkeypatch):
        """Dying after re-appending blocks but before the index rewrite
        leaves the appended index lines — still fully loadable."""
        store = PackedHistoryStore(tmp_path, segment_bytes=4096,
                                   compact_dead_fraction=None)
        for _ in range(4):
            _fill(store, n=30)
        expected = {f"s{k}": store.read(f"s{k}") for k in range(30)}

        import repro.history.packed as packed_module

        def boom(path, data):
            raise OSError("simulated crash during index rewrite")

        monkeypatch.setattr(packed_module, "atomic_write", boom)
        with pytest.raises(OSError):
            store.compact()
        monkeypatch.undo()
        store.close()
        reopened = PackedHistoryStore(tmp_path)
        assert {k: reopened.read(k) for k in expected} == expected
        reopened.close()

    def test_crash_before_dead_segment_unlink(self, tmp_path, monkeypatch):
        """Dying after the index rewrite but before unlinking dead
        segments leaves orphan files the next compaction reclaims."""
        store = PackedHistoryStore(tmp_path, segment_bytes=4096,
                                   compact_dead_fraction=None)
        for _ in range(4):
            _fill(store, n=30)
        expected = {f"s{k}": store.read(f"s{k}") for k in range(30)}
        monkeypatch.setattr(
            "pathlib.Path.unlink",
            lambda self, missing_ok=False: (_ for _ in ()).throw(
                OSError("simulated crash")
            ),
        )
        store.compact()  # unlink failures are swallowed by design
        monkeypatch.undo()
        store.close()
        reopened = PackedHistoryStore(tmp_path)
        assert {k: reopened.read(k) for k in expected} == expected
        reopened.compact()  # the orphan segments are reclaimable
        assert reopened.dead_bytes == 0
        reopened.close()

    def test_random_tail_truncation_fuzz(self, tmp_path):
        """Any torn tail leaves a loadable store returning only states
        that were actually written at some point."""
        rng = random.Random(8)
        # One write per state, then the same states in write_many
        # batches of 1-9 series.
        for batched in (False, True):
            directory = tmp_path / ("many" if batched else "f")
            written = {}
            with PackedHistoryStore(directory, segment_bytes=4096) as store:
                batch = []
                for k in range(120):
                    key = f"s{k % 17}"
                    state = ({"E1": rng.random(), "E2": rng.random()}, k)
                    written.setdefault(key, []).append(state)
                    if not batched:
                        store.write(key, *state)
                        continue
                    batch.append((key, *state))
                    if len(batch) >= rng.randrange(1, 10) or k == 119:
                        store.write_many(batch)
                        batch = []
            index = directory / "index.jsonl"
            index.write_text(index.read_text()[: rng.randrange(40, 400)])
            reopened = PackedHistoryStore(directory)
            for key in reopened.series():
                state = reopened.read(key)
                if state is not None:
                    assert state in written[key]
            reopened.close()
