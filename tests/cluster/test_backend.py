"""Tests for ShardServer (multi-series voting) and ManagedBackend."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import fuse
from repro.cli import main as cli_main
from repro.cluster import backend as backend_mod
from repro.cluster.backend import ManagedBackend, ShardServer
from repro.exceptions import ReproError
from repro.history import PackedHistoryStore, TieredHistoryStore
from repro.history.migrate import series_filename
from repro.runtime.pool import fork_available
from repro.service.client import ServiceError, VoterClient
from repro.service.protocol import ProtocolError
from repro.types import Round
from repro.vdx.examples import AVOC_SPEC, all_example_specs
from repro.vdx.factory import build_engine

MODULES = ["E1", "E2", "E3"]


def rows_for(n, seed=7):
    rng = np.random.default_rng(seed)
    return (18.0 + rng.normal(0.0, 0.1, size=(n, len(MODULES)))).tolist()


@pytest.fixture()
def shard():
    server = ShardServer(AVOC_SPEC)
    server.start()
    yield server
    server.stop()


@pytest.fixture()
def client(shard):
    with VoterClient(*shard.address) as c:
        yield c


class TestSeriesFilename:
    def test_slug_is_filesystem_safe_and_collision_free(self):
        assert series_filename("room/1").endswith(".jsonl")
        assert "/" not in series_filename("room/1").rsplit(".", 1)[0]
        assert series_filename("room/1") != series_filename("room_1")


class TestShardServerSeries:
    def test_series_are_isolated(self, client):
        client.vote(0, dict(zip(MODULES, [18.0, 18.1, 17.9])), series="s1")
        client.vote(0, dict(zip(MODULES, [21.0, 21.2, 20.9])), series="s2")
        s1 = client.stats(series="s1")
        s2 = client.stats(series="s2")
        assert s1["rounds_processed"] == 1
        assert s2["rounds_processed"] == 1

    def test_plain_requests_hit_the_shared_engine(self, client):
        client.vote(0, dict(zip(MODULES, [18.0, 18.1, 17.9])))
        stats = client.stats()
        assert stats["rounds_processed"] == 1
        assert stats["series"] == []

    def test_replayed_vote_returns_cached_result(self, client):
        values = dict(zip(MODULES, [18.0, 18.1, 17.9]))
        first = client.vote(0, values, series="s1")
        replay = client.vote(0, values, series="s1")
        assert replay == first
        # Still only one round processed: the replay never hit the engine.
        assert client.stats(series="s1")["rounds_processed"] == 1

    def test_plain_server_still_rejects_double_votes(self, client):
        values = dict(zip(MODULES, [18.0, 18.1, 17.9]))
        client.vote(0, values)
        with pytest.raises(ServiceError, match="already voted"):
            client.vote(0, values)

    def test_submit_and_close_round_per_series(self, client):
        for module, value in zip(MODULES, [18.0, 18.1, 17.9]):
            client.vote(0, dict(zip(MODULES, [18.0, 18.1, 17.9])), series="s1")
            break  # seed the roster with one full round first
        response = client.submit(1, "E1", 18.2, series="s1")
        assert response["accepted"] and not response["voted"]
        client.submit(1, "E2", 18.3, series="s1")
        response = client.submit(1, "E3", 18.1, series="s1")
        assert response["voted"]
        assert response["result"]["round"] == 1
        client.submit(2, "E1", 18.0, series="s1")
        closed = client.close_round(2, series="s1")
        assert closed["round"] == 2

    def test_unknown_series_reads_fail_cleanly(self, client):
        with pytest.raises(ServiceError, match="unknown series"):
            client.stats(series="never-seen")


class TestVoteBatch:
    def test_bit_identical_to_direct_engine(self, client):
        rows = rows_for(50)
        reference = build_engine(AVOC_SPEC)
        outcome = reference.process_batch(np.asarray(rows), MODULES)
        results = client.vote_batch(
            [{"series": "s1", "rounds": list(range(50)),
              "modules": MODULES, "rows": rows}]
        )
        got = [r["value"] for r in results[0]["results"]]
        want = [None if np.isnan(v) else float(v) for v in outcome.values]
        assert got == want

    def test_batch_matches_per_round_votes(self, client):
        rows = rows_for(20, seed=3)
        loop_values = [
            client.vote(i, dict(zip(MODULES, row)), series="loop")["value"]
            for i, row in enumerate(rows)
        ]
        results = client.vote_batch(
            [{"series": "batch", "rounds": list(range(20)),
              "modules": MODULES, "rows": rows}]
        )
        batch_values = [r["value"] for r in results[0]["results"]]
        assert batch_values == loop_values

    def test_replayed_rounds_are_served_from_cache(self, client):
        rows = rows_for(10)
        batch = {"series": "s", "rounds": list(range(10)),
                 "modules": MODULES, "rows": rows}
        first = client.vote_batch([batch])
        again = client.vote_batch([batch])
        assert again == first
        assert client.stats(series="s")["rounds_processed"] == 10

    def test_replay_keeps_every_status_and_out_of_order_rounds(self, client):
        rows = rows_for(6)
        rows[2][1] = None  # misses the 100 % quorum: skipped
        rows[3][0:2] = [None, None]  # majority missing: held
        batch = {"series": "s", "rounds": [4, 2, 3, 0, 1, 5],
                 "modules": MODULES, "rows": rows}
        first = client.vote_batch([batch])
        statuses = [r["status"] for r in first[0]["results"]]
        assert statuses == ["ok", "ok", "skipped", "held", "ok", "ok"]
        assert client.vote_batch([batch]) == first
        replay = client.vote(3, dict(zip(MODULES, rows[2])), series="s")
        assert replay == first[0]["results"][2]
        assert client.stats(series="s")["rounds_processed"] == 6

    def test_duplicate_rounds_within_one_batch(self, client):
        rows = rows_for(3)
        results = client.vote_batch(
            [{"series": "s", "rounds": [0, 0, 1],
              "modules": MODULES, "rows": [rows[0], rows[0], rows[1]]}]
        )
        payloads = results[0]["results"]
        assert payloads[0] == payloads[1]
        assert client.stats(series="s")["rounds_processed"] == 2

    def test_non_numeric_rows_rejected_before_any_apply(self, client):
        with pytest.raises(ServiceError, match="non-numeric"):
            client.vote_batch(
                [
                    {"series": "good", "rounds": [0], "modules": MODULES,
                     "rows": [[18.0, 18.1, 17.9]]},
                    {"series": "bad", "rounds": [0], "modules": MODULES,
                     "rows": [[18.0, "x", 17.9]]},
                ]
            )
        # Two-pass validation: the earlier, valid batch was not applied.
        with pytest.raises(ServiceError, match="unknown series"):
            client.stats(series="good")

    def test_none_cells_are_missing_values(self, client):
        rows = [[18.0, 18.1, 17.9], [18.0, None, 17.9]]
        results = client.vote_batch(
            [{"series": "s", "rounds": [0, 1], "modules": MODULES,
              "rows": rows}]
        )
        reference = build_engine(AVOC_SPEC)
        matrix = np.asarray([[18.0, 18.1, 17.9], [18.0, np.nan, 17.9]])
        outcome = reference.process_batch(matrix, MODULES)
        got = [r["value"] for r in results[0]["results"]]
        want = [None if np.isnan(v) else float(v) for v in outcome.values]
        assert got == want


class TestReplayCacheBounds:
    def test_cache_is_bounded_per_series(self, tmp_path):
        server = ShardServer(AVOC_SPEC, history_dir=tmp_path,
                             replay_cache_rounds=5)
        server.start()
        try:
            with VoterClient(*server.address) as c:
                rows = rows_for(20)
                c.vote_batch([{"series": "s", "rounds": list(range(20)),
                               "modules": MODULES, "rows": rows}])
                assert len(server._series["s"].voted) == 5
                # Recent rounds still replay from the cache...
                replay = c.vote(19, dict(zip(MODULES, rows[19])), series="s")
                assert replay["round"] == 19
                # ...but an evicted round is refused, never re-applied.
                with pytest.raises(ServiceError, match="already voted"):
                    c.vote(0, dict(zip(MODULES, rows[0])), series="s")
                assert c.stats(series="s")["rounds_processed"] == 20
        finally:
            server.stop()

    def test_round_beyond_int64_is_voted_once_and_never_replayed(self):
        server = ShardServer(AVOC_SPEC)
        values = dict(zip(MODULES, [18.0, 18.1, 17.9]))
        request = {"op": "vote", "series": "s", "round": 2**70,
                   "values": values}
        try:
            assert server.dispatch(request)["result"]["status"] == "ok"
            with pytest.raises(ProtocolError, match="already voted"):
                server.dispatch(request)
        finally:
            server.stop()

    def test_watermark_survives_a_restart(self, tmp_path):
        rows = rows_for(10)
        server = ShardServer(AVOC_SPEC, history_dir=tmp_path)
        server.start()
        with VoterClient(*server.address) as c:
            c.vote_batch([{"series": "s", "rounds": list(range(10)),
                           "modules": MODULES, "rows": rows}])
        server.stop()
        reborn = ShardServer(AVOC_SPEC, history_dir=tmp_path)
        reborn.start()
        try:
            with VoterClient(*reborn.address) as c:
                # The replay cache died with the process, but the voted
                # watermark did not: a retried old round is refused
                # instead of silently mutating history a second time.
                with pytest.raises(ServiceError, match="already voted"):
                    c.vote(9, dict(zip(MODULES, rows[9])), series="s")
                assert c.stats(series="s")["rounds_processed"] == 0
                # Fresh rounds keep flowing.
                fresh = c.vote(10, dict(zip(MODULES, rows[0])), series="s")
                assert fresh["round"] == 10
        finally:
            reborn.stop()

    def test_batch_with_crash_lost_round_rejected_before_apply(self, tmp_path):
        rows = rows_for(6)
        server = ShardServer(AVOC_SPEC, history_dir=tmp_path)
        server.start()
        with VoterClient(*server.address) as c:
            c.vote_batch([{"series": "s", "rounds": [0, 1, 2],
                           "modules": MODULES, "rows": rows[:3]}])
        server.stop()
        reborn = ShardServer(AVOC_SPEC, history_dir=tmp_path)
        reborn.start()
        try:
            with VoterClient(*reborn.address) as c:
                with pytest.raises(ServiceError, match="already voted"):
                    c.vote_batch([{"series": "s", "rounds": [2, 3, 4],
                                   "modules": MODULES, "rows": rows[2:5]}])
                # Screened in the validation pass: nothing was applied.
                assert c.stats(series="s")["rounds_processed"] == 0
        finally:
            reborn.stop()

    def test_reset_clears_the_watermark(self, client):
        values = dict(zip(MODULES, [18.0, 18.1, 17.9]))
        client.vote(0, values, series="s")
        client.reset(series="s")
        assert client.vote(0, values, series="s")["round"] == 0


class TestWatermarkLog:
    """Voted-rounds log lines are formatted from the series' JSON string
    and the round number, byte for byte as ``json.dumps`` of the entry."""

    KEYS = ["plain", 'say "hi"', "back\\slash\\", "naïve-ß-東京", "tab\tnew\nline",
            "emoji-\U0001f600", ""]

    @pytest.mark.parametrize("number", [0, 7, -3, 2**63 - 1, 10**30])
    @pytest.mark.parametrize("key", KEYS)
    def test_line_is_json_dumps_of_the_entry(self, key, number):
        assert backend_mod._watermark_line(key, number) == (
            json.dumps({"series": key, "round": number}) + "\n"
        )

    @pytest.mark.parametrize("compact", (False, True), ids=("appended", "rewritten"))
    def test_lines_load_back(self, tmp_path, compact):
        server = ShardServer(AVOC_SPEC, history_dir=tmp_path, store="memory")
        marks = {key: 40 + k for k, key in enumerate(self.KEYS)}
        server._record_watermark(marks)
        server._record_watermark({self.KEYS[0]: 99, self.KEYS[1]: 3})
        marks[self.KEYS[0]] = 99  # advanced; the older 3 is ignored
        if compact:
            server._write_watermarks()
        text = server._watermark_path().read_text(encoding="utf-8")
        for line in text.splitlines():
            entry = json.loads(line)
            assert line + "\n" == json.dumps(entry) + "\n"
        assert server._load_watermarks() == marks
        server.stop()


class TestSyncHistory:
    def test_seed_records_without_counting_updates(self, client):
        records = {"E1": 0.9, "E2": 0.4, "E3": 0.7}
        client.request({"op": "sync_history", "series": "s",
                        "records": records})
        assert client.history(series="s") == pytest.approx(records)

    def test_versioned_seed_adopts_records_and_update_counter(self, client):
        records = {"E1": 0.9, "E2": 0.4, "E3": 0.7}
        client.request({"op": "sync_history", "series": "s",
                        "records": records, "updates": 12, "watermark": 41})
        response = client.request({"op": "history", "series": "s"})
        assert response["records"] == pytest.approx(records)
        assert response["updates"] == 12
        assert response["watermark"] == 41
        # The watermark guards the vote path too.
        with pytest.raises(ServiceError, match="already voted"):
            client.vote(41, dict(zip(MODULES, [18.0, 18.1, 17.9])),
                        series="s")
        assert client.vote(
            42, dict(zip(MODULES, [18.0, 18.1, 17.9])), series="s"
        )["round"] == 42

    def test_stale_seed_is_ignored(self, client):
        fresh = {"E1": 0.9, "E2": 0.4, "E3": 0.7}
        client.request({"op": "sync_history", "series": "s",
                        "records": fresh, "updates": 12, "watermark": 41})
        stale = {"E1": 0.1, "E2": 0.1, "E3": 0.1}
        response = client.request(
            {"op": "sync_history", "series": "s", "records": stale,
             "updates": 3, "watermark": 7}
        )
        assert response.get("ignored") is True
        assert client.history(series="s") == pytest.approx(fresh)


class TestHistoryPersistence:
    def test_series_logs_survive_a_restart(self, tmp_path):
        rows = rows_for(30)
        server = ShardServer(AVOC_SPEC, history_dir=tmp_path)
        server.start()
        with VoterClient(*server.address) as c:
            c.vote_batch([{"series": "room", "rounds": list(range(30)),
                           "modules": MODULES, "rows": rows}])
            records = c.history(series="room")
        server.stop()
        assert records
        reborn = ShardServer(AVOC_SPEC, history_dir=tmp_path)
        reborn.start()
        try:
            with VoterClient(*reborn.address) as c:
                assert c.history(series="room") == pytest.approx(records)
        finally:
            reborn.stop()

    def test_restarted_series_votes_like_an_uninterrupted_engine(self, tmp_path):
        rows = rows_for(40, seed=11)
        server = ShardServer(AVOC_SPEC, history_dir=tmp_path)
        server.start()
        with VoterClient(*server.address) as c:
            c.vote_batch([{"series": "s", "rounds": list(range(20)),
                           "modules": MODULES, "rows": rows[:20]}])
        server.stop()
        reborn = ShardServer(AVOC_SPEC, history_dir=tmp_path)
        reborn.start()
        try:
            with VoterClient(*reborn.address) as c:
                resumed = c.vote_batch(
                    [{"series": "s", "rounds": list(range(20, 40)),
                      "modules": MODULES, "rows": rows[20:]}]
                )[0]["results"]
        finally:
            reborn.stop()
        # An engine that never crashed, fed the same 40 rounds.
        store_free = build_engine(AVOC_SPEC)
        outcome = store_free.process_batch(np.asarray(rows), MODULES)
        got = [r["value"] for r in resumed]
        want = [None if np.isnan(v) else float(v) for v in outcome.values[20:]]
        assert got == pytest.approx(want)


class TestTieredResidency:
    def test_engine_residency_is_bounded(self, tmp_path):
        server = ShardServer(AVOC_SPEC, history_dir=tmp_path,
                             max_resident_series=2)
        server.start()
        try:
            with VoterClient(*server.address) as c:
                values = dict(zip(MODULES, [18.0, 18.1, 17.9]))
                for k in range(6):
                    c.vote(0, values, series=f"s{k}")
                assert len(server.resident_series) <= 2
                assert len(server.series_hosted) == 6
                stats = c.stats()
                assert stats["resident_series"] <= 2
                assert sorted(stats["series"]) == [f"s{k}" for k in range(6)]
        finally:
            server.stop()

    def test_evicted_series_still_answers_reads(self, tmp_path):
        server = ShardServer(AVOC_SPEC, history_dir=tmp_path,
                             max_resident_series=1)
        server.start()
        try:
            with VoterClient(*server.address) as c:
                values = dict(zip(MODULES, [18.0, 18.1, 17.9]))
                c.vote(0, values, series="a")
                snapshot = c.history(series="a")
                c.vote(0, values, series="b")  # evicts a
                assert server.resident_series == ("b",)
                assert c.history(series="a") == pytest.approx(snapshot)
                # Truly unknown series are still refused, not created.
                with pytest.raises(ServiceError, match="unknown series"):
                    c.stats(series="never-seen")
        finally:
            server.stop()

    def test_thrashed_series_vote_bit_identically(self, tmp_path):
        """With room for one engine, two interleaved series evict each
        other on every round — and must still match an engine that
        never left memory, exactly."""
        rows = rows_for(30, seed=5)
        reference = build_engine(AVOC_SPEC)
        outcome = reference.process_batch(np.asarray(rows), MODULES)
        want = [None if np.isnan(v) else float(v) for v in outcome.values]
        server = ShardServer(AVOC_SPEC, history_dir=tmp_path, store="packed",
                             max_resident_series=1)
        server.start()
        try:
            with VoterClient(*server.address) as c:
                got = {"a": [], "b": []}
                for i, row in enumerate(rows):
                    for key in ("a", "b"):
                        response = c.vote(i, dict(zip(MODULES, row)),
                                          series=key)
                        got[key].append(response["value"])
            assert server.tiered_store.evictions > 0
            assert server.tiered_store.rehydrations > 0
        finally:
            server.stop()
        assert got["a"] == want
        assert got["b"] == want

    def test_restart_is_lazy_and_rehydrates_on_demand(self, tmp_path):
        rows = rows_for(10)
        server = ShardServer(AVOC_SPEC, history_dir=tmp_path, store="packed")
        server.start()
        with VoterClient(*server.address) as c:
            for key in ("a", "b", "c"):
                c.vote_batch([{"series": key, "rounds": list(range(10)),
                               "modules": MODULES, "rows": rows}])
            records = c.history(series="b")
        server.stop()
        reborn = ShardServer(AVOC_SPEC, history_dir=tmp_path, store="packed")
        reborn.start()
        try:
            # No eager cold-start: engines come back only when asked for.
            assert reborn.resident_series == ()
            assert reborn.series_hosted == ("a", "b", "c")
            with VoterClient(*reborn.address) as c:
                assert c.history(series="b") == pytest.approx(records)
            assert reborn.resident_series == ("b",)
        finally:
            reborn.stop()

    def test_rejects_bad_residency_bound(self, tmp_path):
        with pytest.raises(ReproError, match="max_resident_series"):
            ShardServer(AVOC_SPEC, history_dir=tmp_path,
                        max_resident_series=0)

    @pytest.mark.parametrize("op", ["vote", "vote_batch"])
    def test_evicted_series_holds_its_last_accepted_value(self, op):
        """A rebuilt engine answers a majority-missing round ``held``
        with the series' last accepted value, as ``fuse()`` does."""
        modules = ["E1", "E2", "E3", "E4", "E5"]
        rows = [[10.0, 10.1, 9.9, 10.05, 10.0], [10.2, None, None, None, 10.1]]
        want = fuse(np.asarray(rows, dtype=float), AVOC_SPEC, modules=modules)
        for bound in (1, None):
            server = ShardServer(AVOC_SPEC, store="memory",
                                 max_resident_series=bound)
            try:
                got = {"a": [], "b": []}
                for number, row in enumerate(rows):
                    for series in ("a", "b"):  # each evicts the other
                        got[series].append(
                            vote_on(server, op, series, number, modules, row)
                        )
            finally:
                server.stop()
            for answers in got.values():
                assert [a["status"] for a in answers] == ["ok", "held"]
                assert [a["value"] for a in answers] == want.values.tolist()

    @pytest.mark.parametrize("op", ["vote", "vote_batch"])
    def test_materialised_modules_survive_evict_and_rehydrate(
        self, tmp_path, op
    ):
        """A module that only ever misses its reading has a record that
        ``ensure()`` materialised and no update touched; eviction writes
        nothing, so the commit must already have stored it."""
        spec = AVOC_SPEC.with_overrides(quorum="NONE")
        rows = [[18.0, 18.1, None], [18.05, 17.95, None], [18.1, 18.0, None]]
        reference = build_engine(spec)
        for row in rows:
            reference.process(Round.from_mapping(0, dict(zip(MODULES, row))))
        server = ShardServer(spec, history_dir=tmp_path, store="packed",
                             max_resident_series=1)
        try:
            for number, row in enumerate(rows):
                vote_on(server, op, "a", number, MODULES, row)
            vote_on(server, op, "b", 0, MODULES, rows[0])  # evicts a
            assert server.resident_series == ("b",)
            history = server.dispatch({"op": "history", "series": "a"})
        finally:
            server.stop()
        assert "E3" in history["records"]
        assert history["records"] == reference.voter.history.snapshot()
        assert history["updates"] == reference.voter.history.update_count


class TestKnownSeries:
    """Which series a shard hosts comes from durable state only: the
    voted-rounds log and the history store, never a series index."""

    def test_restart_hosts_every_voted_or_stored_series(self, tmp_path):
        names = [f"new-{k:02d}" for k in range(64)]
        rows = rows_for(1)
        server = ShardServer(AVOC_SPEC, history_dir=tmp_path)
        try:
            server.dispatch({"op": "vote_batch", "batches": [
                {"series": name, "rounds": [0], "modules": MODULES,
                 "rows": rows} for name in names
            ]})
            # A seed without a watermark lands in the store.
            server.dispatch({"op": "sync_history", "series": "seeded",
                             "records": {"E1": 0.5}})
            # Submitted, never voted: its pending rounds are memory-only.
            server.dispatch({"op": "submit", "series": "pending-only",
                             "round": 0, "module": "E1", "value": 18.0})
            assert "pending-only" in server.series_hosted
        finally:
            server.stop()
        assert not (tmp_path / "series-index.json").exists()
        reborn = ShardServer(AVOC_SPEC, history_dir=tmp_path)
        try:
            assert reborn.series_hosted == tuple(sorted(names + ["seeded"]))
            reborn.dispatch({"op": "reset", "series": names[5]})
        finally:
            reborn.stop()
        reloaded = ShardServer(AVOC_SPEC, history_dir=tmp_path)
        try:
            assert names[5] not in reloaded.series_hosted
            assert len(reloaded.series_hosted) == 64
        finally:
            reloaded.stop()
        assert not (tmp_path / "series-index.json").exists()

    def test_reset_drops_the_whole_row(self):
        server = ShardServer(AVOC_SPEC, store="memory")
        try:
            first = vote_on(server, "vote", "s", 0, MODULES, [18.0, 18.1, 17.9])
            server.dispatch({"op": "submit", "series": "s", "round": 1,
                             "module": "E1", "value": 18.0})
            server.dispatch({"op": "reset", "series": "s"})
            assert "s" not in server.series_hosted
            with pytest.raises(ProtocolError, match="no pending"):
                server.dispatch({"op": "close_round", "series": "s",
                                 "round": 1})
            # Voted afresh, not replayed from a cache that outlived it.
            again = vote_on(server, "vote", "s", 0, MODULES, [20.0, 20.1, 19.9])
            assert again["value"] != first["value"]
        finally:
            server.stop()

    def test_refused_seed_leaves_no_series(self, tmp_path):
        spec = all_example_specs()["Incoherence"]
        server = ShardServer(spec, history_dir=tmp_path)
        try:
            with pytest.raises(ProtocolError, match="keeps no history"):
                server.dispatch({"op": "sync_history", "series": "ghost",
                                 "records": {"E1": 1.0}, "watermark": 4})
            assert "ghost" not in server.series_hosted
        finally:
            server.stop()
        reborn = ShardServer(spec, history_dir=tmp_path)
        try:
            assert "ghost" not in reborn.series_hosted
        finally:
            reborn.stop()


def _series_state(server, series):
    """What a series carries between rounds: stored history, roster,
    last accepted value and any other voter state (round counters
    aside, which are per process)."""
    history = server.dispatch({"op": "history", "series": series})
    engine = server._engine_for(series)
    voter = vars(engine.voter)
    return {
        "records": history["records"],
        "updates": history["updates"],
        "roster": list(engine.roster),
        "last_accepted": engine.last_accepted,
        "voter": {
            key: value for key, value in voter.items()
            if key not in ("history", "_rounds_voted", "_bootstraps_used")
        },
    }


class TestBoundedShard:
    """A shard that holds one engine for two interleaved series must
    answer and end up exactly as an unbounded shard does, for every
    voter ``build_voter`` produces: eviction parks in the series row
    what the store cannot hold."""

    MODULES = ["E1", "E2", "E3", "E4", "E5"]
    ROUNDS = 40

    def rows(self, spec, offset, n, seed):
        rng = np.random.default_rng(seed)
        if spec.is_categorical:
            # Contested rounds, so history weights and the previous
            # output break ties.
            base = np.ones((n, 5))
            base[:, 3] = 2.0  # E4 disagrees
            base[rng.random(n) < 0.4, 1] = 2.0
            base[rng.random(n) < 0.5, 0] = 3.0
            base[rng.random(n) < 0.2, 4] = 2.0
            return base.tolist()
        matrix = 18.0 + rng.normal(0.0, 0.05, size=(n, 5))
        matrix[:, 3] += offset  # the E4 offset fault
        return matrix.tolist()

    def run(self, tmp_path, spec, op, schedule):
        """``schedule``: ``(series, round, modules, row)`` in order.
        Returns answers and final states per series, per bound."""
        runs = {}
        for bound in (1, None):
            server = ShardServer(spec, history_dir=tmp_path / str(bound),
                                 store="packed", max_resident_series=bound)
            answers = {}
            try:
                for series, number, modules, row in schedule:
                    answers.setdefault(series, []).append(
                        vote_on(server, op, series, number, modules, row)
                    )
                if bound == 1:
                    assert len(server.resident_series) == 1
                    assert server.tiered_store.hot_size <= 1
                states = {key: _series_state(server, key) for key in answers}
            finally:
                server.stop()
            runs[bound] = (answers, states)
        return runs

    @pytest.mark.parametrize("op", ["vote", "vote_batch"])
    @pytest.mark.parametrize("name", sorted(all_example_specs()))
    def test_bound_one_equals_unbounded(self, tmp_path, name, op):
        spec = all_example_specs()[name]
        rows = {"a": self.rows(spec, 6.0, self.ROUNDS, seed=2),
                "b": self.rows(spec, 0.0, self.ROUNDS, seed=1)}
        schedule = [(key, number, self.MODULES, rows[key][number])
                    for number in range(self.ROUNDS) for key in ("a", "b")]
        runs = self.run(tmp_path, spec, op, schedule)
        assert runs[1] == runs[None]

    @pytest.mark.parametrize("op", ["vote", "vote_batch"])
    def test_shrinking_module_set_keeps_the_roster(self, tmp_path, op):
        """Six modules report, then only four: the roster still counts
        six, so the UNTIL-100 quorum skips the four-module rounds."""
        six = [f"E{k}" for k in range(1, 7)]
        rng = np.random.default_rng(9)
        schedule = []
        for number in range(15):
            modules = six if number < 3 else six[:4]
            for key in ("a", "b"):
                row = (18.0 + rng.normal(0.0, 0.05, len(modules))).tolist()
                schedule.append((key, number, modules, row))
        runs = self.run(tmp_path, AVOC_SPEC, op, schedule)
        answers, states = runs[None]
        assert {a["status"] for a in answers["a"][3:]} == {"skipped"}
        assert states["a"]["roster"] == six
        assert runs[1] == runs[None]

    def test_both_series_in_every_request_match_fuse(self, tmp_path):
        rows = {"a": self.rows(AVOC_SPEC, 6.0, 24, seed=3),
                "b": self.rows(AVOC_SPEC, 0.0, 24, seed=4)}
        answers = {}
        histories = {}
        for bound in (1, None):
            server = ShardServer(AVOC_SPEC, history_dir=tmp_path / str(bound),
                                 store="packed", max_resident_series=bound)
            got = answers[bound] = {"a": [], "b": []}
            try:
                for first in range(0, 24, 3):
                    # Both series in every request: two stacks of one.
                    response = server.dispatch({"op": "vote_batch", "batches": [
                        {"series": key, "rounds": list(range(first, first + 3)),
                         "modules": self.MODULES,
                         "rows": rows[key][first:first + 3]}
                        for key in ("a", "b")]})
                    for result in response["results"]:
                        got[result["series"]] += result["results"]
                histories[bound] = {
                    key: server.dispatch({"op": "history", "series": key})
                    for key in ("a", "b")
                }
                if bound == 1:
                    assert server.tiered_store.evictions > 0
            finally:
                server.stop()
        for key in ("a", "b"):
            want = fuse(np.asarray(rows[key]), AVOC_SPEC, modules=self.MODULES)
            assert [r["value"] for r in answers[1][key]] == want.values.tolist()
            assert answers[1][key] == answers[None][key]
            assert histories[1][key] == histories[None][key]

    def test_a_bounded_shard_builds_each_engine_once(
        self, tmp_path, monkeypatch
    ):
        built = []
        build = backend_mod.build_engine

        def counting_build(*args, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(backend_mod, "build_engine", counting_build)
        server = ShardServer(AVOC_SPEC, history_dir=tmp_path, store="packed",
                             max_resident_series=1)
        try:
            rows = rows_for(4)
            for number, row in enumerate(rows):
                for key in ("a", "b"):
                    vote_on(server, "vote", key, number, MODULES, row)
            assert len(built) == 1
        finally:
            server.stop()

    def test_rebound_engine_counts_rounds_afresh(self):
        """Round counters are per engine binding, as after a restart,
        and a rebound engine keeps the spec's shared configuration."""
        for name in ("AVOC", "Incoherence"):
            spec = all_example_specs()[name]
            server = ShardServer(spec, store="memory", max_resident_series=1)
            try:
                rows = self.rows(spec, 6.0, 4, seed=6)
                for number, row in enumerate(rows):
                    vote_on(server, "vote", "a", number, self.MODULES, row)
                # An all-missing round: degraded.
                vote_on(server, "vote", "a", 4, self.MODULES, [None] * 5)
                stats = server.dispatch({"op": "stats", "series": "a"})
                assert (stats["rounds_processed"], stats["rounds_degraded"]) == (5, 1)
                for number, row in enumerate(rows[:2]):
                    vote_on(server, "vote", "b", number, self.MODULES, row)
                stats = server.dispatch({"op": "stats", "series": "b"})
                assert (stats["rounds_processed"], stats["rounds_degraded"]) == (2, 0)
                stats = server.dispatch({"op": "stats", "series": "a"})
                assert (stats["rounds_processed"], stats["rounds_degraded"]) == (0, 0)
                # "b" got a fresh voter, "a" its parked one.
                for key in ("b", "a"):
                    engine = server._engine_for(key)
                    assert engine.quorum is server.engine.quorum
                    assert engine.fault_policy is server.engine.fault_policy
                    assert engine.voter.params is server.engine.voter.params
            finally:
                server.stop()

    def test_parked_state_survives_a_reset_below_the_bound(self, tmp_path):
        """After a reset frees an engine, the shard builds instead of
        recycling: the build path restores parked state too."""
        spec = all_example_specs()["Incoherence"]
        rows = self.rows(spec, 6.0, 12, seed=5)
        reference = ShardServer(spec, store="memory", max_resident_series=None)
        server = ShardServer(spec, store="memory", max_resident_series=1)
        try:
            for number, row in enumerate(rows[:6]):
                vote_on(server, "vote", "a", number, self.MODULES, row)
                vote_on(reference, "vote", "a", number, self.MODULES, row)
            vote_on(server, "vote", "b", 0, self.MODULES, rows[0])  # evicts a
            server.dispatch({"op": "reset", "series": "b"})
            assert server.resident_series == ()
            for number, row in enumerate(rows[6:], start=6):
                assert vote_on(server, "vote", "a", number, self.MODULES,
                               row) == vote_on(reference, "vote", "a", number,
                                               self.MODULES, row)
            assert _series_state(server, "a") == _series_state(reference, "a")
        finally:
            server.stop()
            reference.stop()


def vote_on(server, op, series, number, modules, row):
    """One round of one series, as a ``vote`` or a one-row ``vote_batch``."""
    if op == "vote":
        request = {"op": "vote", "series": series, "round": number,
                   "values": dict(zip(modules, row))}
        return server.dispatch(request)["result"]
    request = {"op": "vote_batch", "batches": [
        {"series": series, "rounds": [number], "modules": modules,
         "rows": [row]}]}
    return server.dispatch(request)["results"][0]["results"][0]


class TestStackedVoteBatch:
    """``vote_batch`` fuses every series of a request in one kernel call,
    on a churning shard shaped like the ``fleet_churn`` benchmark."""

    MODULES = ["E1", "E2", "E3", "E4", "E5"]
    N_SERIES = 40
    BOUND = 8

    def row(self, rng, k):
        row = 18.0 + rng.normal(0.0, 0.05, size=5)
        if k % 4 == 0:
            row[3] += 6.0  # the E4 offset fault
        draw = rng.random()
        if draw < 0.05:
            row[rng.integers(5)] = np.nan  # quorum miss: skipped
        elif draw < 0.08:
            row[rng.permutation(5)[:3]] = np.nan  # majority missing: held
        return [None if np.isnan(v) else float(v) for v in row]

    def test_churning_shard_matches_fuse(self, tmp_path):
        rng = np.random.default_rng(21)
        names = [f"fleet-{k}" for k in range(self.N_SERIES)]
        sent = {name: [] for name in names}
        answers = {name: [] for name in names}
        next_round = dict.fromkeys(names, 0)
        weights = 1.0 / np.arange(1, self.N_SERIES + 1) ** 1.2

        def batch(k):
            name = names[k]
            row = self.row(rng, k)
            number = next_round[name]
            next_round[name] += 1
            sent[name].append(row)
            return {"series": name, "rounds": [number],
                    "modules": self.MODULES, "rows": [row]}

        # Warm-up: fresh stacks; then Zipf picks; one request holds more
        # series than the residency bound.
        requests = [
            [batch(k) for k in range(lo, lo + 5)]
            for lo in range(0, self.N_SERIES, 5)
        ]
        for size in [6] * 30 + [20] + [6] * 10:
            picks = rng.choice(self.N_SERIES, size, replace=False,
                               p=weights / weights.sum())
            requests.append([batch(int(k)) for k in picks])
        server = ShardServer(AVOC_SPEC, history_dir=tmp_path, store="packed",
                             max_resident_series=self.BOUND)
        try:
            for request in requests:
                response = server.dispatch(
                    {"op": "vote_batch", "batches": request}
                )
                for b, result in zip(request, response["results"]):
                    assert result["series"] == b["series"]
                    answers[b["series"]].append(result["results"][0])
                # One residency bound: the hot set is the resident engines.
                assert server.tiered_store.hot_size <= len(
                    server.resident_series
                )
            assert server.tiered_store.evictions > 0
            histories = {
                name: server.dispatch({"op": "history", "series": name})
                for name in names
            }
        finally:
            server.stop()
        statuses = set()
        for name in names:
            matrix = np.asarray(sent[name], dtype=float)
            want = fuse(matrix, AVOC_SPEC, modules=self.MODULES)
            got = answers[name]
            assert [a["round"] for a in got] == list(range(len(got)))
            assert [a["status"] for a in got] == want.statuses.tolist()
            assert [a["value"] for a in got] == [
                None if np.isnan(v) else float(v) for v in want.values
            ]
            statuses.update(want.statuses.tolist())
            reference = build_engine(AVOC_SPEC)
            reference.process_batch(matrix, self.MODULES)
            assert histories[name]["records"] == (
                reference.voter.history.snapshot()
            )
            assert histories[name]["updates"] == (
                reference.voter.history.update_count
            )
        assert statuses == {"ok", "held", "skipped"}

    def test_request_beyond_the_residency_bound_commits_every_series(
        self, tmp_path
    ):
        rng = np.random.default_rng(4)
        rows = {f"s{k}": [self.row(rng, 1) for _ in range(3)]
                for k in range(3 * self.BOUND)}
        server = ShardServer(AVOC_SPEC, history_dir=tmp_path, store="packed",
                             max_resident_series=self.BOUND)
        try:
            response = server.dispatch({"op": "vote_batch", "batches": [
                {"series": name, "rounds": [0, 1, 2],
                 "modules": self.MODULES, "rows": series_rows}
                for name, series_rows in rows.items()
            ]})
            assert len(server.resident_series) == self.BOUND
            backing = server.tiered_store.backing
            for name, result in zip(rows, response["results"]):
                reference = build_engine(AVOC_SPEC)
                want = reference.process_batch(
                    np.asarray(rows[name], dtype=float), self.MODULES
                )
                assert [r["status"] for r in result["results"]] == (
                    want.statuses.tolist()
                )
                assert backing.read(name) == (
                    reference.voter.history.snapshot(),
                    reference.voter.history.update_count,
                )
        finally:
            server.stop()

    def test_series_in_two_batches_sees_its_first_batch(self, client):
        rows = rows_for(4, seed=2)
        response = client.vote_batch([
            {"series": "a", "rounds": [0, 1], "modules": MODULES,
             "rows": rows[:2]},
            {"series": "b", "rounds": [0], "modules": MODULES,
             "rows": rows[:1]},
            # Round 1 again (a replay of the first batch), then 2 and 3.
            {"series": "a", "rounds": [1, 2, 3], "modules": MODULES,
             "rows": rows[1:]},
        ])
        want = fuse(np.asarray(rows), AVOC_SPEC, modules=MODULES).values
        first, _, second = (r["results"] for r in response)
        assert [r["value"] for r in first + second[1:]] == want.tolist()
        assert second[0] == first[1]
        reference = build_engine(AVOC_SPEC)
        reference.process_batch(np.asarray(rows), MODULES)
        history = client.request({"op": "history", "series": "a"})
        assert history["records"] == reference.voter.history.snapshot()
        assert history["updates"] == reference.voter.history.update_count
        assert history["watermark"] == 3


class TestStoreKnobs:
    @pytest.mark.parametrize("store", ["packed", "sqlite", None])
    def test_state_survives_restart(self, tmp_path, store):
        rows = rows_for(8)
        server = ShardServer(AVOC_SPEC, history_dir=tmp_path, store=store)
        server.start()
        with VoterClient(*server.address) as c:
            for i, row in enumerate(rows):
                c.vote(i, dict(zip(MODULES, row)), series="s")
            before = c.request({"op": "history", "series": "s"})
        server.stop()
        reborn = ShardServer(AVOC_SPEC, history_dir=tmp_path, store=store)
        reborn.start()
        try:
            with VoterClient(*reborn.address) as c:
                after = c.request({"op": "history", "series": "s"})
        finally:
            reborn.stop()
        assert after["records"] == pytest.approx(before["records"])
        assert after["watermark"] == before["watermark"]
        assert before["updates"] > 0
        # Every durable tier, the default included, persists the AVOC
        # update counter alongside the records.
        assert after["updates"] == before["updates"]

    def test_memory_store_needs_no_history_dir(self):
        server = ShardServer(AVOC_SPEC, store="memory", max_resident_series=1)
        server.start()
        try:
            with VoterClient(*server.address) as c:
                values = dict(zip(MODULES, [18.0, 18.1, 17.9]))
                c.vote(0, values, series="a")
                snapshot = c.history(series="a")
                c.vote(0, values, series="b")  # evicts a into the dict tier
                assert c.history(series="a") == pytest.approx(snapshot)
        finally:
            server.stop()

    def test_reset_wipes_the_backing_store(self, tmp_path):
        server = ShardServer(AVOC_SPEC, history_dir=tmp_path, store="packed")
        server.start()
        try:
            with VoterClient(*server.address) as c:
                c.vote(0, dict(zip(MODULES, [18.0, 18.1, 17.9])), series="s")
                c.reset()
                assert server.series_hosted == ()
                with pytest.raises(ServiceError, match="unknown series"):
                    c.history(series="s")
        finally:
            server.stop()

    def test_unknown_store_kind_is_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="unknown store"):
            ShardServer(AVOC_SPEC, history_dir=tmp_path, store="csv")
        with pytest.raises(ReproError, match="unknown store"):
            ManagedBackend("b0", AVOC_SPEC, history_dir=tmp_path,
                           store="csv", mode="thread")

    def test_durable_store_requires_history_dir(self):
        with pytest.raises(ReproError, match="history directory"):
            ShardServer(AVOC_SPEC, store="packed")

    def test_managed_backend_passes_store_through(self, tmp_path):
        backend = ManagedBackend("b0", AVOC_SPEC, history_dir=tmp_path,
                                 mode="thread", store="packed",
                                 max_resident_series=2)
        with backend:
            with VoterClient(*backend.address) as c:
                c.vote(0, dict(zip(MODULES, [18.0, 18.1, 17.9])), series="s")
        assert (tmp_path / "packed" / "index.jsonl").exists()


def write_legacy_shard_dir(directory, series, rows):
    """The on-disk layout a pre-packed shard left behind.

    One JSONL log per series (a full record snapshot per voted round),
    the series index and the voted-rounds watermark log.  Returns the
    reference engine per series.
    """
    directory.mkdir(parents=True, exist_ok=True)
    engines = {}
    for key in series:
        engine = build_engine(AVOC_SPEC)
        with open(directory / series_filename(key), "w") as log:
            for number, row in enumerate(rows):
                engine.process(Round.from_values(number, row))
                log.write(json.dumps(engine.voter.history.snapshot()) + "\n")
        engines[key] = engine
    (directory / "series-index.json").write_text(json.dumps(sorted(series)))
    (directory / "voted-rounds.jsonl").write_text("".join(
        json.dumps({"series": key, "round": len(rows) - 1}) + "\n"
        for key in sorted(series)
    ))
    return engines


class TestMigrate:
    def test_legacy_dir_refuses_to_start_fresh(self, tmp_path):
        write_legacy_shard_dir(tmp_path, ["s"], rows_for(4))
        for store in ("packed", None):
            with pytest.raises(ReproError, match="avoc store migrate"):
                ShardServer(AVOC_SPEC, history_dir=tmp_path, store=store)

    def test_sqlite_and_fresh_dirs_are_not_affected(self, tmp_path):
        write_legacy_shard_dir(tmp_path / "legacy", ["s"], rows_for(4))
        ShardServer(AVOC_SPEC, history_dir=tmp_path / "legacy",
                    store="sqlite").stop()
        ShardServer(AVOC_SPEC, history_dir=tmp_path / "fresh").stop()

    def test_migrated_dir_serves_the_same_history(self, tmp_path, capsys):
        rows = rows_for(6)
        engines = write_legacy_shard_dir(tmp_path, ["a", "room/1"], rows)
        assert cli_main(["store", "migrate", str(tmp_path)]) == 0
        assert "migrated 2 series" in capsys.readouterr().out
        assert cli_main(["store", "migrate", str(tmp_path)]) == 0
        assert "migrated 0 series" in capsys.readouterr().out  # no-op rerun

        server = ShardServer(AVOC_SPEC, history_dir=tmp_path)
        server.start()
        try:
            assert server.series_hosted == ("a", "room/1")
            with VoterClient(*server.address) as c:
                for key, engine in engines.items():
                    got = c.request({"op": "history", "series": key})
                    assert got["records"] == engine.voter.history.snapshot()
                    assert got["updates"] == 0  # the line format had none
                    assert got["watermark"] == len(rows) - 1
        finally:
            server.stop()

    @pytest.mark.parametrize("reset", ["all", "each", "configure"])
    def test_reset_after_migration_stays_empty(self, tmp_path, reset):
        """A migrated directory's first start drops the old index, so a
        store that a reset empties later is not taken for an unmigrated
        one, and a rerun of the migration cannot bring the history back."""
        write_legacy_shard_dir(tmp_path, ["a", "b"], rows_for(4))
        assert cli_main(["store", "migrate", str(tmp_path)]) == 0
        server = ShardServer(AVOC_SPEC, history_dir=tmp_path)
        try:
            assert not (tmp_path / "series-index.json").exists()
            if reset == "all":
                server.dispatch({"op": "reset"})
            elif reset == "each":
                for key in ("a", "b"):
                    server.dispatch({"op": "reset", "series": key})
            else:
                server.dispatch({"op": "configure",
                                 "spec": AVOC_SPEC.to_dict()})
            assert server.series_hosted == ()
        finally:
            server.stop()
        assert cli_main(["store", "migrate", str(tmp_path)]) != 0
        reborn = ShardServer(AVOC_SPEC, history_dir=tmp_path)
        try:
            assert reborn.series_hosted == ()
        finally:
            reborn.stop()


class TestManagedBackendThread:
    def test_lifecycle_and_probes(self, tmp_path):
        backend = ManagedBackend("b0", AVOC_SPEC, history_dir=tmp_path,
                                 mode="thread")
        with backend:
            assert backend.is_alive()
            assert backend.ping()
            host, port = backend.address
            assert port > 0
        assert not backend.is_alive()

    def test_kill_and_restart(self, tmp_path):
        backend = ManagedBackend("b0", AVOC_SPEC, history_dir=tmp_path,
                                 mode="thread")
        backend.start()
        try:
            with VoterClient(*backend.address) as c:
                c.vote(0, dict(zip(MODULES, [18.0, 18.1, 17.9])), series="s")
            backend.kill()
            assert not backend.ping()
            backend.restart()
            assert backend.restarts == 1
            assert backend.ping()
            with VoterClient(*backend.address) as c:
                assert c.history(series="s")  # records reloaded from disk
        finally:
            backend.stop()


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
class TestManagedBackendProcess:
    def test_subprocess_lifecycle_and_sigkill(self, tmp_path):
        backend = ManagedBackend("b0", AVOC_SPEC, history_dir=tmp_path,
                                 mode="process")
        backend.start()
        try:
            assert backend.pid is not None
            assert backend.ping()
            with VoterClient(*backend.address) as c:
                c.vote(0, dict(zip(MODULES, [18.0, 18.1, 17.9])), series="s")
                records = c.history(series="s")
            backend.kill()
            assert not backend.is_alive()
            backend.restart()
            assert backend.restarts == 1
            assert backend.ping()
            with VoterClient(*backend.address) as c:
                assert c.history(series="s") == pytest.approx(records)
        finally:
            backend.stop()


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
class TestCrashOrdering:
    """A shard killed mid-``vote_batch`` never applies a round twice."""

    ROWS = rows_for(10, seed=11)

    def batches(self, n_series):
        return [{"series": f"s{k}", "rounds": list(range(len(self.ROWS))),
                 "modules": MODULES, "rows": self.ROWS}
                for k in range(n_series)]

    @pytest.mark.parametrize(
        ("point", "n_series"),
        [("watermark", 1), ("commit", 1), ("watermark", 3), ("commit", 3)],
        ids=["watermark", "commit", "watermark-three_series",
             "commit-three_series"],
    )
    def test_retry_after_a_crash_applies_each_round_at_most_once(
        self, tmp_path, monkeypatch, point, n_series
    ):
        def crash(*args, **kwargs):
            os._exit(1)

        # Patched before the fork: the shard process inherits the hook
        # and dies at that point of its first vote_batch.
        if point == "watermark":
            monkeypatch.setattr(ShardServer, "_record_watermark", crash)
        else:
            monkeypatch.setattr(TieredHistoryStore, "put_state", crash)
        backend = ManagedBackend("b0", AVOC_SPEC, history_dir=tmp_path,
                                 mode="process")
        backend.start()
        try:
            with VoterClient(*backend.address) as c:
                with pytest.raises((OSError, ReproError)):
                    c.vote_batch(self.batches(n_series))
            monkeypatch.undo()
            backend.restart()
            with VoterClient(*backend.address) as c:
                try:
                    results = c.vote_batch(self.batches(n_series))
                except ServiceError as exc:
                    assert exc.code == "already_voted"
                else:
                    want = fuse(np.asarray(self.ROWS), AVOC_SPEC,
                                modules=MODULES).values
                    for result in results:
                        assert [r["value"] for r in result["results"]] == [
                            None if np.isnan(v) else float(v) for v in want
                        ]
                for series in c.stats()["series"]:
                    history = c.request({"op": "history", "series": series})
                    assert history["updates"] <= len(self.ROWS)
        finally:
            backend.stop()

    @pytest.mark.parametrize("torn", [False, True],
                             ids=["before-index", "torn-index"])
    def test_crash_between_segment_and_index_append(
        self, tmp_path, monkeypatch, torn
    ):
        """Killed after a request's blocks reach the segment and before
        (or midway through) their index lines: every series is at its
        old state or its new one, and no round is applied twice."""
        n_series = 4
        append_index = PackedHistoryStore._append_index

        def crash(self, text):
            if torn:
                # The first line lands whole, the second one half.
                first, second = text.splitlines(keepends=True)[:2]
                append_index(self, first + second[: len(second) // 2])
            os._exit(1)

        monkeypatch.setattr(PackedHistoryStore, "_append_index", crash)
        backend = ManagedBackend("b0", AVOC_SPEC, history_dir=tmp_path,
                                 mode="process", store="packed")
        backend.start()
        try:
            with VoterClient(*backend.address) as c:
                with pytest.raises((OSError, ReproError)):
                    c.vote_batch(self.batches(n_series))
            monkeypatch.undo()
            backend.restart()
            with VoterClient(*backend.address) as c:
                with pytest.raises(ServiceError) as refused:
                    c.vote_batch(self.batches(n_series))
                assert refused.value.code == "already_voted"
                updates = []
                for k in range(n_series):
                    history = c.request({"op": "history", "series": f"s{k}"})
                    updates.append(history["updates"])
                    if history["updates"]:
                        reference = build_engine(AVOC_SPEC)
                        reference.process_batch(np.asarray(self.ROWS), MODULES)
                        assert history["records"] == (
                            reference.voter.history.snapshot()
                        )
                        assert history["updates"] == (
                            reference.voter.history.update_count
                        )
        finally:
            backend.stop()
        # A torn index tail commits a prefix of the batch.
        assert updates == ([len(self.ROWS)] if torn else []) + [0] * (
            n_series - torn
        )
