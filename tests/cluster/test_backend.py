"""Tests for ShardServer (multi-series voting) and ManagedBackend."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.cluster.backend import ManagedBackend, ShardServer
from repro.exceptions import ReproError
from repro.history.migrate import series_filename
from repro.runtime.pool import fork_available
from repro.service.client import ServiceError, VoterClient
from repro.types import Round
from repro.vdx.examples import AVOC_SPEC
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
                assert len(server._series_voted["s"]) == 5
                # Recent rounds still replay from the cache...
                replay = c.vote(19, dict(zip(MODULES, rows[19])), series="s")
                assert replay["round"] == 19
                # ...but an evicted round is refused, never re-applied.
                with pytest.raises(ServiceError, match="already voted"):
                    c.vote(0, dict(zip(MODULES, rows[0])), series="s")
                assert c.stats(series="s")["rounds_processed"] == 20
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
