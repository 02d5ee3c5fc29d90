"""Tests for the cluster gateway: routing, majority reads, link order.

Thread-mode backends keep these fast; process-mode failover is covered
in ``test_supervisor.py``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro
from repro.cluster.supervisor import FusionCluster
from repro.service.client import ServiceError, VoterClient
from repro.service.protocol import PROTOCOL_VERSION
from repro.vdx.examples import AVOC_SPEC, STANDARD_SPEC
from repro.vdx.factory import build_engine

MODULES = ["E1", "E2", "E3"]


def rows_for(n, seed=5):
    rng = np.random.default_rng(seed)
    return (18.0 + rng.normal(0.0, 0.1, size=(n, len(MODULES)))).tolist()


@pytest.fixture(scope="module")
def cluster():
    with FusionCluster(
        AVOC_SPEC, n_shards=3, replicas=2, mode="thread", auto_restart=False
    ) as running:
        yield running


@pytest.fixture()
def client(cluster):
    with cluster.client() as c:
        c.reset()
        yield c


class TestHandshake:
    def test_hello_roundtrip(self, client):
        assert client.hello() == PROTOCOL_VERSION

    def test_version_mismatch_rejected_with_clear_error(self, client):
        with pytest.raises(ServiceError, match="protocol version mismatch"):
            client.hello(version=PROTOCOL_VERSION + 1)

    def test_gateway_advertises_vote_replay(self, client):
        response = client.request({"op": "hello", "version": PROTOCOL_VERSION})
        assert response["replays_votes"] is True


class TestRoutedVoting:
    def test_vote_matches_single_engine(self, client):
        rows = rows_for(30)
        reference = build_engine(AVOC_SPEC)
        for i, row in enumerate(rows):
            result = client.vote(i, dict(zip(MODULES, row)), series="room-1")
            expected = reference.process_batch(
                np.asarray([row]), MODULES
            )
            want = expected.values[0]
            want = None if np.isnan(want) else float(want)
            assert result["value"] == want
            assert set(result) == {"round", "value", "status"}

    def test_vote_without_series_uses_default(self, client):
        result = client.vote(0, dict(zip(MODULES, [18.0, 18.1, 17.9])))
        assert result["round"] == 0
        assert "default" in client.route("default")["series"]

    def test_replicated_writes_land_on_the_full_replica_set(self, client):
        client.vote(0, dict(zip(MODULES, [18.0, 18.1, 17.9])), series="rep")
        route = client.route("rep")
        assert len(route["replicas"]) == 2
        for address in route["addresses"]:
            with VoterClient(*address) as direct:
                assert direct.stats(series="rep")["rounds_processed"] == 1

    def test_vote_batch_matches_single_engine(self, client):
        rows = rows_for(80, seed=9)
        reference = build_engine(AVOC_SPEC)
        outcome = reference.process_batch(np.asarray(rows), MODULES)
        results = client.vote_batch(
            [{"series": "batch-series", "rounds": list(range(80)),
              "modules": MODULES, "rows": rows}]
        )
        got = [r["value"] for r in results[0]["results"]]
        want = [None if np.isnan(v) else float(v) for v in outcome.values]
        assert got == want

    def test_vote_batch_fans_out_many_series(self, client):
        batches = [
            {"series": f"multi-{k}", "rounds": [0, 1], "modules": MODULES,
             "rows": rows_for(2, seed=k)}
            for k in range(6)
        ]
        results = client.vote_batch(batches)
        assert [r["series"] for r in results] == [b["series"] for b in batches]
        for entry in results:
            assert [p["round"] for p in entry["results"]] == [0, 1]

    def test_submit_and_close_round_through_gateway(self, client):
        client.vote(0, dict(zip(MODULES, [18.0, 18.1, 17.9])), series="sub")
        response = client.submit(1, "E1", 18.2, series="sub")
        assert response["accepted"] and not response["voted"]
        client.submit(1, "E2", 18.3, series="sub")
        response = client.submit(1, "E3", 18.1, series="sub")
        assert response["voted"]
        client.submit(2, "E1", 18.0, series="sub")
        assert client.close_round(2, series="sub")["round"] == 2

    def test_replayed_vote_is_idempotent_across_the_cluster(self, client):
        values = dict(zip(MODULES, [18.0, 18.1, 17.9]))
        first = client.vote(0, values, series="replay")
        again = client.vote(0, values, series="replay")
        assert again == first


class TestReadsAndStats:
    def test_history_read_from_replica_set(self, client):
        rows = rows_for(25)
        client.vote_batch(
            [{"series": "hist", "rounds": list(range(25)),
              "modules": MODULES, "rows": rows}]
        )
        records = client.history(series="hist")
        assert set(records) == set(MODULES)

    def test_stats_routed_to_primary(self, client):
        client.vote(0, dict(zip(MODULES, [18.0, 18.1, 17.9])), series="st")
        stats = client.stats(series="st")
        assert stats["rounds_processed"] == 1

    def test_cluster_stats_shape(self, client):
        client.vote(0, dict(zip(MODULES, [18.0, 18.1, 17.9])), series="cs")
        stats = client.cluster_stats()
        assert stats["ring"]["replicas"] == 2
        assert sorted(stats["backends"]) == ["b0", "b1", "b2"]
        for info in stats["backends"].values():
            assert info["alive"] is True
            assert info["breaker"] == "closed"
        assert stats["series_routed"] >= 1

    def test_route_lists_replicas_in_ring_order(self, client, cluster):
        route = client.route("anything")
        assert route["replicas"] == cluster.ring.replica_set("anything")

    def test_unsupported_op_fails_cleanly(self, client):
        with pytest.raises(ServiceError, match="not supported by the gateway"):
            client.request(
                {"op": "sync_history", "series": "s", "records": {"E1": 1.0}}
            )

    def test_reset_broadcasts_to_every_backend(self, client):
        client.vote(0, dict(zip(MODULES, [18.0, 18.1, 17.9])), series="wipe")
        assert client.reset()
        assert client.cluster_stats()["series_routed"] == 0
        with pytest.raises(ServiceError, match="unknown series"):
            client.stats(series="wipe")


class TestConfigureTwoPhase:
    def test_configure_aborts_before_touching_any_backend(self):
        with FusionCluster(
            AVOC_SPEC, n_shards=3, replicas=2, mode="thread",
            auto_restart=False,
        ) as cluster:
            with cluster.client() as client:
                client.vote(
                    0, dict(zip(MODULES, [18.0, 18.1, 17.9])), series="cfg"
                )
                cluster.backends["b1"].kill()
                with pytest.raises(ServiceError, match="configure aborted"):
                    client.configure(STANDARD_SPEC.to_dict())
                # The probe phase failed, so no survivor was reconfigured:
                # the cluster is still uniformly on the old spec, state
                # intact.
                assert (
                    client.spec()["algorithm_name"]
                    == AVOC_SPEC.algorithm_name
                )
                for backend_id, backend in cluster.backends.items():
                    if backend_id == "b1":
                        continue
                    with VoterClient(*backend.address) as direct:
                        assert (
                            direct.spec()["algorithm_name"]
                            == AVOC_SPEC.algorithm_name
                        )

    def test_fenced_backend_is_excluded_from_routing(self):
        with FusionCluster(
            AVOC_SPEC, n_shards=3, replicas=2, mode="thread",
            auto_restart=False,
        ) as cluster:
            with cluster.client() as client:
                series = "fenced"
                victim = client.route(series)["replicas"][0]
                cluster.gateway._fence(victim)
                stats = client.cluster_stats()
                assert stats["backends"][victim]["fenced"] is True
                result = client.vote(
                    0, dict(zip(MODULES, [18.0, 18.1, 17.9])), series=series
                )
                assert result["round"] == 0
                # The fenced primary never saw the round.
                with VoterClient(*cluster.backends[victim].address) as direct:
                    with pytest.raises(ServiceError, match="unknown series"):
                        direct.stats(series=series)

    def test_stale_backend_is_skipped_until_resynced(self):
        with FusionCluster(
            AVOC_SPEC, n_shards=3, replicas=2, mode="thread",
            auto_restart=False,
        ) as cluster:
            with cluster.client() as client:
                series = "stale"
                victim = client.route(series)["replicas"][0]
                cluster.gateway.mark_stale(victim)
                assert client.cluster_stats()["backends"][victim]["stale"]
                client.vote(
                    0, dict(zip(MODULES, [18.0, 18.1, 17.9])), series=series
                )
                with VoterClient(*cluster.backends[victim].address) as direct:
                    with pytest.raises(ServiceError, match="unknown series"):
                        direct.stats(series=series)
                # resync seeds the victim from the survivor and re-enables.
                summary = cluster.gateway.resync_backend(victim)
                assert summary["synced"] == 1
                with VoterClient(*cluster.backends[victim].address) as direct:
                    survivor_records = client.history(series=series)
                    assert direct.history(series=series) == pytest.approx(
                        survivor_records
                    )


class TestGatewayFailover:
    def test_majority_read_survives_a_dead_replica(self):
        # Separate cluster so killing a backend can't leak into the
        # module-scoped fixture.
        with FusionCluster(
            AVOC_SPEC, n_shards=3, replicas=2, mode="thread",
            auto_restart=False,
        ) as cluster:
            with cluster.client() as client:
                rows = rows_for(40, seed=13)
                reference = build_engine(AVOC_SPEC)
                expected = reference.process_batch(np.asarray(rows), MODULES)
                for i in range(20):
                    client.vote(i, dict(zip(MODULES, rows[i])), series="ha")
                victim = client.route("ha")["replicas"][0]
                cluster.backends[victim].kill()
                for i in range(20, 40):
                    result = client.vote(
                        i, dict(zip(MODULES, rows[i])), series="ha"
                    )
                    want = expected.values[i]
                    want = None if np.isnan(want) else float(want)
                    assert result["value"] == want
                stats = client.cluster_stats()
                assert stats["backends"][victim]["alive"] is False


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestLinkOrder:
    def test_vote_does_not_overtake_an_earlier_batch(self):
        # History-aware voting is order-sensitive: a link must deliver
        # its jobs in the order they were queued, whatever their op.
        rows = rows_for(2, seed=21)
        want = repro.fuse(rows, AVOC_SPEC, modules=MODULES).values
        with FusionCluster(
            AVOC_SPEC, n_shards=1, replicas=1, mode="thread",
            auto_restart=False,
        ) as cluster:
            (backend_id, backend), = cluster.backends.items()
            link = cluster.gateway._links[backend_id]
            answers = {}
            threads = []

            def send(name, message):
                def run():
                    with cluster.client() as c:
                        try:
                            answers[name] = c.request(message)
                        except ServiceError as exc:
                            answers[name] = exc

                thread = threading.Thread(target=run)
                thread.start()
                threads.append(thread)

            with backend._server._lock:
                # Park the link thread mid-request on the held shard.
                sent = link.requests_sent
                send("park", {"op": "vote_batch", "batches": [
                    {"series": "park", "rounds": [0], "modules": MODULES,
                     "rows": rows[:1]}]})
                _wait_for(
                    lambda: link.requests_sent > sent and link._queue.empty()
                )
                send("batch", {"op": "vote_batch", "batches": [
                    {"series": "s", "rounds": [0], "modules": MODULES,
                     "rows": rows[:1]}]})
                _wait_for(lambda: link._queue.qsize() == 1)
                send("vote", {"op": "vote", "series": "s", "round": 1,
                              "values": dict(zip(MODULES, rows[1]))})
                _wait_for(lambda: link._queue.qsize() == 2)
            for thread in threads:
                thread.join(timeout=10.0)

            batch, vote = answers["batch"], answers["vote"]
            assert not isinstance(batch, Exception), batch
            assert not isinstance(vote, Exception), vote
            assert batch["results"][0]["results"][0]["value"] == float(want[0])
            assert vote["result"]["value"] == float(want[1])


class TestShardErrors:
    def test_replay_past_the_cache_is_refused_not_masked(self):
        # A shard answering with an error is healthy: its code reaches
        # the caller and no backend is marked dead.
        with FusionCluster(
            AVOC_SPEC, n_shards=2, replicas=2, mode="thread",
            auto_restart=False,
        ) as cluster:
            with cluster.client() as client:
                rows = rows_for(1100, seed=3)
                client.vote_batch(
                    [{"series": "deep", "rounds": list(range(1100)),
                      "modules": MODULES, "rows": rows}]
                )
                with pytest.raises(ServiceError) as single:
                    client.vote(0, dict(zip(MODULES, rows[0])), series="deep")
                assert single.value.code == "already_voted"
                with pytest.raises(ServiceError) as batch:
                    client.vote_batch(
                        [{"series": "deep", "rounds": [0],
                          "modules": MODULES, "rows": rows[:1]}]
                    )
                assert batch.value.code == "already_voted"
                stats = client.cluster_stats()
                for info in stats["backends"].values():
                    assert info["status"] == "alive"
                    assert info["failures"] == 0
