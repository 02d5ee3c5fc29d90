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


# -- replica merge: differential against the per-round majority --------------


class _PreparedLink:
    """A backend link that answers ``vote_batch`` from prepared payloads.

    ``answers`` maps series to that backend's list of round answers; a
    batch of n rounds gets the first n.  A ``failure`` exception instead
    fails every job (a dead or erroring shard).  Jobs finish
    synchronously on ``enqueue``.
    """

    fenced = False
    alive = True

    def __init__(self, answers, failure=None):
        self.answers = answers
        self.failure = failure

    def enqueue(self, job):
        if self.failure is not None:
            job.fail(self.failure)
            return
        job.finish({"ok": True, "results": [
            {"series": b["series"],
             "results": self.answers[b["series"]][:len(b["rounds"])]}
            for b in job.payload["batches"]
        ]})

    def stop(self):
        pass


def _reference_merge(ring, batches, links):
    """The gateway's merge as a per-round canonical-JSON majority.

    Returns (merged answers per batch, disagreeing rounds); raises
    LookupError at the first batch no replica answered.
    """
    import json

    merged, disagreements = [], 0
    for batch in batches:
        series = batch["series"]
        ordered = [
            (bid, links[bid].answers[series])
            for bid in ring.replica_set(series)
            if links[bid].failure is None
        ]
        if not ordered:
            raise LookupError(series)
        rows = []
        for k in range(len(batch["rounds"])):
            counts = {}
            for _, answers in ordered:
                payload = answers[k]
                key = json.dumps(payload, sort_keys=True, default=str)
                counts.setdefault(key, [0, payload])[0] += 1
            if len(counts) > 1:
                disagreements += 1
            best_count, best = -1, None
            for count, payload in counts.values():
                if count > best_count:
                    best_count, best = count, payload
            rows.append(best)
        merged.append(rows)
    return merged, disagreements


def _flip(value):
    """The alternative answer value: a twin that ``==`` may call equal
    (``-0.0`` for ``0.0``, ``1`` for ``1.0``), or a value for ``None``."""
    if value is None:
        return 18.25
    if type(value) is int:
        return float(value)
    if value == 0.0:
        return -value
    if value == 1.0:
        return 1
    return None


def _answer_sets(rng, n_backends):
    """Seeded replica answers for a few series, with planted divergence.

    Every round has one alternative answer, so replicas that diverge on
    a round can agree with each other (a majority that differs from the
    primary) as well as stand alone.  Values include ``-0.0`` against
    ``0.0``, ``1`` against ``1.0`` and ``None`` against a value.
    """
    def value():
        return rng.choice(
            [rng.uniform(-20.0, 20.0), 0.0, -0.0, None, 1.0, 1, 18.25]
        )

    batches, base, alternative = [], {}, {}
    for index in range(rng.randint(1, 4)):
        series = f"s{rng.randint(0, 9)}-{index}"
        start = rng.choice([0, 0, 7, 40])
        rounds = list(range(start, start + rng.randint(1, 6)))
        batches.append({"series": series, "rounds": rounds,
                        "modules": ["E1"], "rows": [[1.0]] * len(rounds)})
        base[series] = []
        alternative[series] = []
        for number in rounds:
            v = value()
            status = rng.choice(["ok", "ok", "held", "skipped"])
            base[series].append({"round": number, "value": v, "status": status})
            if rng.random() < 0.3:
                alt = {"round": number, "value": v,
                       "status": "skipped" if status == "ok" else "ok"}
            else:
                alt = {"round": number, "value": _flip(v), "status": status}
            alternative[series].append(alt)
    backend_ids = [f"b{i}" for i in range(n_backends)]
    diverge = rng.choice([0.0, 0.0, 0.2, 0.6])
    links = {}
    for bid in backend_ids:
        failure = None
        roll = rng.random()
        if roll < 0.1:
            failure = ServiceError("shard refused", code="internal")
        elif roll < 0.2:
            failure = ConnectionError("shard gone")
        answers = {}
        for series, rows in base.items():
            # Fresh dicts: replicas answer with equal, not shared, objects.
            answers[series] = [
                dict(alternative[series][k] if rng.random() < diverge else row)
                for k, row in enumerate(rows)
            ]
        links[bid] = _PreparedLink(answers, failure)
    return batches, links


def _prepared_gateway(links, replicas):
    from repro.cluster.gateway import ClusterGateway
    from repro.cluster.ring import HashRing
    from repro.obs import MetricsRegistry

    ring = HashRing(replicas=replicas)
    for bid in links:
        ring.add_node(bid)
    gateway = ClusterGateway(AVOC_SPEC, ring, registry=MetricsRegistry())
    gateway._links = dict(links)
    return gateway


_TOPOLOGIES = [(1, 1), (2, 2), (3, 3), (2, 3), (1, 2), (3, 4)]


class TestReplicaMerge:
    @pytest.mark.parametrize("seed", range(40))
    def test_merge_decides_as_the_per_round_majority(self, seed):
        import random

        from repro.exceptions import ReproError

        rng = random.Random(seed)
        replicas, n_backends = _TOPOLOGIES[seed % len(_TOPOLOGIES)]
        for _ in range(5):
            batches, links = _answer_sets(rng, n_backends)
            gateway = _prepared_gateway(links, replicas)
            try:
                counter = gateway._obs.replica_disagreements
                try:
                    want, want_disagreements = _reference_merge(
                        gateway.ring, batches, links
                    )
                except LookupError:
                    with pytest.raises(ReproError):
                        gateway.dispatch({"op": "vote_batch", "batches": batches})
                    continue
                got = gateway.dispatch({"op": "vote_batch", "batches": batches})
                assert [r["series"] for r in got["results"]] == [
                    b["series"] for b in batches
                ]
                # repr tells -0.0 from 0.0, 1 from 1.0 and True from 1.
                assert repr([r["results"] for r in got["results"]]) == repr(want)
                assert counter.value == want_disagreements

                # A single vote merges its one round the same way.
                batch = batches[0]
                single = [dict(batch, rounds=batch["rounds"][:1])]
                want, want_disagreements = _reference_merge(
                    gateway.ring, single, links
                )
                before = counter.value
                got = gateway.dispatch({
                    "op": "vote", "series": batch["series"],
                    "round": batch["rounds"][0], "values": {"E1": 1.0},
                })
                assert repr(got["result"]) == repr(want[0][0])
                assert counter.value - before == want_disagreements
            finally:
                gateway.stop()

    def test_agreeing_replicas_build_no_per_round_key(self, monkeypatch):
        import json

        from repro.cluster import gateway as gateway_module

        calls = []

        class CountingJson:
            @staticmethod
            def dumps(*args, **kwargs):
                calls.append(args)
                return json.dumps(*args, **kwargs)

        rows = [{"round": n, "value": 18.0 + n, "status": "ok"} for n in range(50)]
        links = {
            bid: _PreparedLink({"s": [dict(row) for row in rows]})
            for bid in ("b0", "b1", "b2")
        }
        gateway = _prepared_gateway(links, replicas=3)
        monkeypatch.setattr(gateway_module, "json", CountingJson)
        try:
            got = gateway.dispatch({"op": "vote_batch", "batches": [
                {"series": "s", "rounds": list(range(50)), "modules": ["E1"],
                 "rows": [[1.0]] * 50}]})
            got_vote = gateway.dispatch(
                {"op": "vote", "series": "s", "round": 0, "values": {"E1": 1.0}}
            )
        finally:
            gateway.stop()
        assert got["results"][0]["results"] == rows
        assert got_vote["result"] == rows[0]
        assert calls == []

    def test_disagreement_log_keeps_the_latest_rounds(self):
        from repro.cluster.gateway import DISAGREEMENT_LOG_SIZE

        n = DISAGREEMENT_LOG_SIZE + 6
        links = {
            bid: _PreparedLink({"s": [
                {"round": r, "value": float(r) + offset, "status": "ok"}
                for r in range(n)
            ]})
            for bid, offset in (("b0", 0.0), ("b1", 0.5))
        }
        gateway = _prepared_gateway(links, replicas=2)
        try:
            gateway.dispatch({"op": "vote_batch", "batches": [
                {"series": "s", "rounds": list(range(n)), "modules": ["E1"],
                 "rows": [[1.0]] * n}]})
            log = list(gateway._disagreements)
            assert gateway._obs.replica_disagreements.value == n
        finally:
            gateway.stop()
        assert [e["round"] for e in log] == list(range(6, n))
        assert all(e["series"] == "s" for e in log)
        assert log[-1]["answers"] == {
            bid: link.answers["s"][-1] for bid, link in links.items()
        }

    def test_concurrent_requests_lose_no_disagreement(self):
        import sys

        from repro.cluster.gateway import DISAGREEMENT_LOG_SIZE

        n_threads, n_requests, n_rounds = 8, 20, 10
        links = {
            bid: _PreparedLink({
                f"t{t}": [
                    {"round": r, "value": float(r) + offset, "status": "ok"}
                    for r in range(n_rounds)
                ]
                for t in range(n_threads)
            })
            for bid, offset in (("b0", 0.0), ("b1", 0.5))
        }
        gateway = _prepared_gateway(links, replicas=2)
        errors = []

        def run(t):
            try:
                for _ in range(n_requests):
                    gateway.dispatch({"op": "vote_batch", "batches": [
                        {"series": f"t{t}", "rounds": list(range(n_rounds)),
                         "modules": ["E1"], "rows": [[1.0]] * n_rounds}]})
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=run, args=(t,)) for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            log = list(gateway._disagreements)
            counted = gateway._obs.replica_disagreements.value
        finally:
            sys.setswitchinterval(interval)
            gateway.stop()
        assert errors == []
        assert counted == n_threads * n_requests * n_rounds
        assert len(log) == DISAGREEMENT_LOG_SIZE
        assert all(set(e["answers"]) == {"b0", "b1"} for e in log)
