"""The async ingest tier: fan-in, coalescing, backpressure, framing."""

from __future__ import annotations

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import fuse
from repro.cluster.backend import ShardServer
from repro.ingest import AsyncIngestServer, ThreadBridge
from repro.obs import MetricsRegistry
from repro.service.client import ServiceError, VoterClient
from repro.service.facade import connect
from repro.service.protocol import (
    FRAME_HEADER,
    FRAME_MAGIC,
    ErrorCode,
    decode_frame_header,
    decode_frame_payload,
    decode_message,
    encode_frame,
    encode_message,
    ok_response,
)
from repro.service.server import VoterServer
from repro.vdx.examples import AVOC_SPEC

MODULES = ["E1", "E2", "E3", "E4", "E5"]
FAULTY = {"E1": 18.0, "E2": 18.1, "E3": 17.9, "E4": 24.0, "E5": 18.05}


def _values(row):
    return {m: float(v) for m, v in zip(MODULES, row)}


@pytest.fixture()
def shard_ingest():
    """Ingest tier over a batch-capable shard sink (the coalescing path)."""
    sink = ShardServer(AVOC_SPEC)
    registry = MetricsRegistry()
    with AsyncIngestServer(sink, registry=registry) as ingest:
        yield ingest, sink, registry


@pytest.fixture()
def voter_ingest():
    """Ingest tier over a plain voter sink (the pass-through path)."""
    sink = VoterServer(AVOC_SPEC)
    with AsyncIngestServer(sink) as ingest:
        yield ingest, sink


class TestBasicServing:
    def test_vote_and_stats_over_binary(self, shard_ingest):
        ingest, _, _ = shard_ingest
        with connect(ingest.address) as client:
            assert client.transport == "binary"
            result = client.vote(0, FAULTY, series="a")
            assert result["status"] == "ok"
            assert client.stats(series="a")["rounds_processed"] == 1

    def test_vote_over_json(self, shard_ingest):
        ingest, _, _ = shard_ingest
        with connect(ingest.address, transport="json") as client:
            assert client.transport == "json"
            assert client.vote(0, FAULTY, series="a")["status"] == "ok"

    def test_passthrough_ops(self, shard_ingest):
        ingest, _, _ = shard_ingest
        with connect(ingest.address) as client:
            assert client.ping()
            assert "service_requests_total" in client.metrics()

    def test_vote_without_series_passthrough_sink(self, voter_ingest):
        ingest, _ = voter_ingest
        with connect(ingest.address) as client:
            assert client.vote(0, FAULTY)["status"] == "ok"
            with pytest.raises(ServiceError) as excinfo:
                client.vote(0, FAULTY)
            assert excinfo.value.code == str(ErrorCode.ALREADY_VOTED.value)

    def test_restart_safety(self):
        sink = VoterServer(AVOC_SPEC)
        ingest = AsyncIngestServer(sink)
        ingest.start()
        ingest.start()  # idempotent
        addr = ingest.address
        with connect(addr) as client:
            assert client.ping()
        ingest.stop()
        ingest.stop()  # idempotent


class TestCoalescing:
    def test_concurrent_votes_coalesce_into_batches(self, shard_ingest):
        ingest, sink, _ = shard_ingest
        rng = np.random.default_rng(11)
        rounds = 30
        matrices = {f"s{i}": rng.normal(18.0, 0.1, (rounds, 5)) for i in range(4)}
        errors = []

        def run(series, matrix):
            try:
                with connect(ingest.address) as client:
                    for n in range(rounds):
                        result = client.vote(
                            n, _values(matrix[n]), series=series
                        )
                        assert result["status"] in ("ok", "degraded")
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(series, matrix))
            for series, matrix in matrices.items()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # Every series voted every round, in order, exactly once.
        for series, matrix in matrices.items():
            stats = sink.dispatch({"op": "stats", "series": series})
            assert stats["rounds_processed"] == rounds

    def test_coalesced_votes_match_direct_fuse(self, shard_ingest):
        ingest, _, _ = shard_ingest
        rng = np.random.default_rng(3)
        matrix = rng.normal(18.0, 0.2, (50, 5))
        with connect(ingest.address) as client:
            got = [
                client.vote(n, _values(matrix[n]), series="ident")["value"]
                for n in range(50)
            ]
        direct = fuse(matrix, AVOC_SPEC, modules=MODULES).values
        for value, expected in zip(got, direct):
            if np.isnan(expected):
                assert value is None
            else:
                assert value == float(expected)

    def test_bad_vote_does_not_poison_the_batch(self, shard_ingest):
        # An already-voted round fails a whole vote_batch at the sink;
        # the ingest tier must retry singly so neighbours still land.
        ingest, sink, _ = shard_ingest
        with connect(ingest.address) as client:
            client.vote(0, FAULTY, series="p")
        # Pipeline a duplicate and a fresh vote into the same flush.
        host, port = ingest.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(
                encode_message(
                    {"op": "vote", "round": 0, "values": FAULTY, "series": "p"}
                )
                + encode_message(
                    {"op": "vote", "round": 1, "values": FAULTY, "series": "p"}
                )
            )
            buffer = b""
            while buffer.count(b"\n") < 2:
                buffer += sock.recv(65536)
            first, second = (
                decode_message(line)
                for line in buffer.strip().split(b"\n")
            )
        # Shards replay cached votes, so the duplicate answers with the
        # original result rather than an error — the fresh one lands.
        assert first["ok"] is True
        assert second["ok"] is True
        assert sink.dispatch({"op": "stats", "series": "p"})[
            "rounds_processed"
        ] == 2


class TestBackpressure:
    def test_vote_queue_full_answers_backpressure(self):
        sink = ShardServer(AVOC_SPEC)
        registry = MetricsRegistry()
        with AsyncIngestServer(
            sink, max_queued_votes=0, registry=registry
        ) as ingest:
            with VoterClient(*ingest.address) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.vote(0, FAULTY, series="x")
                assert excinfo.value.code == str(ErrorCode.BACKPRESSURE.value)
        assert "ingest_backpressure_drops_total 1" in registry.render()

    def test_per_connection_cap(self):
        release = threading.Event()

        class BlockingSink:
            def _op_vote_batch(self, request):  # marks batch capability
                raise NotImplementedError

            def dispatch(self, request):
                if request["op"] == "vote_batch":
                    release.wait(timeout=10.0)
                    results = [
                        {
                            "series": b["series"],
                            "results": [
                                {"round": n, "value": 1.0, "status": "ok"}
                                for n in b["rounds"]
                            ],
                        }
                        for b in request["batches"]
                    ]
                    return ok_response(results=results)
                return ok_response(pong=True)

        with AsyncIngestServer(
            BlockingSink(),
            max_queued_per_connection=2,
            coalesce_window=0.0,
        ) as ingest:
            host, port = ingest.address
            with socket.create_connection((host, port), timeout=10.0) as sock:
                for n in range(6):
                    sock.sendall(
                        encode_message(
                            {
                                "op": "vote",
                                "round": n,
                                "values": FAULTY,
                                "series": "x",
                            }
                        )
                    )
                time.sleep(0.3)  # let the tier buffer up to its cap
                release.set()
                buffer = b""
                while buffer.count(b"\n") < 6:
                    buffer += sock.recv(65536)
            responses = [
                decode_message(line) for line in buffer.strip().split(b"\n")
            ]
        refused = [r for r in responses if not r["ok"]]
        assert refused, "expected at least one backpressure refusal"
        assert all(
            r["code"] == str(ErrorCode.BACKPRESSURE.value) for r in refused
        )
        assert any(r["ok"] for r in responses)

    def test_connection_capacity(self):
        sink = VoterServer(AVOC_SPEC)
        with AsyncIngestServer(sink, max_connections=1) as ingest:
            host, port = ingest.address
            keeper = socket.create_connection((host, port), timeout=5.0)
            try:
                keeper.sendall(encode_message({"op": "ping"}))
                assert decode_message(keeper.recv(65536).strip())["ok"]
                with socket.create_connection((host, port), timeout=5.0) as extra:
                    data = extra.recv(65536)
                    response = decode_message(data.strip())
                    assert response["ok"] is False
                    assert response["code"] == str(ErrorCode.BACKPRESSURE.value)
            finally:
                keeper.close()


class TestSlowConsumer:
    # A bridge worker still finishing after the loop closed used to
    # raise "Event loop is closed" from its callback thread on stop().
    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_slow_consumer_disconnected(self):
        sink = VoterServer(AVOC_SPEC)
        registry = MetricsRegistry()
        with AsyncIngestServer(
            sink,
            drain_grace=0.2,
            write_buffer_high=2048,
            registry=registry,
        ) as ingest:
            host, port = ingest.address
            sock = socket.create_connection((host, port), timeout=5.0)
            try:
                # Metrics responses are multi-KiB; pipeline plenty and
                # never read, so the transport buffer jams past the
                # high-water mark and drain() times out.
                request = encode_message({"op": "metrics"})
                try:
                    for _ in range(200):
                        sock.sendall(request)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # already disconnected: the point is made
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if "ingest_slow_consumer_disconnects_total 1" in (
                        registry.render()
                    ):
                        break
                    time.sleep(0.05)
                assert "ingest_slow_consumer_disconnects_total 1" in (
                    registry.render()
                )
            finally:
                sock.close()


class TestFramingFaults:
    def test_malformed_frame_answers_then_disconnects(self, voter_ingest):
        ingest, _ = voter_ingest
        host, port = ingest.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(struct.pack("!BBHI", FRAME_MAGIC, 9, 0, 0))
            header = sock.recv(FRAME_HEADER.size, socket.MSG_WAITALL)
            if header and header[0] == FRAME_MAGIC:
                length = decode_frame_header(header)
                response = decode_frame_payload(
                    sock.recv(length, socket.MSG_WAITALL)
                )
            else:
                data = header + sock.recv(65536)
                response = decode_message(data.strip())
            assert response["ok"] is False
            assert response["code"] == str(ErrorCode.MALFORMED_FRAME.value)
            assert sock.recv(1) == b""

    def test_truncated_frame_then_eof_closes_quietly(self, voter_ingest):
        ingest, _ = voter_ingest
        host, port = ingest.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            frame = encode_frame({"op": "ping"})
            sock.sendall(frame[: len(frame) - 3])
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(65536) == b""  # no half-baked response

    def test_frame_counters_by_version(self):
        sink = VoterServer(AVOC_SPEC)
        registry = MetricsRegistry()
        with AsyncIngestServer(sink, registry=registry) as ingest:
            with VoterClient(*ingest.address) as client:
                client.negotiate("json")
                client.ping()
                client.negotiate("auto")
                client.ping()
            rendered = registry.render()
        assert 'ingest_frames_total{version="2-json"}' in rendered
        assert 'ingest_frames_total{version="3-binary"}' in rendered


class TestThreadBridge:
    def test_bridge_round_trip(self):
        sink = VoterServer(AVOC_SPEC)
        bridge = ThreadBridge(sink, workers=2)
        bridge.start()
        done = threading.Event()
        box = {}
        try:
            def on_done(result, exc):
                box["result"], box["exc"] = result, exc
                done.set()

            bridge.submit({"op": "ping"}, on_done)
            assert done.wait(timeout=5.0)
            assert box["exc"] is None
            assert box["result"]["pong"] is True
        finally:
            bridge.stop()

    def test_bridge_propagates_exceptions(self):
        class Exploding:
            def dispatch(self, request):
                raise RuntimeError("kaboom")

        bridge = ThreadBridge(Exploding(), workers=1)
        bridge.start()
        done = threading.Event()
        box = {}
        try:
            def on_done(result, exc):
                box["exc"] = exc
                done.set()

            bridge.submit({"op": "ping"}, on_done)
            assert done.wait(timeout=5.0)
            assert isinstance(box["exc"], RuntimeError)
        finally:
            bridge.stop()

    def test_submit_before_start_rejected(self):
        bridge = ThreadBridge(object())
        with pytest.raises(RuntimeError):
            bridge.submit({"op": "ping"}, lambda r, e: None)
