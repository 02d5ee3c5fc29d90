"""Dashboard HTTP server: routes, SSE streaming, cluster aggregation.

The fixture uses a private registry and a long tick interval so every
snapshot in the assertions comes from an explicit :meth:`tick` call —
no timing races.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.exceptions import ReproError
from repro.obs import MetricsRegistry
from repro.ops import AlertRule, DashboardServer


@pytest.fixture()
def registry():
    reg = MetricsRegistry()
    reg.counter("demo_total", "demo counter").inc(3)
    return reg


@pytest.fixture()
def dash(registry):
    server = DashboardServer(
        registry=registry,
        rules=[AlertRule("demo", "demo_total", ">", 10.0, mode="value")],
        notifiers=[],
        interval=60.0,  # ticks are driven manually below
    )
    server.start()
    yield server
    server.stop()


def get(dash, path):
    conn = http.client.HTTPConnection(*dash.address, timeout=5)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.getheader("Content-Type"), response.read()
    finally:
        conn.close()


class TestRoutes:
    def test_root_serves_the_html_page(self, dash):
        status, content_type, body = get(dash, "/")
        assert status == 200
        assert content_type.startswith("text/html")
        assert b"AVOC operations" in body
        assert b"/api/stream" in body

    def test_metrics_passthrough_renders_prometheus_text(self, dash):
        status, content_type, body = get(dash, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert b"demo_total 3" in body
        assert b"ops_dashboard_requests_total" in body

    def test_snapshot_returns_the_latest_document(self, dash, registry):
        status, content_type, body = get(dash, "/api/snapshot")
        assert status == 200
        assert content_type.startswith("application/json")
        document = json.loads(body)
        assert document["local"]["demo_total"]["samples"][""] == 3.0
        assert document["flat"]["demo_total"] == 3.0
        assert document["alerts"][0]["state"] == "inactive"

    def test_alerts_endpoint_tracks_state(self, dash, registry):
        registry.counter("demo_total", "demo counter").inc(20)
        dash.tick()
        _, _, body = get(dash, "/api/alerts")
        (alert,) = json.loads(body)
        assert alert["rule"]["name"] == "demo"
        assert alert["state"] == "firing"
        assert alert["last_observed"] == 23.0

    def test_unknown_route_is_404(self, dash):
        status, _, body = get(dash, "/nope")
        assert status == 404
        assert b"no route" in body

    def test_requests_are_counted_per_path(self, dash, registry):
        get(dash, "/")
        get(dash, "/api/snapshot")
        get(dash, "/some/scanner/path")
        rendered = registry.render()
        assert 'ops_dashboard_requests_total{path="/"} 1' in rendered
        assert 'ops_dashboard_requests_total{path="/api/snapshot"} 1' in rendered
        # Unknown paths collapse onto one label so the set stays bounded.
        assert 'ops_dashboard_requests_total{path="other"} 1' in rendered


class _SSEClient:
    """A raw SSE reader with explicit close (urllib keeps sockets alive)."""

    def __init__(self, address):
        self.conn = http.client.HTTPConnection(*address, timeout=10)
        self.conn.request("GET", "/api/stream")
        self.response = self.conn.getresponse()

    def next_event(self):
        while True:
            line = self.response.readline()
            if not line:
                return None
            if line.startswith(b"data: "):
                return json.loads(line[len(b"data: "):])

    def close(self):
        # The stream is Connection: close, so http.client hands the
        # socket to the response — closing the connection alone leaves
        # the fd open and the server would never see the disconnect.
        self.response.close()
        self.conn.close()


class TestStream:
    def test_stream_pushes_latest_then_one_event_per_tick(self, dash, registry):
        client = _SSEClient(dash.address)
        try:
            first = client.next_event()  # pushed immediately on subscribe
            assert first["flat"]["demo_total"] == 3.0
            registry.counter("demo_total", "demo counter").inc()
            dash.tick()
            second = client.next_event()
            assert second["flat"]["demo_total"] == 4.0
            dash.tick()
            assert client.next_event()["flat"]["demo_total"] == 4.0
        finally:
            client.close()

    def test_disconnect_cleans_the_subscriber_up(self, dash):
        client = _SSEClient(dash.address)
        client.next_event()
        assert dash.subscriber_count() == 1
        client.close()
        # The handler notices the dead socket on the next push.
        deadline = time.time() + 5.0
        while dash.subscriber_count() > 0 and time.time() < deadline:
            dash.tick()
            time.sleep(0.02)
        assert dash.subscriber_count() == 0

    def test_stop_terminates_open_streams(self, registry):
        dash = DashboardServer(registry=registry, notifiers=[], interval=60.0)
        dash.start()
        client = _SSEClient(dash.address)
        client.next_event()
        dash.stop()  # pushes the None sentinel
        assert client.next_event() is None  # stream ended cleanly
        client.close()
        dash.stop()  # idempotent

    def test_slow_subscriber_drops_old_ticks_instead_of_blocking(
        self, dash, registry
    ):
        client = _SSEClient(dash.address)
        try:
            client.next_event()
            # 20 ticks against a queue bounded at 8: tick() must not block.
            for _ in range(20):
                dash.tick()
            assert dash.subscriber_count() == 1
        finally:
            client.close()


class TestLifecycleValidation:
    def test_non_positive_interval_rejected(self, registry):
        with pytest.raises(ReproError, match="interval"):
            DashboardServer(registry=registry, interval=0.0)

    def test_double_start_rejected(self, registry):
        dash = DashboardServer(registry=registry, notifiers=[], interval=60.0)
        dash.start()
        try:
            with pytest.raises(ReproError, match="already started"):
                dash.start()
        finally:
            dash.stop()
        with pytest.raises(ReproError, match="already stopped"):
            dash.start()


class TestClusterAggregation:
    def test_snapshot_carries_per_shard_state(self):
        from repro.cluster.supervisor import FusionCluster
        from repro.ops import default_alert_rules
        from repro.vdx.examples import AVOC_SPEC

        with FusionCluster(
            AVOC_SPEC, n_shards=2, replicas=2, mode="thread",
            auto_restart=False,
        ) as cluster:
            with cluster.client() as client:
                client.vote(
                    0, {"E1": 18.0, "E2": 18.1, "E3": 17.9}, series="agg"
                )
            dash = DashboardServer(
                registry=MetricsRegistry(),
                gateway=cluster.gateway,
                rules=default_alert_rules(2),
                notifiers=[],
                interval=60.0,
            )
            dash.start()
            try:
                _, _, body = get(dash, "/api/snapshot")
                document = json.loads(body)
                assert sorted(document["shards"]) == ["b0", "b1", "gateway"]
                statuses = {
                    bid: info["status"]
                    for bid, info in document["cluster"]["backends"].items()
                }
                assert statuses == {"b0": "alive", "b1": "alive"}
                assert document["flat"]["cluster_backends_alive"] == 2.0
                # Shard-side work is visible through the aggregation:
                # the gateway routes every vote as a one-round
                # vote_batch, so each replica saw vote_batch requests.
                assert (
                    document["flat"]["service_requests_total{op=vote_batch}"]
                    >= 2.0
                )
                states = {a["rule"]["name"]: a["state"] for a in document["alerts"]}
                assert states["shards-down"] == "inactive"
            finally:
                dash.stop()

    def test_shards_down_alert_fires_when_a_backend_dies(self):
        from repro.cluster.supervisor import FusionCluster
        from repro.ops import default_alert_rules
        from repro.vdx.examples import AVOC_SPEC

        with FusionCluster(
            AVOC_SPEC, n_shards=2, replicas=2, mode="thread",
            auto_restart=False,
        ) as cluster:
            dash = DashboardServer(
                registry=MetricsRegistry(),
                gateway=cluster.gateway,
                rules=default_alert_rules(2),
                notifiers=[],
                interval=60.0,
            )
            dash.start()
            try:
                cluster.backends["b0"].kill()
                # The link marks itself dead on its next failed exchange.
                with cluster.client() as client:
                    deadline = time.time() + 10.0
                    fired = False
                    while time.time() < deadline and not fired:
                        try:
                            client.vote(
                                0, {"E1": 18.0, "E2": 18.1}, series="doom"
                            )
                        except Exception:
                            pass
                        document = dash.tick()
                        states = {
                            a["rule"]["name"]: a["state"]
                            for a in document["alerts"]
                        }
                        fired = states["shards-down"] == "firing"
                assert fired
                assert document["flat"]["cluster_backends_alive"] == 1.0
            finally:
                dash.stop()
