"""Alerting engine: rule validation, lifecycle, notifiers, live firing.

The lifecycle tests drive :class:`AlertManager` with an injected fake
clock, so for-duration hysteresis is exercised deterministically.  The
live test at the bottom injects a real replica disagreement into a
thread-mode cluster and watches the stock delta rule fire and resolve.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ReproError
from repro.ops import (
    AlertManager,
    AlertRule,
    FileNotifier,
    default_alert_rules,
    flatten_metrics,
)


class FakeClock:
    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now


class TestAlertRule:
    def test_unknown_operator_rejected(self):
        with pytest.raises(ReproError, match="unknown operator"):
            AlertRule("r", "m", "~", 1.0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ReproError, match="mode"):
            AlertRule("r", "m", ">", 1.0, mode="rate")

    def test_negative_for_duration_rejected(self):
        with pytest.raises(ReproError, match="for_seconds"):
            AlertRule("r", "m", ">", 1.0, for_seconds=-1.0)

    def test_breached_applies_operator(self):
        rule = AlertRule("r", "m", ">=", 2.0)
        assert rule.breached(2.0)
        assert not rule.breached(1.9)

    def test_from_dict_roundtrip(self):
        rule = AlertRule(
            "r", "m{op=vote}", "<", 3.0, for_seconds=5.0,
            severity="critical", mode="delta", description="d",
        )
        assert AlertRule.from_dict(rule.to_dict()) == rule

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ReproError, match="unknown fields.*expr"):
            AlertRule.from_dict(
                {"name": "r", "metric": "m", "op": ">", "threshold": 1,
                 "expr": "m > 1"}
            )

    def test_from_dict_requires_core_fields(self):
        with pytest.raises(ReproError, match="missing 'threshold'"):
            AlertRule.from_dict({"name": "r", "metric": "m", "op": ">"})


class TestLifecycle:
    def test_fires_immediately_without_for_duration(self):
        manager = AlertManager(
            [AlertRule("r", "m", ">", 1.0)], notifiers=[], clock=FakeClock()
        )
        transitions = manager.evaluate({"m": 2.0})
        assert [(a.rule.name, t) for a, t in transitions] == [("r", "firing")]
        assert manager.alerts[0].state == "firing"

    def test_for_duration_holds_pending_then_fires(self):
        clock = FakeClock()
        manager = AlertManager(
            [AlertRule("r", "m", ">", 1.0, for_seconds=10.0)],
            notifiers=[], clock=clock,
        )
        assert manager.evaluate({"m": 2.0}) == []
        assert manager.alerts[0].state == "pending"
        clock.now = 5.0
        assert manager.evaluate({"m": 2.0}) == []
        clock.now = 10.0
        transitions = manager.evaluate({"m": 2.0})
        assert [t for _, t in transitions] == ["firing"]

    def test_pending_rearms_silently_on_a_clear_tick(self):
        clock = FakeClock()
        manager = AlertManager(
            [AlertRule("r", "m", ">", 1.0, for_seconds=10.0)],
            notifiers=[], clock=clock,
        )
        manager.evaluate({"m": 2.0})
        clock.now = 8.0
        assert manager.evaluate({"m": 0.5}) == []  # hysteresis reset
        assert manager.alerts[0].state == "inactive"
        # The breach must now hold for the full duration again.
        clock.now = 9.0
        manager.evaluate({"m": 2.0})
        clock.now = 18.0
        assert manager.alerts[0].state == "pending"
        assert manager.evaluate({"m": 2.0}) == []
        clock.now = 19.0
        assert [t for _, t in manager.evaluate({"m": 2.0})] == ["firing"]

    def test_firing_resolves_and_can_refire(self):
        manager = AlertManager(
            [AlertRule("r", "m", ">", 1.0)], notifiers=[], clock=FakeClock()
        )
        manager.evaluate({"m": 2.0})
        transitions = manager.evaluate({"m": 0.0})
        assert [t for _, t in transitions] == ["resolved"]
        assert manager.alerts[0].state == "resolved"
        assert [t for _, t in manager.evaluate({"m": 3.0})] == ["firing"]

    def test_missing_metric_is_not_a_breach(self):
        manager = AlertManager(
            [AlertRule("r", "m", ">", 1.0)], notifiers=[], clock=FakeClock()
        )
        assert manager.evaluate({}) == []
        assert manager.alerts[0].state == "inactive"
        # ... and it clears a firing alert rather than wedging it.
        manager.evaluate({"m": 2.0})
        assert [t for _, t in manager.evaluate({})] == ["resolved"]

    def test_delta_mode_tracks_per_tick_increase(self):
        manager = AlertManager(
            [AlertRule("r", "c_total", ">", 0.0, mode="delta")],
            notifiers=[], clock=FakeClock(),
        )
        # First sample only establishes the baseline.
        assert manager.evaluate({"c_total": 5.0}) == []
        # Counter moves: fires.
        assert [t for _, t in manager.evaluate({"c_total": 7.0})] == ["firing"]
        assert manager.alerts[0].last_observed == 2.0
        # Counter stops moving: resolves even though the value stays high.
        assert [t for _, t in manager.evaluate({"c_total": 7.0})] == ["resolved"]

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ReproError, match="unique"):
            AlertManager(
                [AlertRule("r", "m", ">", 1.0), AlertRule("r", "n", "<", 1.0)]
            )

    def test_firing_by_severity_counts(self):
        manager = AlertManager(
            [
                AlertRule("a", "m", ">", 1.0, severity="critical"),
                AlertRule("b", "n", ">", 1.0, severity="warning"),
                AlertRule("c", "o", ">", 1.0, severity="warning"),
            ],
            notifiers=[], clock=FakeClock(),
        )
        manager.evaluate({"m": 2.0, "n": 2.0, "o": 0.0})
        assert manager.firing_by_severity() == {"critical": 1, "warning": 1}


class TestNotifiers:
    def test_transitions_fan_out_to_notifiers(self):
        seen = []
        manager = AlertManager(
            [AlertRule("r", "m", ">", 1.0)],
            notifiers=[lambda alert, transition: seen.append(
                (alert.rule.name, transition)
            )],
            clock=FakeClock(),
        )
        manager.evaluate({"m": 2.0})
        manager.evaluate({"m": 0.0})
        assert seen == [("r", "firing"), ("r", "resolved")]

    def test_raising_notifier_does_not_break_evaluation(self):
        def explode(alert, transition):
            raise RuntimeError("pager down")

        seen = []
        manager = AlertManager(
            [AlertRule("r", "m", ">", 1.0)],
            notifiers=[explode, lambda a, t: seen.append(t)],
            clock=FakeClock(),
        )
        transitions = manager.evaluate({"m": 2.0})
        assert [t for _, t in transitions] == ["firing"]
        assert seen == ["firing"]  # the healthy notifier still ran

    def test_file_notifier_appends_json_lines(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        manager = AlertManager(
            [AlertRule("r", "m", ">", 1.0)],
            notifiers=[FileNotifier(path)], clock=FakeClock(),
        )
        manager.evaluate({"m": 2.0})
        manager.evaluate({"m": 0.0})
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["transition"] for r in records] == ["firing", "resolved"]
        assert records[0]["alert"]["rule"]["name"] == "r"


class TestDefaultRules:
    def test_counter_rules_use_delta_mode(self):
        rules = default_alert_rules()
        assert {r.name for r in rules} == {
            "replica-disagreement", "ingest-backpressure"
        }
        assert all(r.mode == "delta" for r in rules)

    def test_expected_backends_arms_shards_down(self):
        rules = default_alert_rules(3)
        assert rules[0].name == "shards-down"
        assert rules[0].severity == "critical"
        assert rules[0].metric == "cluster_backends_alive"
        assert rules[0].threshold == 3.0
        assert rules[0].mode == "value"


class TestLiveFiring:
    def test_replica_disagreement_rule_fires_and_resolves(self):
        """Inject a real replica divergence; the stock rule must fire.

        One replica is pre-voted directly with skewed values, so when
        the gateway fans the round out its replay cache answers with
        the skewed result while the other replica computes the true
        one — a genuine disagreement, counted by the gateway.  The
        delta rule fires on that tick and resolves on the next clean
        one.
        """
        from repro.cluster.supervisor import FusionCluster
        from repro.service.client import VoterClient
        from repro.vdx.examples import AVOC_SPEC

        rule = next(
            r for r in default_alert_rules()
            if r.name == "replica-disagreement"
        )
        manager = AlertManager([rule], notifiers=[])

        def tick(gateway):
            return manager.evaluate(flatten_metrics(gateway.registry.snapshot()))

        with FusionCluster(
            AVOC_SPEC, n_shards=2, replicas=2, mode="thread",
            auto_restart=False,
        ) as cluster:
            with cluster.client() as client:
                series = "diverge"
                modules = ["E1", "E2", "E3"]
                tick(cluster.gateway)  # baseline sample
                victim = client.route(series)["replicas"][0]
                skewed = dict(zip(modules, [99.0, 99.5, 98.5]))
                with VoterClient(*cluster.backends[victim].address) as direct:
                    direct.vote(0, skewed, series=series)
                client.vote(
                    0, dict(zip(modules, [18.0, 18.1, 17.9])), series=series
                )
                transitions = tick(cluster.gateway)
                assert [t for _, t in transitions] == ["firing"]
                # The disagreement log names the round and the victim,
                # with the skewed answer it gave.
                (entry,) = client.cluster_stats()["recent_disagreements"]
                assert (entry["series"], entry["round"]) == (series, 0)
                assert set(entry["answers"]) == set(
                    client.route(series)["replicas"]
                )
                assert entry["answers"][victim]["value"] > 90.0
                others = [
                    answer for bid, answer in entry["answers"].items()
                    if bid != victim
                ]
                assert all(a["value"] < 20.0 for a in others)
                # No further divergence: the counter stops moving and
                # the alert resolves instead of wedging firing forever.
                client.vote(
                    1, dict(zip(modules, [18.0, 18.1, 17.9])), series=series
                )
                transitions = tick(cluster.gateway)
                assert [t for _, t in transitions] == ["resolved"]
