"""Engine-layer instrumentation: counters, reasons, zero-cost disable."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fusion.engine import FusionEngine
from repro.fusion.faults import FaultPolicy
from repro.fusion.quorum import QuorumRule
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.types import Round
from repro.voting.registry import create_voter


def _counter_value(registry, name, **labels):
    family = registry.families()[name]
    return family.labels(*labels.values()).value


class TestProcessInstrumentation:
    def test_rounds_counter_tracks_processed(self):
        registry = MetricsRegistry()
        engine = FusionEngine(
            create_voter("average"), roster=["E1", "E2", "E3"],
            registry=registry,
        )
        for number in range(4):
            engine.process(Round.from_values(number, [1.0, 1.1, 0.9]))
        assert _counter_value(
            registry, "fusion_rounds_total", algorithm="average"
        ) == 4
        assert engine.rounds_processed == 4

    def test_degraded_counter_on_quorum_failure(self):
        """A round below quorum increments the quorum-reason counter."""
        registry = MetricsRegistry()
        engine = FusionEngine(
            create_voter("average"),
            roster=["E1", "E2", "E3", "E4"],
            quorum=QuorumRule(mode="UNTIL", percentage=75.0),
            fault_policy=FaultPolicy(
                on_quorum_failure="skip", missing_tolerance=0.9
            ),
            registry=registry,
        )
        result = engine.process(
            Round.from_mapping(0, {"E1": 1.0, "E2": 1.1, "E3": None, "E4": None})
        )
        assert result.status == "skipped"
        degraded = registry.families()["fusion_rounds_degraded_total"]
        assert degraded.labels("average", "quorum").value == 1
        assert _counter_value(
            registry, "fusion_quorum_failures_total", algorithm="average"
        ) == 1

    def test_round_latency_histogram_observes_each_round(self):
        registry = MetricsRegistry()
        engine = FusionEngine(
            create_voter("avoc"), roster=["E1", "E2", "E3"], registry=registry
        )
        for number in range(3):
            engine.process(Round.from_values(number, [1.0, 1.1, 0.9]))
        histogram = registry.families()["fusion_round_seconds"]
        child = histogram.labels("avoc")
        assert child.count == 3
        assert child.sum > 0.0

    def test_history_summary_gauges_follow_the_records(self):
        registry = MetricsRegistry()
        engine = FusionEngine(
            create_voter("avoc"), roster=["E1", "E2", "E3"], registry=registry
        )
        engine.process(Round.from_values(0, [1.0, 1.1, 25.0]))
        engine.process(Round.from_values(1, [1.0, 1.1, 25.0]))
        summary = registry.families()["fusion_history_record"]
        records = engine.voter.history.snapshot().values()
        assert summary.labels("avoc", "min").value == pytest.approx(min(records))
        assert summary.labels("avoc", "max").value == pytest.approx(max(records))
        assert summary.labels("avoc", "mean").value == pytest.approx(
            sum(records) / len(records)
        )


class TestBatchInstrumentation:
    def test_batch_counters_match_per_round_counters(self):
        """The kernel path and the legacy loop agree on every counter."""
        rng = np.random.default_rng(7)
        matrix = 18.0 + 0.1 * rng.standard_normal((50, 4))
        matrix[::7, 1:] = np.nan  # degraded rounds (majority missing)
        modules = ["E1", "E2", "E3", "E4"]

        loop_registry = MetricsRegistry()
        loop_engine = FusionEngine(
            create_voter("avoc"), roster=modules, registry=loop_registry
        )
        for number, row in enumerate(matrix):
            loop_engine.process(
                Round.from_mapping(
                    number,
                    {
                        m: (None if np.isnan(v) else float(v))
                        for m, v in zip(modules, row)
                    },
                )
            )

        batch_registry = MetricsRegistry()
        batch_engine = FusionEngine(
            create_voter("avoc"), roster=modules, registry=batch_registry
        )
        batch_engine.process_batch(matrix, modules)

        for name in ("fusion_rounds_total", "fusion_quorum_failures_total"):
            assert _counter_value(
                batch_registry, name, algorithm="avoc"
            ) == _counter_value(loop_registry, name, algorithm="avoc")
        loop_degraded = loop_registry.families()["fusion_rounds_degraded_total"]
        batch_degraded = batch_registry.families()[
            "fusion_rounds_degraded_total"
        ]
        for reason in ("majority_missing", "quorum", "conflict", "empty"):
            assert (
                batch_degraded.labels("avoc", reason).value
                == loop_degraded.labels("avoc", reason).value
            )

    def test_batch_raise_policy_still_counts_the_rejected_round(self):
        registry = MetricsRegistry()
        engine = FusionEngine(
            create_voter("average"),
            roster=["E1", "E2"],
            fault_policy=FaultPolicy(on_missing_majority="raise"),
            registry=registry,
        )
        matrix = np.asarray([[1.0, 1.1], [np.nan, np.nan], [2.0, 2.1]])
        with pytest.raises(Exception):
            engine.process_batch(matrix, ["E1", "E2"])
        assert _counter_value(
            registry, "fusion_rounds_total", algorithm="average"
        ) == 2  # one voted + the rejected one, like the per-round loop
        degraded = registry.families()["fusion_rounds_degraded_total"]
        assert degraded.labels("average", "majority_missing").value == 1

    def test_batch_latency_histogram_observes_once_per_batch(self):
        registry = MetricsRegistry()
        engine = FusionEngine(create_voter("median"), registry=registry)
        engine.process_batch(np.ones((10, 3)), ["E1", "E2", "E3"])
        engine.process_batch(np.ones((5, 3)), ["E1", "E2", "E3"])
        child = registry.families()["fusion_batch_seconds"].labels("median")
        assert child.count == 2
        assert _counter_value(
            registry, "fusion_batch_rounds_total", algorithm="median"
        ) == 15


class TestFallbackInstrumentation:
    """Every batch round sent down the per-round loop is counted."""

    MATRIX = np.asarray([[1.0, 1.1, 0.9], [1.2, 1.0, 1.1], [0.9, 1.0, 1.0]])

    def _fallbacks(self, registry, algorithm):
        family = registry.families()["fusion_fallback_rounds_total"]
        return {
            reason: family.labels(algorithm, reason).value
            for reason in ("voter", "exclusion", "modules", "single_round")
        }

    def test_voter_without_kernel(self):
        registry = MetricsRegistry()
        voter = create_voter("avoc")
        voter = create_voter(
            "avoc",
            params=voter.params.with_overrides(collation="WEIGHTED_MAJORITY"),
        )
        engine = FusionEngine(voter, registry=registry)
        engine.process_batch(self.MATRIX, ["E1", "E2", "E3"])
        assert self._fallbacks(registry, "avoc") == {
            "voter": 3, "exclusion": 0, "modules": 0, "single_round": 0,
        }

    def test_exclusion_rule(self):
        registry = MetricsRegistry()
        engine = FusionEngine(
            create_voter("median"), exclusion="DEVIATION",
            exclusion_threshold=2.0, registry=registry,
        )
        engine.process_batch(self.MATRIX, ["E1", "E2", "E3"])
        assert self._fallbacks(registry, "median")["exclusion"] == 3

    @pytest.mark.parametrize(
        "modules, matrix",
        [(["E1", "E1", "E2"], MATRIX), ([], np.zeros((3, 0)))],
        ids=("duplicate", "empty"),
    )
    def test_duplicate_or_empty_module_names(self, modules, matrix):
        registry = MetricsRegistry()
        engine = FusionEngine(create_voter("median"), registry=registry)
        engine.process_batch(matrix, modules)
        assert self._fallbacks(registry, "median")["modules"] == 3

    def test_single_round_batch(self):
        registry = MetricsRegistry()
        engine = FusionEngine(create_voter("avoc"), registry=registry)
        engine.process_batch(self.MATRIX[:1], ["E1", "E2", "E3"])
        engine.process_batch(self.MATRIX, ["E1", "E2", "E3"])
        assert self._fallbacks(registry, "avoc") == {
            "voter": 0, "exclusion": 0, "modules": 0, "single_round": 1,
        }
        assert _counter_value(
            registry, "fusion_batch_rounds_total", algorithm="avoc"
        ) == 3


class TestDisabledInstrumentation:
    def test_null_registry_records_nothing_and_changes_nothing(self):
        engine = FusionEngine(
            create_voter("avoc"), roster=["E1", "E2", "E3"],
            registry=NULL_REGISTRY,
        )
        engine.process(Round.from_values(0, [1.0, 1.1, 0.9]))
        batch = engine.process_batch(
            np.asarray([[1.0, 1.1, 0.9]]), ["E1", "E2", "E3"]
        )
        assert batch.n_rounds == 1
        assert engine.rounds_processed == 2
        assert NULL_REGISTRY.render() == ""

    def test_disabled_and_enabled_engines_fuse_identically(self):
        rng = np.random.default_rng(3)
        matrix = 18.0 + 0.1 * rng.standard_normal((200, 5))
        enabled = FusionEngine(
            create_voter("avoc"), registry=MetricsRegistry()
        ).process_batch(matrix)
        disabled = FusionEngine(
            create_voter("avoc"), registry=NULL_REGISTRY
        ).process_batch(matrix)
        np.testing.assert_array_equal(enabled.values, disabled.values)
