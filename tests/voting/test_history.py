"""Tests for per-module history records."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.history import MemoryStateStore, TieredHistoryStore
from repro.voting.history import HistoryRecords


class TestConstruction:
    def test_defaults(self):
        records = HistoryRecords()
        assert records.get("anything") == 1.0
        assert records.update_count == 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            HistoryRecords(policy="bogus")

    def test_bad_initial_rejected(self):
        with pytest.raises(ConfigurationError):
            HistoryRecords(initial=1.5)

    def test_negative_reward_rejected(self):
        with pytest.raises(ConfigurationError):
            HistoryRecords(reward=-0.1)

    def test_bad_learning_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            HistoryRecords(policy="ema", learning_rate=0.0)


class TestAdditivePolicy:
    def test_full_agreement_rewards(self):
        records = HistoryRecords(policy="additive", reward=0.1, penalty=0.2,
                                 initial=0.5)
        records.update({"a": 1.0})
        assert records.get("a") == pytest.approx(0.6)

    def test_full_disagreement_penalises(self):
        records = HistoryRecords(policy="additive", reward=0.1, penalty=0.2)
        records.update({"a": 0.0})
        assert records.get("a") == pytest.approx(0.8)

    def test_clamped_to_unit_interval(self):
        records = HistoryRecords(policy="additive", reward=0.5, penalty=0.5)
        records.update({"a": 1.0})
        assert records.get("a") == 1.0
        for _ in range(10):
            records.update({"a": 0.0})
        assert records.get("a") == 0.0

    def test_partial_score_mixes_reward_and_penalty(self):
        records = HistoryRecords(policy="additive", reward=0.1, penalty=0.2,
                                 initial=0.5)
        records.update({"a": 0.5})
        # delta = 0.1*0.5 - 0.2*0.5 = -0.05
        assert records.get("a") == pytest.approx(0.45)


class TestEmaPolicy:
    def test_moves_toward_score(self):
        records = HistoryRecords(policy="ema", learning_rate=0.5)
        records.update({"a": 0.0})
        assert records.get("a") == pytest.approx(0.5)
        records.update({"a": 0.0})
        assert records.get("a") == pytest.approx(0.25)

    def test_stays_at_extreme_when_agreeing(self):
        records = HistoryRecords(policy="ema", learning_rate=0.3)
        records.update({"a": 1.0})
        assert records.get("a") == 1.0


class TestUpdateSemantics:
    def test_absent_modules_untouched(self):
        records = HistoryRecords(policy="ema", learning_rate=0.5)
        records.update({"a": 0.0, "b": 1.0})
        before = records.get("b")
        records.update({"a": 0.0})
        assert records.get("b") == before

    def test_scores_clamped(self):
        records = HistoryRecords(policy="ema", learning_rate=1.0)
        records.update({"a": 5.0})
        assert records.get("a") == 1.0
        records.update({"a": -3.0})
        assert records.get("a") == 0.0

    def test_update_count_increments(self):
        records = HistoryRecords()
        records.update({"a": 1.0})
        records.update({"a": 1.0})
        assert records.update_count == 2

    def test_seed_overwrites(self):
        records = HistoryRecords()
        records.seed({"a": 0.0, "b": 1.0})
        assert records.get("a") == 0.0
        assert records.update_count == 1

    def test_seed_without_counting(self):
        records = HistoryRecords()
        records.seed({"a": 0.3}, count_as_update=False)
        assert records.update_count == 0

    def test_reset(self):
        records = HistoryRecords()
        records.update({"a": 0.0})
        records.reset()
        assert records.get("a") == 1.0
        assert records.update_count == 0
        assert len(records) == 0


class TestPredicates:
    def test_all_fresh(self):
        records = HistoryRecords()
        assert records.all_fresh(["a", "b"])
        records.update({"a": 0.0})
        assert not records.all_fresh(["a", "b"])

    def test_all_failed(self):
        records = HistoryRecords(policy="additive", penalty=1.0)
        records.update({"a": 0.0, "b": 0.0})
        assert records.all_failed(["a", "b"])
        assert not records.all_failed(["a", "b", "c"])  # c is fresh at 1.0

    def test_all_failed_empty_is_false(self):
        assert not HistoryRecords().all_failed([])

    def test_all_failed_tolerance(self):
        records = HistoryRecords()
        records.seed({"a": 0.005})
        assert records.all_failed(["a"], tolerance=0.01)
        assert not records.all_failed(["a"], tolerance=0.001)


class TestWeightsAndElimination:
    def test_weights_are_records(self):
        records = HistoryRecords()
        records.seed({"a": 0.2, "b": 0.9})
        assert records.weights(["a", "b", "c"]) == {"a": 0.2, "b": 0.9, "c": 1.0}

    def test_below_mean(self):
        records = HistoryRecords()
        records.seed({"a": 1.0, "b": 1.0, "c": 0.1})
        assert records.below_mean(["a", "b", "c"]) == ("c",)

    def test_below_mean_equal_records_eliminates_nobody(self):
        records = HistoryRecords()
        assert records.below_mean(["a", "b", "c"]) == ()

    def test_below_mean_empty(self):
        assert HistoryRecords().below_mean([]) == ()


class TestStoreIntegration:
    def test_writes_through_and_reloads(self):
        store = TieredHistoryStore(MemoryStateStore()).store_for("s")
        records = HistoryRecords(store=store)
        records.update({"a": 0.0})
        # A second HistoryRecords attached to the same store sees state.
        revived = HistoryRecords(store=store)
        assert revived.get("a") == records.get("a")
        assert revived.update_count == records.update_count

    def test_ensure_materialises_without_saving_values(self):
        records = HistoryRecords()
        records.ensure(["a", "b"])
        assert "a" in records
        assert records.get("a") == 1.0
