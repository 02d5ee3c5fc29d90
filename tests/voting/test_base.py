"""Tests for VoterParams validation and the shared voter pipeline."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, EmptyRoundError
from repro.types import Round
from repro.voting.base import VoterParams
from repro.voting.standard import StandardVoter


class TestVoterParamsValidation:
    def test_defaults_are_valid(self):
        VoterParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"error": 0.0},
            {"error": -0.1},
            {"soft_threshold": 0.5},
            {"min_margin": -1.0},
            {"history_policy": "magic"},
            {"elimination": "sometimes"},
            {"elimination_threshold": 1.5},
            {"collation": "MODE"},
            {"learning_rate": 0.0},
            {"bootstrap_mode": "maybe"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            VoterParams(**kwargs)

    def test_with_overrides_returns_new_instance(self):
        params = VoterParams()
        changed = params.with_overrides(error=0.1)
        assert changed.error == 0.1
        assert params.error == 0.05

    def test_with_overrides_validates(self):
        with pytest.raises(ConfigurationError):
            VoterParams().with_overrides(error=-1.0)


class TestPipelineBasics:
    def test_vote_values_convenience(self):
        voter = StandardVoter()
        outcome = voter.vote_values([18.0, 18.1, 17.9])
        assert outcome.value == pytest.approx(18.0, abs=0.1)

    def test_run_processes_in_order(self):
        voter = StandardVoter()
        rounds = [Round.from_values(i, [1.0, 1.0]) for i in range(3)]
        outcomes = voter.run(rounds)
        assert [o.round_number for o in outcomes] == [0, 1, 2]

    def test_empty_round_raises(self):
        voter = StandardVoter()
        with pytest.raises(EmptyRoundError):
            voter.vote(Round.from_mapping(0, {"a": None}))

    def test_missing_values_are_skipped_not_zeroed(self):
        voter = StandardVoter()
        outcome = voter.vote(Round.from_mapping(0, {"a": 10.0, "b": None, "c": 10.2}))
        assert outcome.value == pytest.approx(10.1)
        assert "b" not in outcome.agreement

    def test_outcome_exposes_history_and_agreement(self):
        voter = StandardVoter()
        outcome = voter.vote_values([5.0, 5.0, 50.0])
        assert set(outcome.history) == {"E1", "E2", "E3"}
        assert outcome.agreement["E3"] == 0.0

    def test_reset_restores_fresh_history(self):
        voter = StandardVoter()
        voter.vote_values([1.0, 1.0, 99.0])
        voter.reset()
        assert voter.history.all_fresh(["E1", "E2", "E3"])


class TestEliminationModes:
    def test_fixed_threshold(self):
        params = StandardVoter.default_params().with_overrides(
            elimination="fixed", elimination_threshold=0.5
        )

        class Eliminating(StandardVoter):
            eliminates = True

        voter = Eliminating(params=params)
        voter.history.seed({"E1": 0.4, "E2": 1.0, "E3": 1.0}, count_as_update=False)
        outcome = voter.vote_values([10.0, 10.0, 10.0])
        assert outcome.eliminated == ("E1",)
        assert outcome.weights["E1"] == 0.0

    def test_elimination_none_keeps_everyone(self):
        voter = StandardVoter()  # elimination="none"
        voter.history.seed({"E1": 0.0}, count_as_update=False)
        outcome = voter.vote_values([10.0, 10.0, 10.0])
        assert outcome.eliminated == ("E1",)  # zero weight via record
        # but that is from the record value, not the elimination rule:
        assert outcome.weights["E2"] == 1.0
