"""Tests for the Maximum-Likelihood Voting extension."""

from __future__ import annotations

import pytest

from repro.voting.mlv import MaximumLikelihoodVoter


class TestGroupSelection:
    def test_majority_group_wins_with_fresh_records(self):
        voter = MaximumLikelihoodVoter()
        outcome = voter.vote_values([10.0, 10.1, 9.9, 20.0])
        assert outcome.value == pytest.approx(10.0, abs=0.1)
        assert "E4" in outcome.eliminated

    def test_reliability_can_flip_group_choice(self):
        # Two groups of two; the group whose members have much higher
        # records should win despite the tie in size.
        voter = MaximumLikelihoodVoter()
        voter.history.seed(
            {"E1": 0.95, "E2": 0.95, "E3": 0.05, "E4": 0.05},
            count_as_update=False,
        )
        outcome = voter.vote_values([10.0, 10.1, 20.0, 20.1])
        assert outcome.value == pytest.approx(10.05, abs=0.1)

    def test_log_likelihood_reported(self):
        outcome = MaximumLikelihoodVoter().vote_values([1.0, 1.0, 5.0])
        assert outcome.diagnostics["log_likelihood"] < 0

    def test_history_updates_like_other_voters(self):
        voter = MaximumLikelihoodVoter()
        voter.vote_values([1.0, 1.0, 5.0])
        assert voter.history.get("E3") < voter.history.get("E1")

    def test_reliability_floor_keeps_likelihood_finite(self):
        voter = MaximumLikelihoodVoter()
        voter.history.seed({"E1": 0.0, "E2": 0.0, "E3": 1.0}, count_as_update=False)
        outcome = voter.vote_values([1.0, 1.0, 1.0])
        assert outcome.value == 1.0  # no math domain errors
