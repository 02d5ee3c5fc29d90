"""Tests for building voters and engines from VDX specifications."""

from __future__ import annotations

import pytest

from repro.history import MemoryStateStore, TieredHistoryStore
from repro.types import Round
from repro.vdx.examples import (
    AVOC_SPEC,
    CATEGORICAL_SPEC,
    CLUSTERING_SPEC,
    HYBRID_SPEC,
    ME_SPEC,
    SDT_SPEC,
    STANDARD_SPEC,
    STATELESS_MEAN_SPEC,
)
from repro.vdx.factory import build_engine, build_voter
from repro.vdx.spec import VotingSpec
from repro.voting.avoc import AvocVoter
from repro.voting.categorical import CategoricalMajorityVoter
from repro.voting.clustering_voter import ClusteringOnlyVoter
from repro.voting.hybrid import HybridVoter
from repro.voting.module_elimination import ModuleEliminationVoter
from repro.voting.soft_dynamic import SoftDynamicThresholdVoter
from repro.voting.standard import StandardVoter
from repro.voting.stateless import CollationVoter


class TestVoterMapping:
    @pytest.mark.parametrize(
        "spec,cls",
        [
            (AVOC_SPEC, AvocVoter),
            (HYBRID_SPEC, HybridVoter),
            (STANDARD_SPEC, StandardVoter),
            (ME_SPEC, ModuleEliminationVoter),
            (SDT_SPEC, SoftDynamicThresholdVoter),
            (CLUSTERING_SPEC, ClusteringOnlyVoter),
            (STATELESS_MEAN_SPEC, CollationVoter),
            (CATEGORICAL_SPEC, CategoricalMajorityVoter),
        ],
    )
    def test_spec_builds_expected_class(self, spec, cls):
        assert isinstance(build_voter(spec), cls)

    def test_spec_params_override_defaults(self):
        spec = AVOC_SPEC.with_overrides(params={"error": 0.12})
        voter = build_voter(spec)
        assert voter.params.error == 0.12

    def test_unpinned_params_fall_back_to_algorithm_defaults(self):
        # Listing 1 does not pin a learning rate; the built AVOC voter
        # must use AvocVoter's own default, not the schema default.
        voter = build_voter(AVOC_SPEC)
        assert voter.params.learning_rate == AvocVoter.default_params().learning_rate

    def test_quorum_left_to_engine(self):
        # The spec's quorum is no longer baked into the voter params —
        # the engine-level QuorumRule is the single enforcement point.
        engine = build_engine(AVOC_SPEC)
        assert engine.quorum.mode == AVOC_SPEC.quorum
        assert engine.quorum.percentage == AVOC_SPEC.quorum_percentage

    def test_history_store_forwarded(self):
        store = TieredHistoryStore(MemoryStateStore())
        voter = build_voter(STANDARD_SPEC, history_store=store.store_for("s"))
        voter.vote_values([1.0, 1.0, 5.0])
        assert store.writebacks == 1

    def test_categorical_history_mode_mapping(self):
        voter = build_voter(CATEGORICAL_SPEC)
        assert voter.history_mode == "me"

    def test_built_avoc_behaves_like_paper(self):
        voter = build_voter(AVOC_SPEC)
        outcome = voter.vote(Round.from_values(0, [18.0, 18.1, 17.9, 24.0, 18.05]))
        assert outcome.used_bootstrap
        assert "E4" in outcome.eliminated


class TestEngineBuilding:
    def test_engine_wires_quorum_and_exclusion(self):
        spec = VotingSpec.from_dict(
            {
                "algorithm_name": "pruned",
                "quorum": "UNTIL",
                "quorum_percentage": 60,
                "exclusion": "DEVIATION",
                "exclusion_threshold": 2.0,
                "history": "STANDARD",
                "collation": "MEAN",
            }
        )
        engine = build_engine(spec)
        assert engine.quorum.mode == "UNTIL"
        assert engine.quorum.percentage == 60
        assert engine.exclusion == "DEVIATION"

    def test_engine_processes_rounds(self):
        engine = build_engine(AVOC_SPEC)
        result = engine.process(Round.from_values(0, [1.0, 1.0, 1.0]))
        assert result.ok
        assert result.value == 1.0
