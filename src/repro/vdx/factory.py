"""Instantiate voters (and fusion engines) from VDX specifications.

This is the "parsing logic" half of the VDX contribution: a validated
:class:`~repro.vdx.spec.VotingSpec` is mapped onto the algorithm zoo —
the paper's stated goal of "shielding software engineers from the voting
implementation".
"""

from __future__ import annotations

from typing import Optional

from ..exceptions import SpecificationError
from ..voting.avoc import AvocVoter
from ..voting.base import Voter, VoterParams
from ..voting.categorical import CategoricalMajorityVoter
from ..voting.clustering_voter import ClusteringOnlyVoter
from ..voting.hybrid import HybridVoter
from ..voting.incoherence import IncoherenceMaskingVoter
from ..voting.module_elimination import ModuleEliminationVoter
from ..voting.probabilistic import ProbabilisticSymbolVoter
from ..voting.soft_dynamic import SoftDynamicThresholdVoter
from ..voting.standard import StandardVoter
from ..voting.stateless import CollationVoter
from .spec import VotingSpec

_CATEGORICAL_HISTORY = {"NONE": "none", "STANDARD": "standard", "ME": "me"}


def _voter_params(
    spec: VotingSpec, elimination: str, base: Optional[VoterParams] = None
) -> VoterParams:
    """Spec params layered over the algorithm's own defaults.

    A VDX document only has to state what it wants to change; history
    policy and learning rate fall back to the target algorithm's
    defaults (e.g. the Standard voter's slow EMA) unless the document
    pins them explicitly.

    The spec's quorum is *not* baked into the voter: the engine-level
    :class:`~repro.fusion.quorum.QuorumRule` built by
    :meth:`FusionEngine.from_spec` is the single enforcement point.
    """
    base = base or VoterParams()
    explicit = spec.params
    return VoterParams(
        error=spec.error,
        soft_threshold=spec.soft_threshold,
        history_policy=str(explicit["history_policy"])
        if "history_policy" in explicit and explicit["history_policy"] is not None
        else base.history_policy,
        reward=float(explicit.get("reward", base.reward)),
        penalty=float(explicit.get("penalty", base.penalty)),
        learning_rate=float(explicit.get("learning_rate", base.learning_rate)),
        elimination=elimination,
        elimination_threshold=base.elimination_threshold,
        collation=spec.collation,
        bootstrap_mode="auto" if spec.bootstrapping else "never",
    )


def build_voter(spec: VotingSpec, history_store=None) -> Voter:
    """Build the voter a VDX specification describes.

    Args:
        spec: a validated voting specification.
        history_store: optional per-series store view
            (:meth:`~repro.history.TieredHistoryStore.store_for`)
            forwarded to history-aware voters.

    Raises:
        SpecificationError: when the spec encodes a combination the
            algorithm zoo cannot realise (defensive; validation should
            have caught it).
    """
    if spec.is_categorical:
        if spec.collation == "PROBABILISTIC_MAJORITY":
            return ProbabilisticSymbolVoter(
                history_mode=_CATEGORICAL_HISTORY[spec.history],
                prior_strength=float(spec.params.get("prior_strength", 1.0)),
                smoothing=float(spec.params.get("prior_smoothing", 1.0)),
                prior_decay=float(spec.params.get("prior_decay", 0.05)),
                reward=float(spec.params.get("reward", 0.1)),
                penalty=float(spec.params.get("penalty", 0.2)),
                policy=str(spec.params.get("history_policy", "additive")),
            )
        return CategoricalMajorityVoter(
            history_mode=_CATEGORICAL_HISTORY[spec.history],
            reward=float(spec.params.get("reward", 0.1)),
            penalty=float(spec.params.get("penalty", 0.2)),
            policy=str(spec.params.get("history_policy", "additive")),
        )

    if spec.history == "INCOHERENCE":
        # No HistoryRecords: the score table is the whole state, so a
        # persistent history store does not apply here.
        params = _voter_params(
            spec,
            elimination="none",
            base=IncoherenceMaskingVoter.default_params(),
        )
        return IncoherenceMaskingVoter(
            params=params,
            rise=float(spec.params.get("incoherence_rise", 0.35)),
            decay=float(spec.params.get("incoherence_decay", 0.1)),
            mask_threshold=float(spec.params.get("mask_threshold", 1.0)),
            rejoin_threshold=float(spec.params.get("rejoin_threshold", 0.25)),
            score_cap=float(spec.params.get("score_cap", 2.0)),
        )

    if spec.history == "NONE":
        if spec.bootstrapping:
            # Clustering as the entire vote: clustering-only voting.
            params = _voter_params(spec, elimination="none")
            return ClusteringOnlyVoter(params=params)
        return CollationVoter(spec.collation)

    # History-aware voters: layer spec params over algorithm defaults.

    if spec.history == "STANDARD":
        cls, elimination = StandardVoter, "none"
    elif spec.history == "ME":
        cls, elimination = ModuleEliminationVoter, "mean"
    elif spec.history == "SDT":
        cls, elimination = SoftDynamicThresholdVoter, "none"
    elif spec.history == "HYBRID":
        cls = AvocVoter if spec.bootstrapping else HybridVoter
        elimination = "fixed"
    else:  # pragma: no cover - validation rejects unknown modes
        raise SpecificationError([f"unsupported history mode {spec.history!r}"])

    params = _voter_params(spec, elimination=elimination, base=cls.default_params())
    return cls(params=params, history_store=history_store)


def build_engine(spec: VotingSpec, history_store=None, fault_policy=None,
                 registry=None):
    """Build a :class:`~repro.fusion.engine.FusionEngine` from a spec.

    The engine layers VDX's pre-vote value exclusion and the fault
    policies of §7 (missing values, conflicts) around the voter.  An
    explicit ``fault_policy`` argument wins; otherwise the document's
    ``fault_policy`` object (the VDX 1.1 extension) applies, falling
    back to engine defaults when neither is given.  ``registry``
    selects the metrics registry the engine instruments against.
    """
    from ..fusion.engine import FusionEngine  # local import: fusion uses voting

    voter = build_voter(spec, history_store=history_store)
    if fault_policy is None:
        fault_policy = spec.build_fault_policy()
    return FusionEngine.from_spec(
        spec, voter, fault_policy=fault_policy, registry=registry
    )
