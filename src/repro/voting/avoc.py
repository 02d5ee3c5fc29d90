"""AVOC: Accurate Voting with Clustering — the paper's contribution (§5).

AVOC builds atop the Hybrid voter.  History-based voters normally fall
back to a plain average while no usable history exists, which lets a
faulty module skew the first rounds (the startup spike of Fig. 6-e/f).
AVOC instead runs the lightweight agreement-clustering step when the
records indicate either a **fresh set** (all records 1) or a **system
failure / extreme data spike** (all records 0):

1. values within the scaled soft-dynamic margin of each other are
   grouped, and the largest group defines the round output (collated
   with the host algorithm's method — mean-nearest-neighbour here);
2. the clustering verdict *seeds the history records* — members of the
   winning cluster score full agreement, outliers score zero — so the
   very next round already eliminates the outlier module.

That second point is the "bootstrap boost": in the paper's UC-1 fault
experiment the voter returns to its pre-error output almost instantly
even though clustering runs only once, converging ~4× faster than plain
Hybrid.
"""

from __future__ import annotations

from typing import Optional

from ..clustering.agreement_clustering import cluster_by_agreement
from ..types import Round, VoteOutcome
from .base import HistoryAwareVoter, VoterParams
from .collation import collate
from .hybrid import HybridVoter


class AvocVoter(HybridVoter):
    """Hybrid voting with clustering-based history bootstrapping."""

    name = "avoc"

    #: Records at or below this are considered collapsed when checking
    #: the "all records 0" failure trigger (EMA records approach zero
    #: asymptotically, so an exact-zero test would never fire; with the
    #: default learning rate, 0.05 corresponds to roughly a dozen
    #: consecutive total-disagreement rounds).
    FAILURE_TOLERANCE = 0.05

    @classmethod
    def default_params(cls) -> VoterParams:
        return VoterParams(
            elimination="fixed",
            elimination_threshold=0.5,
            collation="MEAN_NEAREST_NEIGHBOR",
            history_policy="ema",
            learning_rate=0.25,
            bootstrap_mode="auto",
        )

    @property
    def bootstraps_used(self) -> int:
        return getattr(self, "_bootstraps_used", 0)

    def _should_bootstrap(self, modules) -> bool:
        mode = self.params.bootstrap_mode
        if mode == "never" or not modules:
            return False
        if mode == "always":
            return True
        fresh = self.history.update_count == 0 and self.history.all_fresh(modules)
        failed = self.history.all_failed(modules, tolerance=self.FAILURE_TOLERANCE)
        return fresh or failed

    def _bootstrap_vote(self, voting_round: Round) -> VoteOutcome:
        present = voting_round.present
        modules = [r.module for r in present]
        values = [float(r.value) for r in present]
        clustering = cluster_by_agreement(
            values,
            error=self.params.error,
            soft_threshold=self.params.soft_threshold,
            min_margin=self.params.min_margin,
        )
        winners = set(clustering.largest)
        weights = {m: (1.0 if i in winners else 0.0) for i, m in enumerate(modules)}
        winning_values = [values[i] for i in clustering.largest]
        output = collate(self.params.collation, winning_values)
        # Seed the records directly from cluster membership: members are
        # fully trusted, outliers fully distrusted.  This is the
        # "bootstrap boost" — the very next round already eliminates the
        # outlier module instead of waiting for its record to decay.
        scores = {m: (1.0 if i in winners else 0.0) for i, m in enumerate(modules)}
        self.history.seed(scores)
        self._bootstraps_used = self.bootstraps_used + 1
        return VoteOutcome(
            round_number=voting_round.number,
            value=output,
            weights=weights,
            history=self.history.snapshot(),
            agreement=scores,
            eliminated=tuple(m for i, m in enumerate(modules) if i not in winners),
            used_bootstrap=True,
            diagnostics={
                "cluster_sizes": [len(c) for c in clustering.clusters],
                "margin": clustering.margin,
            },
        )

    def batch_kernel(self) -> Optional[str]:
        """``"history"`` — the batch kernel natively replays the AVOC
        bootstrap (sorted-runs clustering + history seeding), so AVOC's
        own hook overrides are expected; further subclassing disables
        the kernel just like in the base class."""
        from .kernels import BATCHABLE_COLLATIONS

        cls = type(self)
        if (
            cls.vote is not HistoryAwareVoter.vote
            or cls._agreement_matrix is not HistoryAwareVoter._agreement_matrix
            or cls._weights is not HistoryAwareVoter._weights
            or cls._eliminated is not HistoryAwareVoter._eliminated
            or cls._should_bootstrap is not AvocVoter._should_bootstrap
            or cls._bootstrap_vote is not AvocVoter._bootstrap_vote
        ):
            return None
        if self.history.store is not None:
            return None
        if self.params.collation.upper() not in BATCHABLE_COLLATIONS:
            return None
        return "history"

    def reset(self) -> None:
        super().reset()
        self._bootstraps_used = 0
