"""Maximum-Likelihood Voting [Leung 1995] — extension algorithm.

§6 of the paper lists MLV among the algorithms VDX *cannot yet* define
because it parameterises the candidate values themselves.  We implement
it anyway as an extension so the limitation can be demonstrated and the
algorithm compared in the ablation benchmarks.

MLV treats each module as a noisy channel with reliability ``p_i`` (here
derived from the history record, floored away from 0/1 to keep
likelihoods finite).  Candidate *outputs* are the agreement groups of
the round; the group maximising the likelihood of the observed votes —
members correct with probability ``p_i``, non-members wrong with
probability ``1 - p_i`` — wins, and the group is collated to a value.
"""

from __future__ import annotations

import math
from ..clustering.agreement_clustering import cluster_by_agreement
from ..types import Round, VoteOutcome
from .agreement import agreement_scores
from .base import HistoryAwareVoter, VoterParams
from .collation import collate


class MaximumLikelihoodVoter(HistoryAwareVoter):
    """MLV over agreement groups with history-derived reliabilities."""

    name = "mlv"
    agreement_kind = "binary"
    weight_source = "history"
    eliminates = False

    #: Reliability clamp keeping log-likelihood terms finite.
    _P_FLOOR = 0.01

    @classmethod
    def default_params(cls) -> VoterParams:
        return VoterParams(elimination="none", collation="MEAN")

    def vote(self, voting_round: Round) -> VoteOutcome:
        present = voting_round.present
        modules = [r.module for r in present]
        self.history.ensure(voting_round.modules)
        voting_round.require_nonempty()
        values = [float(r.value) for r in present]
        clustering = cluster_by_agreement(
            values,
            error=self.params.error,
            soft_threshold=self.params.soft_threshold,
            min_margin=self.params.min_margin,
        )
        reliabilities = {
            m: min(max(self.history.get(m), self._P_FLOOR), 1.0 - self._P_FLOOR)
            for m in modules
        }
        best_group = clustering.largest
        best_likelihood = -math.inf
        for group in clustering.clusters:
            members = set(group)
            likelihood = 0.0
            for i, module in enumerate(modules):
                p = reliabilities[module]
                likelihood += math.log(p) if i in members else math.log(1.0 - p)
            if likelihood > best_likelihood:
                best_likelihood = likelihood
                best_group = group
        winners = set(best_group)
        weights = {m: (1.0 if i in winners else 0.0) for i, m in enumerate(modules)}
        output = collate(self.params.collation, [values[i] for i in best_group])
        matrix = self._agreement_matrix(values)
        scores = dict(zip(modules, agreement_scores(matrix)))
        self.history.update(scores)
        return VoteOutcome(
            round_number=voting_round.number,
            value=output,
            weights=weights,
            history=self.history.snapshot(),
            agreement=scores,
            eliminated=tuple(m for i, m in enumerate(modules) if i not in winners),
            diagnostics={"log_likelihood": best_likelihood},
        )
