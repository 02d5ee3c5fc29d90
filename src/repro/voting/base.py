"""Voter interface and the shared numeric voting round pipeline.

Every voter consumes :class:`~repro.types.Round` objects and produces
:class:`~repro.types.VoteOutcome` objects.  The numeric history-aware
voters (Standard, Me, Sdt, Hybrid, AVOC) share one round structure —
quorum, agreement, weighting, elimination, collation, history update —
and differ only in which agreement flavour feeds the weights, whether
elimination is active, and how results are collated.  That shared
pipeline lives in :class:`HistoryAwareVoter`; each concrete algorithm is
a thin parameterisation of it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..types import Round, VoteOutcome
from .agreement import (
    agreement_scores,
    binary_agreement_matrix,
    dynamic_margin,
    soft_agreement_matrix,
)
from .collation import collate
from .history import HistoryRecords

#: Validation domains for the string-valued parameters.
_HISTORY_POLICIES = ("additive", "ema")
_ELIMINATION_MODES = ("none", "mean", "fixed")
_AGREEMENT_KINDS = ("binary", "soft")
_WEIGHT_SOURCES = ("history", "agreement", "uniform")
_COLLATIONS = ("MEAN", "MEAN_NEAREST_NEIGHBOR", "MEDIAN", "WEIGHTED_MAJORITY")
_BOOTSTRAP_MODES = ("auto", "always", "never")


@dataclass(frozen=True)
class VoterParams:
    """Tunable parameters shared by the numeric voters.

    Attributes:
        error: relative agreement threshold ε (VDX ``params.error``).
        soft_threshold: multiple *k* of the margin where soft agreement
            reaches zero (VDX ``params.soft_threshold``).
        min_margin: absolute floor for the dynamic margin.
        history_policy: ``"additive"`` or ``"ema"`` record updates.
        reward / penalty: additive-policy increments.
        learning_rate: EMA-policy smoothing factor.
        elimination: ``"none"``, ``"mean"`` (below-mean record) or
            ``"fixed"`` (record below ``elimination_threshold``).
        elimination_threshold: cutoff for ``"fixed"`` elimination.
        collation: VDX collation keyword.
        bootstrap_mode: when the AVOC clustering step runs — ``"auto"``
            (fresh or failed records, per the paper), ``"always"``
            (clustering-only voting) or ``"never"``.
    """

    error: float = 0.05
    soft_threshold: float = 2.0
    min_margin: float = 1e-9
    history_policy: str = "additive"
    reward: float = 0.1
    penalty: float = 0.2
    learning_rate: float = 0.3
    elimination: str = "mean"
    elimination_threshold: float = 0.5
    collation: str = "MEAN"
    bootstrap_mode: str = "auto"

    def __post_init__(self):
        if self.error <= 0:
            raise ConfigurationError(f"error must be positive, got {self.error}")
        if self.soft_threshold < 1:
            raise ConfigurationError(
                f"soft_threshold must be >= 1, got {self.soft_threshold}"
            )
        if self.min_margin < 0:
            raise ConfigurationError("min_margin must be non-negative")
        if self.history_policy not in _HISTORY_POLICIES:
            raise ConfigurationError(
                f"history_policy must be one of {_HISTORY_POLICIES}"
            )
        if self.reward < 0 or self.penalty < 0:
            raise ConfigurationError("reward and penalty must be non-negative")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigurationError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}"
            )
        if self.elimination not in _ELIMINATION_MODES:
            raise ConfigurationError(f"elimination must be one of {_ELIMINATION_MODES}")
        if not 0.0 <= self.elimination_threshold <= 1.0:
            raise ConfigurationError("elimination_threshold must be in [0, 1]")
        if self.collation.upper() not in _COLLATIONS:
            raise ConfigurationError(f"collation must be one of {_COLLATIONS}")
        if self.bootstrap_mode not in _BOOTSTRAP_MODES:
            raise ConfigurationError(
                f"bootstrap_mode must be one of {_BOOTSTRAP_MODES}"
            )

    def with_overrides(self, **kwargs) -> "VoterParams":
        """A copy of these parameters with the given fields replaced."""
        return replace(self, **kwargs)


class Voter(abc.ABC):
    """Interface implemented by every voting algorithm."""

    #: Canonical algorithm name (registry key, report label).
    name: str = "abstract"
    #: True when the voter maintains per-module history records.
    stateful: bool = False

    @abc.abstractmethod
    def vote(self, voting_round: Round) -> VoteOutcome:
        """Fuse one round of readings into an outcome."""

    def reset(self) -> None:
        """Forget all internal state (history records, last output)."""

    def vote_values(self, values, round_number: int = 0) -> VoteOutcome:
        """Convenience wrapper: vote on a plain sequence of values."""
        return self.vote(Round.from_values(round_number, list(values)))

    def run(self, rounds) -> List[VoteOutcome]:
        """Vote on an iterable of rounds, in order."""
        return [self.vote(r) for r in rounds]

    def batch_kernel(self) -> Optional[str]:
        """Name of the vectorized kernel that reproduces this voter.

        :meth:`FusionEngine.process_batch` uses the returned name to
        select a kernel in :mod:`repro.fusion.batch` whose outputs are
        bit-identical to calling :meth:`vote` round by round.  ``None``
        (the default) means no such kernel exists and the batch falls
        back to the exact per-round loop.
        """
        return None


class HistoryAwareVoter(Voter):
    """Shared pipeline for the numeric history-aware voters.

    Subclasses configure the pipeline through three class attributes:

    * ``agreement_kind`` — ``"binary"`` or ``"soft"``;
    * ``weight_source`` — ``"history"`` (Standard/Me/Sdt),
      ``"agreement"`` (Hybrid/AVOC) or ``"uniform"``;
    * ``eliminates`` — whether below-par modules are zero-weighted.

    The AVOC bootstrap hooks (:meth:`_should_bootstrap`,
    :meth:`_bootstrap_vote`) are no-ops here and overridden by
    :class:`~repro.voting.avoc.AvocVoter`.
    """

    stateful = True
    agreement_kind: str = "binary"
    weight_source: str = "history"
    eliminates: bool = False

    def __init__(self, params: Optional[VoterParams] = None, history_store=None):
        if self.agreement_kind not in _AGREEMENT_KINDS:
            raise ConfigurationError(
                f"agreement_kind must be one of {_AGREEMENT_KINDS}"
            )
        if self.weight_source not in _WEIGHT_SOURCES:
            raise ConfigurationError(f"weight_source must be one of {_WEIGHT_SOURCES}")
        self.params = params or self.default_params()
        self.history = HistoryRecords(
            policy=self.params.history_policy,
            reward=self.params.reward,
            penalty=self.params.penalty,
            learning_rate=self.params.learning_rate,
            store=history_store,
        )
        self._rounds_voted = 0

    @classmethod
    def default_params(cls) -> VoterParams:
        """Default parameters for this algorithm; subclasses override."""
        return VoterParams()

    # -- pipeline steps ---------------------------------------------------

    def _agreement_matrix(self, values) -> np.ndarray:
        margin = dynamic_margin(values, self.params.error, self.params.min_margin)
        if self.agreement_kind == "binary":
            return binary_agreement_matrix(values, margin)
        return soft_agreement_matrix(values, margin, self.params.soft_threshold)

    def _eliminated(self, modules) -> Tuple[str, ...]:
        if not self.eliminates or self.params.elimination == "none":
            return ()
        if self.params.elimination == "fixed":
            cutoff = self.params.elimination_threshold
            return tuple(m for m in modules if self.history.get(m) < cutoff)
        return self.history.below_mean(modules)

    def _weights(self, modules, scores: Dict[str, float]) -> Dict[str, float]:
        if self.weight_source == "history":
            weights = self.history.weights(modules)
        elif self.weight_source == "agreement":
            weights = {m: scores.get(m, 0.0) for m in modules}
        else:
            weights = {m: 1.0 for m in modules}
        for module in self._eliminated(modules):
            weights[module] = 0.0
        return weights

    # -- AVOC hooks (overridden by AvocVoter) ------------------------------

    def _should_bootstrap(self, modules) -> bool:
        return False

    def _bootstrap_vote(self, voting_round: Round) -> VoteOutcome:
        raise NotImplementedError

    # -- batch support -----------------------------------------------------

    def batch_kernel(self) -> Optional[str]:
        """``"history"`` when the shared pipeline is unmodified.

        The batch kernel replays exactly the :meth:`vote` implementation
        below, so any subclass override of the pipeline (or the AVOC
        hooks — see :meth:`AvocVoter.batch_kernel`) disables it, as do a
        write-through history store (persisted per round) and the
        WEIGHTED_MAJORITY collation (hash-based, not vectorizable
        bit-identically).
        """
        from .kernels import BATCHABLE_COLLATIONS

        cls = type(self)
        if (
            cls.vote is not HistoryAwareVoter.vote
            or cls._agreement_matrix is not HistoryAwareVoter._agreement_matrix
            or cls._weights is not HistoryAwareVoter._weights
            or cls._eliminated is not HistoryAwareVoter._eliminated
            or cls._should_bootstrap is not HistoryAwareVoter._should_bootstrap
            or cls._bootstrap_vote is not HistoryAwareVoter._bootstrap_vote
        ):
            return None
        if self.history.store is not None:
            return None
        if self.params.collation.upper() not in BATCHABLE_COLLATIONS:
            return None
        return "history"

    # -- main entry ---------------------------------------------------------

    def vote(self, voting_round: Round) -> VoteOutcome:
        present = voting_round.present
        modules = [r.module for r in present]
        self.history.ensure(voting_round.modules)
        voting_round.require_nonempty()
        if self._should_bootstrap(modules):
            outcome = self._bootstrap_vote(voting_round)
            self._rounds_voted += 1
            return outcome
        values = [float(r.value) for r in present]
        matrix = self._agreement_matrix(values)
        scores = dict(zip(modules, agreement_scores(matrix)))
        weights = self._weights(modules, scores)
        output = collate(
            self.params.collation,
            values,
            [weights[m] for m in modules],
        )
        self.history.update(scores)
        self._rounds_voted += 1
        return VoteOutcome(
            round_number=voting_round.number,
            value=output,
            weights=weights,
            history=self.history.snapshot(),
            agreement=scores,
            eliminated=tuple(m for m in modules if weights[m] == 0.0),
            used_bootstrap=False,
        )

    def reset(self) -> None:
        self.history.reset()
        self._rounds_voted = 0
