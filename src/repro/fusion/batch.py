"""Batched fusion: run a whole rounds × modules matrix in one call.

:func:`process_matrix` is the engine behind
:meth:`FusionEngine.process_batch` and the top-level :func:`fuse`
facade.  It evaluates the engine's fault/quorum policy for every round
up front with array arithmetic, then dispatches to one of five
vectorized kernels selected by :meth:`Voter.batch_kernel`:

``stateless``
    CollationVoter (mean / median / nearest-neighbour) — fully
    vectorized across rounds.
``clustering``
    ClusteringOnlyVoter — per-round sorted-runs clustering on
    compacted values with vectorized margins.
``plurality``
    PluralityVoter — sequential tally loop carrying the tie-break.
``incoherence``
    IncoherenceMaskingVoter — dynamic margins precomputed for all
    rounds, then a sequential loop over the voter's own
    ``_apply``/``_outcome`` core (the mask hysteresis is a genuine
    cross-round dependency).
``history``
    The Standard/Me/Sdt/Hybrid/AVOC family — margins and pairwise
    agreement scores precomputed for all rounds, then a tight
    sequential loop over preallocated float arrays (history is a
    genuine cross-round dependency).

Every path is *bit-identical* to the per-round
:meth:`FusionEngine.process` loop, including engine statistics,
``last_accepted`` carry-over, voter history state and raised
exceptions.  Voters or engine configurations without a kernel
(custom ``vote`` overrides, exclusion rules, history stores,
weighted-majority collation) transparently fall back to the exact
legacy loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import FusionError, QuorumNotReachedError
from ..types import Round, VoteOutcome, is_missing
from ..voting import kernels
from ..voting.base import Voter
from .engine import FusionEngine, FusionResult

__all__ = ["BatchResult", "fuse", "process_matrix"]

# Reason codes for degraded rounds (0 = votable).
_MISSING = 1  # majority of roster values absent
_QUORUM_ENGINE = 2  # engine QuorumRule not satisfied
_CONFLICT = 3  # no majority (plurality tie)
_EMPTY = 4  # no values at all (EmptyRoundError from the voter)

#: Reason code → degraded-round metric label (matches engine._degraded).
_REASON_LABELS_BY_CODE = {
    _MISSING: "majority_missing",
    _QUORUM_ENGINE: "quorum",
    _CONFLICT: "conflict",
    _EMPTY: "empty",
}


@dataclass
class BatchResult:
    """The outcome of fusing a rounds × modules matrix in one batch.

    Attributes:
        modules: column names, in matrix order.
        values: per-round fused output; NaN where the round produced
            no value (status ``skipped``).
        statuses: per-round status, ``ok`` / ``held`` / ``skipped``.
        weights: rounds × modules weight matrix (NaN where a module
            was absent or the round was degraded); populated only when
            the batch ran with ``diagnostics=True``.
        results: full per-round :class:`FusionResult` list with
            :class:`VoteOutcome` diagnostics; populated only when the
            batch ran with ``diagnostics=True``.
    """

    modules: Tuple[str, ...]
    values: np.ndarray
    statuses: np.ndarray
    weights: Optional[np.ndarray] = None
    results: Optional[List[FusionResult]] = None

    @property
    def n_rounds(self) -> int:
        return int(self.values.shape[0])

    @property
    def ok(self) -> np.ndarray:
        """Boolean mask of rounds that produced a regular fused value."""
        return self.statuses == "ok"

    def module_weight(self, module: str) -> np.ndarray:
        """One module's weight series (requires ``diagnostics=True``)."""
        if self.weights is None:
            raise FusionError(
                "weights not recorded; re-run the batch with diagnostics=True"
            )
        try:
            column = self.modules.index(module)
        except ValueError:
            raise FusionError(f"no module named {module!r} in this batch")
        return self.weights[:, column]

    def to_results(self) -> List[FusionResult]:
        """Per-round :class:`FusionResult` objects.

        When the batch was run with diagnostics the stored results are
        returned as-is; otherwise a minimal list (value + status, no
        outcome) is synthesised from the arrays.
        """
        if self.results is not None:
            return list(self.results)
        out: List[FusionResult] = []
        for number in range(self.n_rounds):
            status = str(self.statuses[number])
            value = None if status == "skipped" else float(self.values[number])
            out.append(
                FusionResult(round_number=number, value=value, status=status)
            )
        return out


def process_matrix(
    engine: FusionEngine,
    matrix: Any,
    modules: Optional[Sequence[str]] = None,
    diagnostics: bool = False,
) -> BatchResult:
    """Fuse every row of ``matrix`` through ``engine`` in one batch.

    Accepts the same inputs as a per-round :meth:`FusionEngine.process`
    loop (NaN or None marks a missing reading) and mutates the engine
    exactly as that loop would: roster learning, ``rounds_processed`` /
    ``rounds_degraded``, ``last_accepted`` and voter history all end
    up in the same state, and ``raise`` fault policies raise the same
    exception at the same round.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise FusionError(f"expected a 2-D matrix, got shape {matrix.shape}")
    if modules is None:
        modules = [f"E{i + 1}" for i in range(matrix.shape[1])]
    modules = list(modules)
    if len(modules) != matrix.shape[1]:
        raise FusionError("module name count does not match matrix columns")
    n_rounds, n_modules = matrix.shape
    if n_rounds == 0:
        # The legacy loop never touched the roster for an empty matrix.
        return BatchResult(
            modules=tuple(modules),
            values=np.zeros(0),
            statuses=np.zeros(0, dtype="<U7"),
            weights=np.zeros((0, n_modules)) if diagnostics else None,
            results=[] if diagnostics else None,
        )

    kernel = None
    if (
        engine.exclusion == "NONE"
        and n_modules > 0
        and len(set(modules)) == n_modules
    ):
        kernel = engine.voter.batch_kernel()
    if kernel is None:
        return _fallback(engine, matrix, modules, diagnostics)

    for module in modules:
        if module not in engine.roster:
            engine.roster.append(module)

    ctx = _BatchContext(engine, matrix, modules, diagnostics)
    if kernel == "stateless":
        _run_stateless(ctx)
    elif kernel == "clustering":
        _run_clustering(ctx)
    elif kernel == "plurality":
        _run_plurality(ctx)
    elif kernel == "incoherence":
        _run_incoherence(ctx)
    elif kernel == "history":
        _run_history(ctx)
    else:  # pragma: no cover - registry/hook mismatch
        raise FusionError(f"unknown batch kernel {kernel!r}")
    return ctx.finish()


def fuse(
    values: Any,
    voter: Union[str, Voter, Any] = "avoc",
    modules: Optional[Sequence[str]] = None,
    *,
    params: Optional[Any] = None,
    quorum: Optional[Any] = None,
    fault_policy: Optional[Any] = None,
    roster: Optional[Sequence[str]] = None,
    diagnostics: bool = False,
) -> BatchResult:
    """Fuse a value matrix in one call — the top-level facade.

    Args:
        values: rounds × modules array-like (a single round may be
            passed as a 1-D sequence); NaN or None marks a missing
            reading.
        voter: an algorithm name from the registry (``"avoc"``,
            ``"average"``, ...), a ready :class:`Voter` instance, or a
            :class:`~repro.vdx.spec.VotingSpec` document.
        modules: optional column names (default ``E1..En``).
        params: optional :class:`VoterParams` overrides, only valid
            with a registry name.
        quorum: optional :class:`QuorumRule` for the engine.
        fault_policy: optional :class:`FaultPolicy` for the engine.
        roster: optional expected module roster (defaults to the
            matrix columns).
        diagnostics: record per-round weights and full
            :class:`FusionResult` objects on the returned
            :class:`BatchResult`.

    Returns:
        A :class:`BatchResult` — ``result.values`` is the fused output
        series.

    Example:
        >>> import repro
        >>> repro.fuse([[1.0, 1.1, 1.2]], "average").values
        array([1.1])
    """
    matrix = np.asarray(values, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[None, :]

    engine: FusionEngine
    if isinstance(voter, Voter):
        if params is not None:
            raise FusionError("params only apply when voter is a name")
        engine = FusionEngine(
            voter, roster=roster, quorum=quorum, fault_policy=fault_policy
        )
    elif isinstance(voter, str):
        from ..voting.registry import create_voter

        engine = FusionEngine(
            create_voter(voter, params=params),
            roster=roster,
            quorum=quorum,
            fault_policy=fault_policy,
        )
    else:
        from ..vdx.factory import build_engine
        from ..vdx.spec import VotingSpec

        if not isinstance(voter, VotingSpec):
            raise FusionError(
                "voter must be an algorithm name, a Voter instance or a "
                f"VotingSpec, got {type(voter).__name__}"
            )
        if params is not None:
            raise FusionError("params only apply when voter is a name")
        engine = build_engine(voter, fault_policy=fault_policy)
        if quorum is not None:
            engine.quorum = quorum
        if roster is not None:
            engine.roster = list(roster)
    return engine.process_batch(matrix, modules, diagnostics=diagnostics)


def _fallback(
    engine: FusionEngine,
    matrix: np.ndarray,
    modules: List[str],
    diagnostics: bool,
) -> BatchResult:
    """The exact legacy per-round loop, packaged as a BatchResult."""
    results: List[FusionResult] = []
    for number, row in enumerate(matrix):
        mapping = {
            m: (None if is_missing(v) else float(v))
            for m, v in zip(modules, row)
        }
        results.append(engine.process(Round.from_mapping(number, mapping)))
    values = np.asarray(
        [np.nan if r.value is None else float(r.value) for r in results]
    )
    statuses = np.asarray([r.status for r in results], dtype="<U7")
    if not diagnostics:
        return BatchResult(tuple(modules), values, statuses)
    weights = np.full(matrix.shape, np.nan)
    for number, result in enumerate(results):
        if result.outcome is not None:
            recorded = result.outcome.weights
            for column, module in enumerate(modules):
                if module in recorded:
                    weights[number, column] = recorded[module]
    return BatchResult(tuple(modules), values, statuses, weights, results)


class _BatchContext:
    """Shared per-batch state: policy evaluation, outputs, bookkeeping."""

    def __init__(
        self,
        engine: FusionEngine,
        matrix: np.ndarray,
        modules: List[str],
        diagnostics: bool,
    ):
        self.engine = engine
        self.matrix = matrix
        self.modules = modules
        self.diagnostics = diagnostics
        self.n_rounds, self.n_modules = matrix.shape
        self.mask = ~np.isnan(matrix)
        self.counts = self.mask.sum(axis=1)
        self.roster_size = len(engine.roster)

        policy = engine.fault_policy
        reasons = np.zeros(self.n_rounds, dtype=np.int8)
        if self.roster_size <= 0:
            reasons[:] = _MISSING
        else:
            missing_fraction = 1.0 - self.counts / self.roster_size
            reasons[missing_fraction > policy.missing_tolerance] = _MISSING
        required = engine.quorum.required_count(self.roster_size)
        if required > 0:
            reasons[(reasons == 0) & (self.counts < required)] = _QUORUM_ENGINE
        # A fully-empty round that slipped past every earlier check
        # (missing_tolerance >= 1, no quorum) raises EmptyRoundError
        # inside the voter, which the engine maps to on_missing_majority.
        reasons[(reasons == 0) & (self.counts == 0)] = _EMPTY
        self.reasons = reasons
        self.actions = {
            _MISSING: policy.on_missing_majority,
            _QUORUM_ENGINE: policy.on_quorum_failure,
            _CONFLICT: policy.on_conflict,
            _EMPTY: policy.on_missing_majority,
        }
        cutoff = self.n_rounds
        for code, action in self.actions.items():
            if action == "raise":
                hits = np.flatnonzero(reasons == code)
                if hits.size and hits[0] < cutoff:
                    cutoff = int(hits[0])
        self.cutoff = cutoff
        self.votable = reasons == 0
        self.votable[cutoff:] = False

        self.outputs = np.full(self.n_rounds, np.nan)
        self.out_weights = (
            np.full((self.n_rounds, self.n_modules), np.nan)
            if diagnostics
            else None
        )
        self.outcomes: Optional[List[Optional[VoteOutcome]]] = (
            [None] * self.n_rounds if diagnostics else None
        )
        self.writebacks: List[Any] = []

    def _observe(self, cutoff: int) -> None:
        """Mirror the engine-stat mutations into the metrics registry.

        Runs before the ``raise``-policy exception, so a rejected batch
        still records the rounds it consumed — exactly like the
        per-round loop, where ``_degraded`` counts before raising.
        """
        obs = self.engine._obs
        if not obs.enabled:
            return
        processed = cutoff + (1 if cutoff < self.n_rounds else 0)
        obs.rounds.inc(processed)
        obs.batch_rounds.inc(processed)
        codes = self.reasons[:processed]
        if not codes.any():
            return
        counts = np.bincount(codes, minlength=len(_REASON_LABELS_BY_CODE) + 1)
        for code, label in _REASON_LABELS_BY_CODE.items():
            hits = int(counts[code])
            if hits:
                obs.degraded[label].inc(hits)
        quorum = int(counts[_QUORUM_ENGINE])
        if quorum:
            obs.quorum_failures.inc(quorum)

    def mark_conflict(self, round_number: int) -> bool:
        """Record a NoMajorityError; False means the kernel must stop
        (the conflict policy is ``raise``)."""
        self.reasons[round_number] = _CONFLICT
        self.votable[round_number] = False
        if self.actions[_CONFLICT] == "raise":
            self.cutoff = round_number
            self.votable[round_number:] = False
            return False
        return True

    def finish(self) -> BatchResult:
        engine = self.engine
        cutoff = self.cutoff
        statuses = np.full(self.n_rounds, "ok", dtype="<U7")
        values = self.outputs
        last = engine.last_accepted
        degraded = 0
        results: Optional[List[FusionResult]] = (
            [] if self.diagnostics else None
        )

        if results is None and cutoff == self.n_rounds and not self.reasons.any():
            # Pure fast path: every round voted, nothing to replay.
            if self.n_rounds:
                last = float(values[-1])
        else:
            for number in range(cutoff):
                code = int(self.reasons[number])
                if code == 0:
                    value = float(values[number])
                    last = value
                    if results is not None:
                        results.append(
                            FusionResult(
                                round_number=number,
                                value=value,
                                status="ok",
                                outcome=self.outcomes[number],
                            )
                        )
                    continue
                degraded += 1
                if self.actions[code] == "last_value" and last is not None:
                    statuses[number] = "held"
                    values[number] = last
                    if results is not None:
                        results.append(
                            FusionResult(
                                round_number=number, value=last, status="held"
                            )
                        )
                else:
                    statuses[number] = "skipped"
                    values[number] = np.nan
                    if results is not None:
                        results.append(
                            FusionResult(
                                round_number=number, value=None, status="skipped"
                            )
                        )

        engine.rounds_processed += cutoff
        engine.rounds_degraded += degraded
        engine.last_accepted = last
        self._observe(cutoff)
        for writeback in self.writebacks:
            writeback()
        if cutoff < self.n_rounds:
            engine.rounds_processed += 1
            engine.rounds_degraded += 1
            code = int(self.reasons[cutoff])
            if code == _QUORUM_ENGINE:
                raise QuorumNotReachedError(
                    int(self.counts[cutoff]),
                    engine.quorum.required_count(self.roster_size),
                )
            if code == _CONFLICT:
                raise FusionError(f"round {cutoff} rejected: no majority")
            reason = (
                "no values present"
                if code == _EMPTY
                else "majority of values missing"
            )
            raise FusionError(f"round {cutoff} rejected: {reason}")
        return BatchResult(
            modules=tuple(self.modules),
            values=values,
            statuses=statuses,
            weights=self.out_weights,
            results=results,
        )


def _present_modules(ctx: _BatchContext, columns: np.ndarray) -> List[str]:
    return [ctx.modules[int(j)] for j in columns]


def _run_stateless(ctx: _BatchContext) -> None:
    voter = ctx.engine.voter
    out = kernels.batch_collate(
        voter.collation, ctx.matrix, ctx.mask, ctx.counts, ctx.votable
    )
    ctx.outputs[ctx.votable] = out[ctx.votable]
    if ctx.diagnostics:
        ctx.out_weights[ctx.votable[:, None] & ctx.mask] = 1.0
        for number in np.flatnonzero(ctx.votable):
            present = _present_modules(ctx, np.flatnonzero(ctx.mask[number]))
            ctx.outcomes[number] = VoteOutcome(
                round_number=int(number),
                value=float(out[number]),
                weights={m: 1.0 for m in present},
            )


def _run_clustering(ctx: _BatchContext) -> None:
    voter = ctx.engine.voter
    params = voter.params
    margins = kernels.batch_dynamic_margins(
        ctx.matrix, params.error, params.min_margin, ctx.counts
    )
    cluster_margins = margins * params.soft_threshold
    collation = params.collation.upper()
    # Winner selection and collation are row-parallel: the winning-run
    # membership mask doubles as a presence mask, so collating the
    # winning values is just batch_collate over that mask.
    winners = kernels.batch_cluster_runs(
        ctx.matrix, cluster_margins, ctx.mask, ctx.counts, ctx.votable
    )
    winner_counts = winners.sum(axis=1)
    out = kernels.batch_collate(
        collation, ctx.matrix, winners, winner_counts, ctx.votable
    )
    ctx.outputs[ctx.votable] = out[ctx.votable]
    if ctx.diagnostics:
        for number in np.flatnonzero(ctx.votable):
            present = np.flatnonzero(ctx.mask[number])
            margin = float(cluster_margins[number])
            # The full run-size list is diagnostic-only; the fused value
            # and weights above come from the vectorized winner mask.
            runs = kernels.sorted_runs(ctx.matrix[number, present], margin)
            in_cluster = winners[number, present].astype(float)
            ctx.out_weights[number, present] = in_cluster
            names = _present_modules(ctx, present)
            weights = {m: float(w) for m, w in zip(names, in_cluster)}
            ctx.outcomes[number] = VoteOutcome(
                round_number=int(number),
                value=float(out[number]),
                weights=weights,
                eliminated=tuple(
                    m for m, w in zip(names, in_cluster) if w == 0.0
                ),
                used_bootstrap=True,
                diagnostics={
                    "cluster_sizes": [int(run.size) for run in runs],
                    "margin": margin,
                },
            )


def _run_plurality(ctx: _BatchContext) -> None:
    voter = ctx.engine.voter
    tie_break = voter._last_output
    for number in np.flatnonzero(ctx.votable):
        if number >= ctx.cutoff:
            break
        values = ctx.matrix[number, ctx.mask[number]].tolist()
        tallies: Dict[float, float] = {}
        for value in values:
            tallies[value] = tallies.get(value, 0.0) + 1.0
        top = max(tallies.values())
        winners = [v for v, tally in tallies.items() if tally == top]
        if len(winners) == 1:
            winner = winners[0]
        elif tie_break is not None and tie_break in winners:
            winner = tie_break
        else:
            if not ctx.mark_conflict(int(number)):
                break
            continue
        tie_break = winner
        ctx.outputs[number] = winner
        if ctx.diagnostics:
            ctx.out_weights[number, ctx.mask[number]] = 1.0
            present = _present_modules(ctx, np.flatnonzero(ctx.mask[number]))
            ctx.outcomes[number] = VoteOutcome(
                round_number=int(number),
                value=winner,
                weights={m: 1.0 for m in present},
                diagnostics={"tallies": tallies},
            )

    def writeback() -> None:
        voter._last_output = tie_break

    ctx.writebacks.append(writeback)


def _run_incoherence(ctx: _BatchContext) -> None:
    """IncoherenceMaskingVoter: batch margins + the voter's own core.

    The dynamic margin is the only per-round quantity that vectorizes
    (it dominates the scalar cost via ``np.median``); the mask/score
    recurrence itself is replayed through the voter's ``_apply`` and
    ``_outcome`` methods so the two paths cannot drift apart.  State is
    mutated in place — the votable set is fixed up front and this
    kernel never marks conflicts, so there is no writeback to defer.
    """
    voter = ctx.engine.voter
    params = voter.params
    margins = kernels.batch_dynamic_margins(
        ctx.matrix, params.error, params.min_margin, ctx.counts
    )
    ensured = False
    for number in np.flatnonzero(ctx.votable):
        if number >= ctx.cutoff:
            break
        if not ensured:
            # The scalar path ensures every round with the full module
            # roster; once is equivalent (ensure only inserts zeros).
            voter._ensure(ctx.modules)
            ensured = True
        columns = np.flatnonzero(ctx.mask[number])
        names = _present_modules(ctx, columns)
        values = [float(v) for v in ctx.matrix[number, columns]]
        margin = float(margins[number])
        output, weights = voter._apply(names, values, margin)
        ctx.outputs[number] = output
        if ctx.diagnostics:
            ctx.out_weights[number, columns] = weights
            ctx.outcomes[number] = voter._outcome(
                int(number), names, values, weights, margin, output
            )


#: Adaptive segment-scan block sizing: start small so event-dense
#: stretches (repeated clips / reseeds) waste little speculative scan
#: work, and double up while blocks commit cleanly so long event-free
#: stretches amortise the per-block overhead.
_SCAN_BLOCK_MIN = 16
_SCAN_BLOCK_MAX = 1024


def _run_history(ctx: _BatchContext) -> None:
    engine = ctx.engine
    voter = engine.voter
    params = voter.params
    from ..voting.avoc import AvocVoter

    history = voter.history
    existing = list(history.modules)
    known = set(existing)
    universe = existing + [m for m in ctx.modules if m not in known]
    n_univ = len(universe)
    state = np.asarray([history.get(m) for m in universe], dtype=float)
    column_of = {m: i for i, m in enumerate(universe)}
    cols = np.asarray([column_of[m] for m in ctx.modules], dtype=np.intp)

    update_count0 = history.update_count
    avoc = isinstance(voter, AvocVoter)
    bootstraps = voter.bootstraps_used if avoc else 0
    bootstrap_mode = params.bootstrap_mode if avoc else "never"
    auto_bootstrap = bootstrap_mode == "auto"
    failure_tolerance = getattr(voter, "FAILURE_TOLERANCE", 0.05)

    source = voter.weight_source
    eliminates = voter.eliminates and params.elimination != "none"
    fixed_elimination = params.elimination == "fixed"
    elimination_cutoff = params.elimination_threshold
    additive = history.policy == "additive"
    reward, penalty = history.reward, history.penalty
    learning_rate = history.learning_rate
    one_minus_lr = 1.0 - learning_rate
    collation = params.collation.upper()
    collate = kernels.collation_function(collation)

    margins = kernels.batch_dynamic_margins(
        ctx.matrix, params.error, params.min_margin, ctx.counts
    )
    scores_all = kernels.batch_agreement_scores(
        ctx.matrix,
        margins,
        voter.agreement_kind,
        params.soft_threshold,
        ctx.mask,
        ctx.counts,
        ctx.votable,
    )

    # The clamp and the state-independent half of the record update are
    # the same expression for every round — hoist them out of the scan.
    clamped_all = np.minimum(np.maximum(scores_all, 0.0), 1.0)
    if additive:
        step_all = reward * clamped_all - penalty * (1.0 - clamped_all)
    else:
        step_all = learning_rate * clamped_all

    votable_idx = np.flatnonzero(ctx.votable)
    n_v = int(votable_idx.size)
    if n_v:
        mask_v = ctx.mask[votable_idx]
        counts_v = ctx.counts[votable_idx]
        # Steps and presence in record-universe column space: absent
        # modules carry a 0.0 step (additive: x + 0.0 == x bitwise) and
        # a False presence bit (EMA skips them entirely).
        step_univ = np.zeros((n_v, n_univ))
        step_univ[:, cols] = np.where(mask_v, step_all[votable_idx], 0.0)
        present_univ = np.zeros((n_v, n_univ), dtype=bool)
        present_univ[:, cols] = mask_v

        before_univ = np.empty((n_v, n_univ))
        is_bootstrap = np.zeros(n_v, dtype=bool)

        def scalar_round(i: int) -> None:
            """One segment-boundary round, exactly as the scalar loop.

            Handles the rounds the vectorized scans cannot express:
            AVOC bootstrap reseeds and additive updates the clamp
            actually alters.
            """
            nonlocal bootstraps
            before_univ[i] = state
            number = int(votable_idx[i])
            present = np.flatnonzero(mask_v[i])
            slots = cols[present]
            values = ctx.matrix[number, present]
            records = state[slots]

            bootstrap = False
            if bootstrap_mode == "always":
                bootstrap = values.size > 0
            elif auto_bootstrap:
                bootstrap = (
                    update_count0 + i == 0
                    and bool(np.all(np.abs(records - 1.0) <= 1e-12))
                ) or (
                    values.size > 0
                    and bool(np.all(records <= failure_tolerance))
                )
            if bootstrap:
                is_bootstrap[i] = True
                bootstraps += 1
                margin = float(margins[number] * params.soft_threshold)
                runs = kernels.sorted_runs(values, margin)
                winners = np.sort(runs[0])
                value = collate(values[winners], None)
                seeded = np.zeros(values.size)
                seeded[winners] = 1.0
                state[slots] = seeded
                ctx.outputs[number] = value
                if ctx.diagnostics:
                    ctx.out_weights[number, present] = seeded
                    names = _present_modules(ctx, present)
                    ctx.outcomes[number] = VoteOutcome(
                        round_number=number,
                        value=value,
                        weights={m: float(w) for m, w in zip(names, seeded)},
                        history=dict(zip(universe, state.tolist())),
                        agreement={m: float(w) for m, w in zip(names, seeded)},
                        eliminated=tuple(
                            m for m, w in zip(names, seeded) if w == 0.0
                        ),
                        used_bootstrap=True,
                        diagnostics={
                            "cluster_sizes": [int(run.size) for run in runs],
                            "margin": margin,
                        },
                    )
                return
            step = step_univ[i, slots]
            if additive:
                updated = records + step
            else:
                updated = one_minus_lr * records + step
            state[slots] = np.minimum(np.maximum(updated, 0.0), 1.0)

        i = 0
        block = _SCAN_BLOCK_MIN
        if auto_bootstrap and update_count0 == 0:
            # The "fresh set" trigger needs update_count == 0, which
            # only the very first voted round can satisfy — check it
            # scalar, then the scans only watch the "failed" trigger.
            scalar_round(0)
            i = 1
        while i < n_v:
            if bootstrap_mode == "always":
                scalar_round(i)
                i += 1
                continue
            b = min(block, n_v - i)
            steps_b = step_univ[i : i + b]
            if additive:
                befores_b, finals_b, events_b = kernels.additive_scan(
                    state, steps_b
                )
            else:
                befores_b, finals_b = kernels.ema_scan(
                    state, steps_b, present_univ[i : i + b], one_minus_lr
                )
                events_b = None
            if auto_bootstrap:
                # "All present records failed" reseeds *before* the
                # round's update, so it also ends the segment.
                failed_b = np.all(
                    (befores_b[:, cols] <= failure_tolerance)
                    | ~mask_v[i : i + b],
                    axis=1,
                )
                events_b = failed_b if events_b is None else events_b | failed_b
            committed = b
            if events_b is not None and events_b.any():
                committed = int(np.argmax(events_b))
            before_univ[i : i + committed] = befores_b[:committed]
            if committed == b:
                state = finals_b
                block = min(block * 2, _SCAN_BLOCK_MAX)
            else:
                # befores row `committed` is the state after the last
                # committed round — rolling back is free.
                state = befores_b[committed].copy()
                block = _SCAN_BLOCK_MIN
            i += committed
            if committed < b:
                scalar_round(i)
                i += 1

        regular = ~is_bootstrap
        if regular.any():
            values_v = ctx.matrix[votable_idx]
            scores_v = scores_all[votable_idx]
            records_v = before_univ[:, cols]
            if source == "history":
                weights_v = records_v.copy()
            elif source == "agreement":
                weights_v = scores_v.copy()
            else:
                weights_v = np.ones((n_v, ctx.n_modules))
            if eliminates:
                if fixed_elimination:
                    eliminated_v = records_v < elimination_cutoff
                else:
                    means = kernels.batch_masked_mean(
                        records_v, mask_v, counts_v, regular
                    )
                    eliminated_v = records_v < (means[:, None] - 1e-12)
                weights_v[eliminated_v] = 0.0
            out_v = kernels.batch_weighted_collate(
                collation, values_v, weights_v, mask_v, counts_v, regular
            )
            sel = np.flatnonzero(regular)
            ctx.outputs[votable_idx[sel]] = out_v[sel]
            if ctx.diagnostics:
                for i in sel.tolist():
                    number = int(votable_idx[i])
                    present = np.flatnonzero(mask_v[i])
                    names = _present_modules(ctx, present)
                    weights = weights_v[i, present]
                    # The next round's before-state is this round's
                    # after-state; the last round's is the final state.
                    after = before_univ[i + 1] if i + 1 < n_v else state
                    ctx.out_weights[number, present] = weights
                    ctx.outcomes[number] = VoteOutcome(
                        round_number=number,
                        value=float(out_v[i]),
                        weights={
                            m: float(w) for m, w in zip(names, weights)
                        },
                        history=dict(zip(universe, after.tolist())),
                        agreement={
                            m: float(s)
                            for m, s in zip(names, scores_v[i, present])
                        },
                        eliminated=tuple(
                            m for m, w in zip(names, weights) if w == 0.0
                        ),
                    )

    update_count = update_count0 + n_v
    rounds_voted = voter._rounds_voted + n_v
    # HistoryAwareVoter.vote calls history.ensure() before it rejects an
    # empty round — those rounds materialise records without updating
    # them.
    limit = min(ctx.cutoff + 1, ctx.n_rounds)
    materialised = bool(n_v) or bool(np.any(ctx.reasons[:limit] == _EMPTY))

    def writeback() -> None:
        if materialised:
            history.absorb(dict(zip(universe, state)), update_count)
        voter._rounds_voted = rounds_voted
        if avoc:
            voter._bootstraps_used = bootstraps

    ctx.writebacks.append(writeback)
