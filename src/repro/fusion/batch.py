"""Batched fusion: run a whole rounds × modules matrix in one call.

:func:`process_matrix` is the engine behind
:meth:`FusionEngine.process_batch` and the top-level :func:`fuse`
facade.  The matrix may stack many series: ``segments`` splits its rows
between engines configured alike (a shard's series engines), one
segment per series, and the default is one segment owned by the
calling engine.  The fault/quorum policy is evaluated for every round
up front with array arithmetic, each segment against its own engine's
roster, then one of five vectorized kernels selected by
:meth:`Voter.batch_kernel` runs over the whole stack:

``stateless``
    CollationVoter (mean / median / nearest-neighbour) — fully
    vectorized across rounds.
``clustering``
    ClusteringOnlyVoter — per-round sorted-runs clustering on
    compacted values with vectorized margins.
``plurality``
    PluralityVoter — sequential tally loop per segment carrying that
    voter's tie-break.
``incoherence``
    IncoherenceMaskingVoter — dynamic margins precomputed for all
    rounds, then a sequential loop per segment over the voter's own
    ``_apply``/``_outcome`` core (the mask hysteresis is a genuine
    cross-round dependency).
``history``
    The Standard/Me/Sdt/Hybrid/AVOC family — margins, agreement scores,
    record steps, weights, elimination and collation run once over the
    whole stack.  Every plain one-row segment (one votable row, records
    for every batch module) takes one shared array step; the rest —
    bootstrap rows, new modules, empty rows, multi-row segments — run
    the history scan per segment, over that series' own records
    (history is a genuine cross-round dependency).

Every path is *bit-identical* to the per-round
:meth:`FusionEngine.process` loop run series by series, in segment
order: engine statistics, ``last_accepted`` carry-over, voter history
state and raised exceptions (a ``raise`` policy leaves the segments
after the failing one untouched).  A voter with an attached history
store runs the kernel too: the ``history`` kernel commits each
segment's final state once per call instead of once per round.  Voters
or engine configurations without a kernel (custom ``vote`` overrides,
exclusion rules, duplicate or empty module names, weighted-majority
collation) fall back to the exact per-round loop, and so does a stack
of one row, since one round costs less through
:meth:`FusionEngine.process` than a kernel call's fixed setup.  Every
round sent down that loop is counted in
``fusion_fallback_rounds_total{algorithm,reason}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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
    segments: Optional[Sequence[Tuple[FusionEngine, int]]] = None,
) -> BatchResult:
    """Fuse every row of ``matrix`` through ``engine`` in one batch.

    Accepts the same inputs as a per-round :meth:`FusionEngine.process`
    loop (NaN or None marks a missing reading) and mutates the engine
    exactly as that loop would: roster learning, ``rounds_processed`` /
    ``rounds_degraded``, ``last_accepted`` and voter history all end
    up in the same state, and ``raise`` fault policies raise the same
    exception at the same round.

    ``segments`` stacks many series into the one call: ``(engine,
    n_rows)`` pairs, in matrix row order, that split the rows between
    distinct engines built with the calling engine's configuration.
    The result and every engine's state are those of calling each
    segment engine's :meth:`~FusionEngine.process_batch` on its own rows
    in segment order (round numbers count from 0 within a segment); a
    ``raise`` policy stops the stack where that loop would stop.  The
    default is one segment: the calling engine owns every row.
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
    if segments is None:
        segments = [(engine, n_rounds)] if n_rounds else []
    else:
        segments = _checked_segments(engine, segments, n_rounds)
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
    reason = None
    if engine.exclusion != "NONE":
        reason = "exclusion"
    elif n_modules == 0 or len(set(modules)) != n_modules:
        reason = "modules"
    else:
        kernel = engine.voter.batch_kernel()
        if kernel is None:
            reason = "voter"
        elif n_rounds == 1:
            reason = "single_round"
    if reason is not None:
        engine._obs.fallback_rounds[reason].inc(n_rounds)
        return _fallback(segments, matrix, modules, diagnostics)

    ctx = _BatchContext(engine, segments, matrix, modules, diagnostics)
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


def _checked_segments(
    engine: FusionEngine,
    segments: Sequence[Tuple[FusionEngine, int]],
    n_rounds: int,
) -> List[Tuple[FusionEngine, int]]:
    """Validate a stack layout against the matrix and the calling engine."""
    checked = [(owner, int(rows)) for owner, rows in segments]
    if any(rows < 1 for _, rows in checked):
        raise FusionError("every segment needs at least one row")
    if sum(rows for _, rows in checked) != n_rounds:
        raise FusionError("segment rows do not add up to the matrix rows")
    if len({id(owner) for owner, _ in checked}) != len(checked):
        # A second segment would have to see the first one's commit.
        raise FusionError("an engine may own only one segment")
    # Engines of one shard share their configuration objects, so the
    # values are compared once per distinct set of objects.
    verified = {_configuration_key(engine)}
    for owner, _ in checked:
        key = _configuration_key(owner)
        if key not in verified:
            if not _same_configuration(engine, owner):
                raise FusionError(
                    "segment engines must share the calling engine's "
                    "configuration"
                )
            verified.add(key)
    return checked


def _configuration_key(engine: FusionEngine) -> Tuple[Any, ...]:
    """The identities of everything :func:`_same_configuration` compares."""
    voter = engine.voter
    return (
        type(voter),
        id(getattr(voter, "params", None)),
        id(getattr(voter, "collation", None)),
        engine.exclusion,
        engine.exclusion_threshold,
        id(engine.fault_policy),
        id(engine.quorum),
    )


def _same_configuration(a: FusionEngine, b: FusionEngine) -> bool:
    """Do two engines vote and degrade rounds identically?"""
    return (
        type(a.voter) is type(b.voter)
        and getattr(a.voter, "params", None) == getattr(b.voter, "params", None)
        and getattr(a.voter, "collation", None)
        == getattr(b.voter, "collation", None)
        and a.exclusion == b.exclusion
        and a.exclusion_threshold == b.exclusion_threshold
        and a.fault_policy == b.fault_policy
        and a.quorum == b.quorum
    )


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
    segments: List[Tuple[FusionEngine, int]],
    matrix: np.ndarray,
    modules: List[str],
    diagnostics: bool,
) -> BatchResult:
    """The exact legacy per-round loop, packaged as a BatchResult."""
    results: List[FusionResult] = []
    first = 0
    for owner, rows in segments:
        for number, row in enumerate(matrix[first : first + rows]):
            mapping = {
                m: (None if is_missing(v) else float(v))
                for m, v in zip(modules, row)
            }
            results.append(owner.process(Round.from_mapping(number, mapping)))
        first += rows
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


def _roster_additions(
    segments: Sequence[Tuple[FusionEngine, int]], modules: List[str]
) -> List[List[str]]:
    """Per segment, the batch modules its engine's roster lacks, in batch
    order — worked out once per distinct roster."""
    by_roster: Dict[Tuple[str, ...], List[str]] = {}
    additions = []
    for owner, _ in segments:
        key = tuple(owner.roster)
        added = by_roster.get(key)
        if added is None:
            known = set(key)
            added = by_roster[key] = [m for m in modules if m not in known]
        additions.append(added)
    return additions


class _BatchContext:
    """Shared per-batch state: policy evaluation, outputs, bookkeeping.

    The rows are a stack of segments, one per engine, kept in ``spans``
    as ``(engine, first row, end row)``.  ``engine`` is the calling
    engine, whose configuration every segment shares; per-series state
    (roster, ``last_accepted``, statistics, voter state) is read and
    written through each segment's own engine.
    """

    def __init__(
        self,
        engine: FusionEngine,
        segments: List[Tuple[FusionEngine, int]],
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
        lengths = [rows for _, rows in segments]
        ends = np.cumsum(lengths).tolist()
        firsts = [0] + ends[:-1]
        self.spans = [
            (owner, first, end)
            for (owner, _), first, end in zip(segments, firsts, ends)
        ]
        # Row -> number of the round within its segment (diagnostics).
        self.round_of = np.arange(self.n_rounds) - np.repeat(firsts, lengths)

        # Every engine learns the batch's modules before its first round
        # (in finish()), so each segment's policy sees that roster size;
        # it is never 0, since the batch has modules.
        self.learned = _roster_additions(segments, modules)
        rosters = [
            len(owner.roster) + len(added)
            for (owner, _), added in zip(segments, self.learned)
        ]
        quorum = engine.quorum
        required_by_size = {r: quorum.required_count(r) for r in set(rosters)}
        roster_size = np.repeat(rosters, lengths)
        required = np.repeat([required_by_size[r] for r in rosters], lengths)
        policy = engine.fault_policy
        reasons = np.zeros(self.n_rounds, dtype=np.int8)
        missing_fraction = 1.0 - self.counts / roster_size
        reasons[missing_fraction > policy.missing_tolerance] = _MISSING
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
        # The first ``raise`` row stops the whole stack: segments before
        # it commit, later ones are never reached.
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
        #: Per-segment state commits, run by finish() in segment order.
        self.writebacks: List[List[Callable[[], None]]] = [[] for _ in segments]

    def reached(self) -> Iterator[Tuple[int, FusionEngine, int, int]]:
        """``(index, engine, first, end)`` of every segment the stack
        reaches: segments wholly past the cutoff are left untouched."""
        for index, (owner, first, end) in enumerate(self.spans):
            if first > self.cutoff:
                return
            yield index, owner, first, end

    def _observe(self, reached: List[Tuple[int, FusionEngine, int, int]]) -> None:
        """Mirror the engine-stat mutations into the metrics registry.

        Engines instrumented against one registry share their counters,
        so each counter is incremented once for all of its segments'
        rows.  Runs before the ``raise``-policy exception, so a rejected
        batch still records the rounds it consumed — exactly like the
        per-round loop, where ``_degraded`` counts before raising.
        """
        limit = min(self.cutoff + 1, self.n_rounds)
        groups: Dict[int, Tuple[Any, List[Tuple[int, int]]]] = {}
        for _, engine, first, end in reached:
            obs = engine._obs
            group = groups.get(id(obs.rounds))
            if group is None:
                group = groups[id(obs.rounds)] = (obs, [])
            group[1].append((first, min(limit, end)))
        for obs, spans in groups.values():
            if not obs.enabled:
                continue
            if len(groups) == 1:
                # The reached segments tile the rows up to the limit.
                codes = self.reasons[:limit]
            else:
                codes = np.concatenate([self.reasons[a:b] for a, b in spans])
            processed = int(codes.size)
            obs.rounds.inc(processed)
            obs.batch_rounds.inc(processed)
            if not codes.any():
                continue
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
        cutoff = self.cutoff
        statuses = np.full(self.n_rounds, "ok", dtype="<U7")
        results: Optional[List[FusionResult]] = (
            [] if self.diagnostics else None
        )
        reached = list(self.reached())
        self._observe(reached)
        # Degraded rows before each row, and the outputs as floats: a
        # segment whose rows all voted settles without a row loop.
        degraded_before = np.concatenate(
            ([0], np.cumsum(self.reasons != 0))
        ).tolist()
        outputs = self.outputs.tolist()
        for index, engine, first, end in reached:
            added = self.learned[index]
            if added:
                engine.roster.extend(added)
            stop = min(end, cutoff)
            if results is None and degraded_before[stop] == degraded_before[first]:
                engine.rounds_processed += stop - first
                if stop > first:
                    engine.last_accepted = outputs[stop - 1]
            else:
                self._settle(engine, first, stop, statuses, results)
            for writeback in self.writebacks[index]:
                writeback()
            if cutoff < end:
                self._reject(engine, first)
        return BatchResult(
            modules=tuple(self.modules),
            values=self.outputs,
            statuses=statuses,
            weights=self.out_weights,
            results=results,
        )

    def _settle(
        self,
        engine: FusionEngine,
        first: int,
        stop: int,
        statuses: np.ndarray,
        results: Optional[List[FusionResult]],
    ) -> None:
        """Statuses, held values and engine statistics of one segment's
        rows before the cutoff, row by row."""
        values = self.outputs
        last = engine.last_accepted
        degraded = 0
        for number in range(first, stop):
            code = int(self.reasons[number])
            round_number = number - first
            if code == 0:
                value = float(values[number])
                last = value
                if results is not None:
                    results.append(
                        FusionResult(
                            round_number=round_number,
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
                            round_number=round_number,
                            value=last,
                            status="held",
                        )
                    )
            else:
                statuses[number] = "skipped"
                values[number] = np.nan
                if results is not None:
                    results.append(
                        FusionResult(
                            round_number=round_number,
                            value=None,
                            status="skipped",
                        )
                    )
        engine.rounds_processed += stop - first
        engine.rounds_degraded += degraded
        engine.last_accepted = last

    def _reject(self, engine: FusionEngine, first: int) -> None:
        """Count and raise the ``raise``-policy round at the cutoff."""
        cutoff = self.cutoff
        engine.rounds_processed += 1
        engine.rounds_degraded += 1
        code = int(self.reasons[cutoff])
        if code == _QUORUM_ENGINE:
            raise QuorumNotReachedError(
                int(self.counts[cutoff]),
                engine.quorum.required_count(len(engine.roster)),
            )
        number = cutoff - first
        if code == _CONFLICT:
            raise FusionError(f"round {number} rejected: no majority")
        reason = (
            "no values present" if code == _EMPTY else "majority of values missing"
        )
        raise FusionError(f"round {number} rejected: {reason}")


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
                round_number=int(ctx.round_of[number]),
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
                round_number=int(ctx.round_of[number]),
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
    """PluralityVoter: a tally loop per segment, each carrying its own
    voter's tie-break."""
    for index, engine, first, end in ctx.reached():
        voter = engine.voter
        tie_break = voter._last_output
        stopped = False
        for number in first + np.flatnonzero(ctx.votable[first:end]):
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
                    stopped = True
                    break
                continue
            tie_break = winner
            ctx.outputs[number] = winner
            if ctx.diagnostics:
                ctx.out_weights[number, ctx.mask[number]] = 1.0
                present = _present_modules(ctx, np.flatnonzero(ctx.mask[number]))
                ctx.outcomes[number] = VoteOutcome(
                    round_number=int(ctx.round_of[number]),
                    value=winner,
                    weights={m: 1.0 for m in present},
                    diagnostics={"tallies": tallies},
                )
        ctx.writebacks[index].append(
            partial(setattr, voter, "_last_output", tie_break)
        )
        if stopped:
            break


def _run_incoherence(ctx: _BatchContext) -> None:
    """IncoherenceMaskingVoter: batch margins + the voter's own core.

    The dynamic margin is the only per-round quantity that vectorizes
    (it dominates the scalar cost via ``np.median``); the mask/score
    recurrence itself is replayed through each segment voter's
    ``_apply`` and ``_outcome`` methods so the two paths cannot drift
    apart.  State is mutated in place — the votable set is fixed up
    front and this kernel never marks conflicts, so there is no
    writeback to defer.
    """
    params = ctx.engine.voter.params
    margins = kernels.batch_dynamic_margins(
        ctx.matrix, params.error, params.min_margin, ctx.counts
    )
    for _, engine, first, end in ctx.reached():
        voter = engine.voter
        ensured = False
        for number in first + np.flatnonzero(ctx.votable[first:end]):
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
                    int(ctx.round_of[number]), names, values, weights, margin,
                    output,
                )


#: Adaptive segment-scan block sizing: start small so event-dense
#: stretches (repeated clips / reseeds) waste little speculative scan
#: work, and double up while blocks commit cleanly so long event-free
#: stretches amortise the per-block overhead.
_SCAN_BLOCK_MIN = 16
_SCAN_BLOCK_MAX = 1024


def _run_history(ctx: _BatchContext) -> None:
    """The history-aware family over a stack of series.

    Margins, agreement scores and the record steps are row-parallel and
    run once over the whole stack; so do weights, elimination and
    collation, once every segment's records are known for each of its
    rounds.  Producing those records is the sequential part
    (:class:`_HistoryScan`): one array step for every plain one-row
    segment, and a per-segment scan, over that series' own module
    universe and state, for the rest.
    """
    voter = ctx.engine.voter
    params = voter.params
    source = voter.weight_source
    eliminates = voter.eliminates and params.elimination != "none"
    fixed_elimination = params.elimination == "fixed"
    elimination_cutoff = params.elimination_threshold
    collation = params.collation.upper()

    scan = _HistoryScan(ctx)
    segments = list(ctx.reached())
    if not ctx.diagnostics and scan.bootstrap_mode != "always":
        segments = scan.plain_rows(segments)
    for index, engine, first, end in segments:
        scan.segment(index, engine, first, end)

    votable_idx = scan.votable_idx
    mask_v = scan.mask_v
    records_v = scan.records_v
    n_v = int(votable_idx.size)
    regular = ~scan.is_bootstrap
    if not regular.any():
        return
    values_v = ctx.matrix[votable_idx]
    scores_v = scan.scores_all[votable_idx]
    counts_v = ctx.counts[votable_idx]
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
            means = kernels.batch_masked_mean(records_v, mask_v, counts_v, regular)
            eliminated_v = records_v < (means[:, None] - 1e-12)
        weights_v[eliminated_v] = 0.0
    out_v = kernels.batch_weighted_collate(
        collation, values_v, weights_v, mask_v, counts_v, regular
    )
    sel = np.flatnonzero(regular)
    ctx.outputs[votable_idx[sel]] = out_v[sel]
    if not ctx.diagnostics:
        return
    for v_first, v_end, universe, before_univ, final in scan.scanned:
        for i in range(v_first, v_end):
            if not regular[i]:
                continue
            number = int(votable_idx[i])
            present = np.flatnonzero(mask_v[i])
            names = _present_modules(ctx, present)
            weights = weights_v[i, present]
            # The next round's before-state is this round's after-state;
            # the segment's last round's is its final state.
            k = i - v_first
            after = before_univ[k + 1] if i + 1 < v_end else final
            ctx.out_weights[number, present] = weights
            ctx.outcomes[number] = VoteOutcome(
                round_number=int(ctx.round_of[number]),
                value=float(out_v[i]),
                weights={m: float(w) for m, w in zip(names, weights)},
                history=dict(zip(universe, after.tolist())),
                agreement={
                    m: float(s) for m, s in zip(names, scores_v[i, present])
                },
                eliminated=tuple(m for m, w in zip(names, weights) if w == 0.0),
            )


class _HistoryScan:
    """The records each votable row of a history-kernel stack votes with.

    :meth:`plain_rows` steps every plain one-row segment at once;
    :meth:`segment` scans one segment round by round.  Both fill
    ``records_v`` (records per votable row, in matrix column order) and
    ``is_bootstrap``, and queue each segment's state commit on the
    context.
    """

    def __init__(self, ctx: _BatchContext):
        from ..voting.avoc import AvocVoter

        voter = ctx.engine.voter
        params = voter.params
        self.ctx = ctx
        self.params = params
        self.avoc = isinstance(voter, AvocVoter)
        self.bootstrap_mode = params.bootstrap_mode if self.avoc else "never"
        self.auto_bootstrap = self.bootstrap_mode == "auto"
        self.failure_tolerance = getattr(voter, "FAILURE_TOLERANCE", 0.05)
        history = voter.history
        self.additive = history.policy == "additive"
        self.one_minus_lr = 1.0 - history.learning_rate
        self.collate = kernels.collation_function(params.collation.upper())

        self.margins = kernels.batch_dynamic_margins(
            ctx.matrix, params.error, params.min_margin, ctx.counts
        )
        self.scores_all = kernels.batch_agreement_scores(
            ctx.matrix,
            self.margins,
            voter.agreement_kind,
            params.soft_threshold,
            ctx.mask,
            ctx.counts,
            ctx.votable,
        )
        # The clamp and the state-independent half of the record update
        # are the same expression for every round — hoist them out of
        # the scan.
        clamped_all = np.minimum(np.maximum(self.scores_all, 0.0), 1.0)
        if self.additive:
            self.step_all = (
                history.reward * clamped_all
                - history.penalty * (1.0 - clamped_all)
            )
        else:
            self.step_all = history.learning_rate * clamped_all

        self.votable_idx = np.flatnonzero(ctx.votable)
        n_v = int(self.votable_idx.size)
        self.mask_v = ctx.mask[self.votable_idx]
        self.records_v = np.empty((n_v, ctx.n_modules))
        self.is_bootstrap = np.zeros(n_v, dtype=bool)
        #: Per scanned segment: (first, end) in votable space, its module
        #: universe, per-round before-states and final state (diagnostics).
        self.scanned: List[Tuple[int, int, List[str], np.ndarray, np.ndarray]] = []

    def plain_rows(
        self, segments: List[Tuple[int, FusionEngine, int, int]]
    ) -> List[Tuple[int, FusionEngine, int, int]]:
        """One array step for every plain one-row segment.

        A plain segment has one votable row, and its records already
        hold every batch module.  Their records are gathered into one
        rows × modules array; rows that would fire an AVOC ``auto``
        bootstrap are left to the scan, and the rest take the record
        update in one expression — the elementwise IEEE expression of
        ``HistoryRecords.update_at`` and the scan.  Returns the segments
        left for :meth:`segment`.
        """
        ctx = self.ctx
        key = tuple(ctx.modules)
        votable = ctx.votable
        rest = []
        plain = []
        for segment in segments:
            _, engine, first, end = segment
            if end - first == 1 and votable[first]:
                history = engine.voter.history
                slots = history.slots_for(key, create=False)
                if slots is not None:
                    plain.append((segment, history, slots))
                    continue
            rest.append(segment)
        if not plain:
            return rest
        rows = np.fromiter(
            (segment[2] for segment, _, _ in plain), dtype=np.intp, count=len(plain)
        )
        before = np.stack([history.values_at(slots) for _, history, slots in plain])
        present = ctx.mask[rows]
        if self.auto_bootstrap:
            updates = np.fromiter(
                (history.update_count for _, history, _ in plain),
                dtype=np.int64,
                count=len(plain),
            )
            # The scalar triggers: a fresh set (no update yet, every
            # present record 1) or a failed one (every present record at
            # or below the tolerance).
            fresh = (updates == 0) & np.all(
                (np.abs(before - 1.0) <= 1e-12) | ~present, axis=1
            )
            failed = np.all((before <= self.failure_tolerance) | ~present, axis=1)
            reseed = fresh | failed
            if reseed.any():
                rest.extend(plain[k][0] for k in np.flatnonzero(reseed))
                keep = np.flatnonzero(~reseed)
                plain = [plain[k] for k in keep]
                rows, before, present = rows[keep], before[keep], present[keep]
                if not plain:
                    return rest
        step = self.step_all[rows]
        if self.additive:
            updated = before + step
        else:
            updated = self.one_minus_lr * before + step
        after = np.where(present, np.minimum(np.maximum(updated, 0.0), 1.0), before)
        self.records_v[np.searchsorted(self.votable_idx, rows)] = before
        for (segment, history, slots), values in zip(plain, after):
            ctx.writebacks[segment[0]].append(
                partial(
                    _commit_row,
                    segment[1].voter,
                    slots,
                    values,
                    history.update_count + 1,
                )
            )
        return rest

    def segment(self, index: int, engine: FusionEngine, first: int, end: int) -> None:
        """Scan one segment's rounds over that series' own records."""
        ctx = self.ctx
        params = self.params
        avoc = self.avoc
        bootstrap_mode = self.bootstrap_mode
        auto_bootstrap = self.auto_bootstrap
        failure_tolerance = self.failure_tolerance
        additive = self.additive
        one_minus_lr = self.one_minus_lr
        collate = self.collate
        margins = self.margins
        step_all = self.step_all
        votable_idx = self.votable_idx
        is_bootstrap = self.is_bootstrap

        seg_voter = engine.voter
        seg_history = seg_voter.history
        existing = list(seg_history.modules)
        known = set(existing)
        universe = existing + [m for m in ctx.modules if m not in known]
        n_univ = len(universe)
        state = np.asarray([seg_history.get(m) for m in universe], dtype=float)
        column_of = {m: i for i, m in enumerate(universe)}
        cols = np.asarray([column_of[m] for m in ctx.modules], dtype=np.intp)
        update_count0 = seg_history.update_count
        bootstraps = seg_voter.bootstraps_used if avoc else 0
        v_first, v_end = np.searchsorted(votable_idx, (first, end)).tolist()
        n_seg = v_end - v_first
        rows = votable_idx[v_first:v_end]
        seg_mask = self.mask_v[v_first:v_end]
        before_univ = np.empty((n_seg, n_univ))
        step_univ = present_univ = None

        def scalar_round(i: int) -> None:
            """One segment-boundary round, exactly as the scalar loop.

            Handles the rounds the vectorized scans cannot express:
            AVOC bootstrap reseeds and additive updates the clamp
            actually alters.
            """
            nonlocal bootstraps
            before_univ[i] = state
            number = int(rows[i])
            present = np.flatnonzero(seg_mask[i])
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
                is_bootstrap[v_first + i] = True
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
                        round_number=int(ctx.round_of[number]),
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
            step = step_all[number, present]
            if additive:
                updated = records + step
            else:
                updated = one_minus_lr * records + step
            state[slots] = np.minimum(np.maximum(updated, 0.0), 1.0)

        i = 0
        block = _SCAN_BLOCK_MIN
        if auto_bootstrap and update_count0 == 0 and n_seg:
            # The "fresh set" trigger needs update_count == 0, which
            # only the very first voted round can satisfy — check it
            # scalar, then the scans only watch the "failed" trigger.
            scalar_round(0)
            i = 1
        while i < n_seg:
            b = min(block, n_seg - i)
            if bootstrap_mode == "always" or b == 1:
                scalar_round(i)
                i += 1
                continue
            if step_univ is None:
                # Steps and presence in record-universe column space:
                # absent modules carry a 0.0 step (additive: x + 0.0 ==
                # x bitwise) and a False presence bit (EMA skips them).
                step_univ = np.zeros((n_seg, n_univ))
                step_univ[:, cols] = np.where(seg_mask, step_all[rows], 0.0)
                present_univ = np.zeros((n_seg, n_univ), dtype=bool)
                present_univ[:, cols] = seg_mask
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
                    | ~seg_mask[i : i + b],
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
        self.records_v[v_first:v_end] = before_univ[:, cols]
        if ctx.diagnostics:
            self.scanned.append((v_first, v_end, universe, before_univ, state))

        update_count = update_count0 + n_seg
        rounds_voted = seg_voter._rounds_voted + n_seg
        # HistoryAwareVoter.vote calls history.ensure() before it rejects
        # an empty round — those rounds materialise records without
        # updating them.
        limit = min(ctx.cutoff + 1, end)
        materialised = bool(n_seg) or bool(
            np.any(ctx.reasons[first:limit] == _EMPTY)
        )
        final = state

        def writeback() -> None:
            if materialised:
                seg_history.absorb(dict(zip(universe, final)), update_count)
            seg_voter._rounds_voted = rounds_voted
            if avoc:
                seg_voter._bootstraps_used = bootstraps

        ctx.writebacks[index].append(writeback)


def _commit_row(voter: Voter, slots: np.ndarray, values: np.ndarray,
                update_count: int) -> None:
    """Write back one plain segment's array step (see ``_run_history``)."""
    voter.history.commit_at(slots, values, update_count)
    voter._rounds_voted += 1
