"""The history batch kernel on store-backed voters.

A voter with an attached history store runs the same vectorized
``history`` kernel as a store-less one and commits each batch's final
state once.  The contract under test, for every history-aware voter
under both record policies, in batches of 1, 2 and 50 rows, over a
memory and a packed backing:

* values, statuses, records, ``update_count`` and ``bootstraps_used``
  are bit-identical to a store-less engine and to ``fuse()``;
* after every batch the backing store holds exactly the in-memory
  records and update counter;
* ``put_state`` runs once per batch that voted, never per round;
* all of it holds when the series is evicted and rehydrated from the
  backing between batches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.light_uc1 import UC1Config, generate_uc1_dataset
from repro.exceptions import FusionError
from repro.fusion.batch import fuse
from repro.fusion.engine import FusionEngine
from repro.fusion.faults import FaultPolicy
from repro.history import MemoryStateStore, PackedHistoryStore, TieredHistoryStore
from repro.obs import MetricsRegistry
from repro.voting.registry import create_voter

from .test_batch import inject_gaps

ALGORITHMS = ("standard", "me", "sdt", "hybrid", "avoc")
POLICIES = ("additive", "ema")
BATCH_ROWS = (1, 2, 50)
SERIES = "s"


class CountingTieredStore(TieredHistoryStore):
    """A tiered store that counts its state commits."""

    def __init__(self, backing):
        super().__init__(backing, registry=MetricsRegistry())
        self.puts = 0

    def put_state(self, series, records, updates):
        self.puts += 1
        super().put_state(series, records, updates)


@pytest.fixture(scope="module")
def uc1_clean():
    data = generate_uc1_dataset(UC1Config(n_rounds=150))
    return data.matrix, list(data.modules)


@pytest.fixture(scope="module")
def uc1(uc1_clean):
    matrix, modules = uc1_clean
    return inject_gaps(matrix), modules


@pytest.fixture(params=("memory", "packed"))
def tiered(request, tmp_path):
    if request.param == "memory":
        backing = MemoryStateStore()
    else:
        backing = PackedHistoryStore(tmp_path / "packed")
    store = CountingTieredStore(backing)
    yield store
    store.close()


def voter_for(algorithm, policy, store=None):
    params = create_voter(algorithm).params.with_overrides(history_policy=policy)
    return create_voter(algorithm, params=params, history_store=store)


def bootstraps(voter):
    return getattr(voter, "bootstraps_used", 0)


@pytest.mark.parametrize("evict", (False, True), ids=("resident", "evicted"))
@pytest.mark.parametrize("rows", BATCH_ROWS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_store_backed_kernel_is_bit_identical(
    uc1, tiered, algorithm, policy, rows, evict
):
    matrix, modules = uc1
    view = tiered.store_for(SERIES)
    stored = FusionEngine(voter_for(algorithm, policy, view), roster=modules)
    plain = FusionEngine(voter_for(algorithm, policy), roster=modules)
    assert stored.voter.batch_kernel() == "history"
    retired_bootstraps = 0
    values, statuses = [], []

    for start in range(0, matrix.shape[0], rows):
        chunk = matrix[start : start + rows]
        if evict and start:
            # Drop the series from the hot tier and rebuild the voter
            # from the backing: records and update counter rehydrate.
            tiered.evict(SERIES)
            retired_bootstraps += bootstraps(stored.voter)
            stored.voter = voter_for(algorithm, policy, view)
        updates_before = stored.voter.history.update_count
        puts_before = tiered.puts

        got = stored.process_batch(chunk, modules)
        want = plain.process_batch(chunk, modules)

        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.statuses, want.statuses)
        history, reference = stored.voter.history, plain.voter.history
        assert history.snapshot() == reference.snapshot()
        assert history.update_count == reference.update_count
        voted = history.update_count > updates_before
        assert tiered.puts - puts_before == (1 if voted else 0)
        state = tiered.backing.read(SERIES) or ({}, 0)
        assert state == (history.snapshot(), history.update_count)
        values.append(got.values)
        statuses.append(got.statuses)

    assert retired_bootstraps + bootstraps(stored.voter) == bootstraps(plain.voter)
    oracle_voter = voter_for(algorithm, policy)
    oracle = fuse(matrix, oracle_voter, modules)
    np.testing.assert_array_equal(np.concatenate(values), oracle.values)
    np.testing.assert_array_equal(np.concatenate(statuses), oracle.statuses)
    assert stored.voter.history.snapshot() == oracle_voter.history.snapshot()
    assert stored.voter.history.update_count == oracle_voter.history.update_count
    assert bootstraps(plain.voter) == bootstraps(oracle_voter)


# -- stacked calls: many series through one kernel call -----------------------
#
# ``process_batch(..., segments=[(engine, n_rows), ...])`` fuses the rows
# of many series at once.  The contract: every answer, and every
# engine's records, update counter, bootstraps, ``last_accepted`` and
# round counters, are those of fusing each series on its own —
# per-series ``process_batch`` calls in segment order, and ``fuse()``
# over each series' whole stream.

STACK_ALGORITHMS = (
    "average",
    "clustering",
    "plurality",
    "incoherence",
    "standard",
    "me",
    "hybrid",
    "avoc",
)
N_SERIES = 6


def series_streams(matrix, rounded=False):
    """Six series cut from one recording, each with its own quirks.

    Every third series carries the +6 E4 offset fault; every series has
    NaN gaps, one single-gap row and one majority-missing row.
    """
    streams = []
    for k in range(N_SERIES):
        rows = matrix[9 * k : 9 * k + 60].copy()
        if k % 3 == 0:
            rows[:, 3] += 6.0
        rows[4 + k, 1] = np.nan
        rows[10 + k, 0:3] = np.nan
        streams.append(np.round(rows) if rounded else rows)
    return streams


def stack_plan(seed=3, requests=14):
    """Request layouts: ``[(series, n_rows), ...]`` per request.

    The first request makes three series fresh at once; later ones mix
    fresh and warm series, segments of 1 and of k rows, and one-row
    requests (which run the per-round path).
    """
    rng = np.random.default_rng(seed)
    plan = [[(0, 1), (1, 1), (2, 4)]]
    for r in range(requests):
        if r % 5 == 4:
            plan.append([(int(rng.integers(N_SERIES)), 1)])
            continue
        members = rng.permutation(N_SERIES)[: int(rng.integers(2, N_SERIES + 1))]
        plan.append([(int(k), int(rng.choice([1, 1, 2, 3]))) for k in members])
    return plan


def engine_for(algorithm, fault_policy=None):
    return FusionEngine(create_voter(algorithm), fault_policy=fault_policy)


def engine_state(engine):
    voter = engine.voter
    history = getattr(voter, "history", None)
    return {
        "records": history.snapshot() if history is not None else None,
        "updates": history.update_count if history is not None else None,
        "bootstraps": bootstraps(voter),
        "last_accepted": engine.last_accepted,
        "rounds_processed": engine.rounds_processed,
        "rounds_degraded": engine.rounds_degraded,
        "roster": list(engine.roster),
        "last_output": getattr(voter, "_last_output", None),
    }


def run_plan(make_engine, streams, plan, modules):
    """Feed ``plan`` stacked and per series; return both sides."""
    stacked = [make_engine() for _ in streams]
    alone = [make_engine() for _ in streams]
    cursor = [0] * len(streams)
    answers = {k: ([], []) for k in range(len(streams))}
    for request in plan:
        chunks = []
        for k, n in request:
            chunks.append(streams[k][cursor[k] : cursor[k] + n])
            cursor[k] += n
        segments = [(stacked[k], len(c)) for (k, _), c in zip(request, chunks)]
        owner = stacked[request[0][0]]
        got = owner.process_batch(
            np.concatenate(chunks), modules, segments=segments
        )
        row = 0
        for (k, _), chunk in zip(request, chunks):
            want = alone[k].process_batch(chunk, modules)
            n = len(chunk)
            np.testing.assert_array_equal(got.values[row : row + n], want.values)
            np.testing.assert_array_equal(
                got.statuses[row : row + n], want.statuses
            )
            answers[k][0].append(got.values[row : row + n])
            answers[k][1].append(got.statuses[row : row + n])
            row += n
    for k, (engine, reference) in enumerate(zip(stacked, alone)):
        assert engine_state(engine) == engine_state(reference), k
    return stacked, answers, cursor


@pytest.mark.parametrize("algorithm", STACK_ALGORITHMS)
def test_mixed_stacks_match_per_series_fuse(uc1, algorithm):
    matrix, modules = uc1
    rounded = algorithm == "plurality"
    streams = series_streams(matrix, rounded=rounded)
    stacked, answers, cursor = run_plan(
        lambda: engine_for(algorithm), streams, stack_plan(), modules
    )
    for k, engine in enumerate(stacked):
        oracle = FusionEngine(create_voter(algorithm))
        want = oracle.process_batch(streams[k][: cursor[k]], modules)
        np.testing.assert_array_equal(np.concatenate(answers[k][0]), want.values)
        np.testing.assert_array_equal(
            np.concatenate(answers[k][1]), want.statuses
        )
        assert engine_state(engine) == engine_state(oracle)


def test_avoc_spec_stacks_match_fuse(uc1):
    """The shard's engine: AVOC spec, 100 % quorum (gaps are skipped),
    held rounds on a majority of missing readings."""
    from repro.vdx.examples import AVOC_SPEC
    from repro.vdx.factory import build_engine

    matrix, modules = uc1
    streams = series_streams(matrix)
    # A segment whose only row is skipped, and one held row.
    plan = stack_plan() + [[(0, 1), (1, 1)]]
    streams[0][sum(n for r in plan[:-1] for k, n in r if k == 0), 2] = np.nan
    streams[1][sum(n for r in plan[:-1] for k, n in r if k == 1), 0:3] = np.nan
    stacked, answers, cursor = run_plan(
        lambda: build_engine(AVOC_SPEC), streams, plan, modules
    )
    assert answers[0][1][-1].tolist() == ["skipped"]
    assert answers[1][1][-1].tolist() == ["held"]
    for k, engine in enumerate(stacked):
        want = fuse(streams[k][: cursor[k]], AVOC_SPEC, modules)
        np.testing.assert_array_equal(np.concatenate(answers[k][0]), want.values)
        np.testing.assert_array_equal(
            np.concatenate(answers[k][1]), want.statuses
        )
        reference = build_engine(AVOC_SPEC)
        reference.process_batch(streams[k][: cursor[k]], modules)
        assert engine_state(engine) == engine_state(reference)


def test_each_segment_counts_against_its_own_roster(uc1_clean):
    """A series that once saw an extra module keeps it in its roster, so
    the 100 % quorum fails its rounds while its neighbour's pass."""
    from repro.vdx.examples import AVOC_SPEC
    from repro.vdx.factory import build_engine

    matrix, modules = uc1_clean
    rows = matrix[10:14]
    sides = {}
    for side in ("stacked", "alone"):
        narrow, wide = build_engine(AVOC_SPEC), build_engine(AVOC_SPEC)
        wide.process_batch(
            np.column_stack([matrix[:3], matrix[:3, 0]]), modules + ["X"]
        )
        sides[side] = (narrow, wide)
    narrow, wide = sides["stacked"]
    got = narrow.process_batch(
        np.vstack([rows, rows]), modules, segments=[(narrow, 4), (wide, 4)]
    )
    want = [engine.process_batch(rows, modules) for engine in sides["alone"]]
    assert got.statuses.tolist() == ["ok"] * 4 + ["skipped"] * 4
    np.testing.assert_array_equal(
        got.values, np.concatenate([w.values for w in want])
    )
    for engine, reference in zip(sides["stacked"], sides["alone"]):
        assert engine_state(engine) == engine_state(reference)


@pytest.mark.parametrize("evict", (False, True), ids=("resident", "evicted"))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_store_backed_stacks_commit_once_per_series(
    uc1, tiered, algorithm, policy, evict
):
    """One ``put_state`` per voting series per stack, and the backing
    holds every series' final state, also across evict and rehydrate."""
    matrix, modules = uc1
    streams = series_streams(matrix)
    names = [f"s{k}" for k in range(N_SERIES)]
    stacked = [
        FusionEngine(voter_for(algorithm, policy, tiered.store_for(name)))
        for name in names
    ]
    alone = [FusionEngine(voter_for(algorithm, policy)) for _ in names]
    cursor = [0] * N_SERIES
    for request in stack_plan(seed=11):
        if evict:
            for k, _ in request:
                tiered.evict(names[k])
                retired = stacked[k]
                stacked[k] = FusionEngine(
                    voter_for(algorithm, policy, tiered.store_for(names[k]))
                )
                stacked[k].last_accepted = retired.last_accepted
        chunks = []
        for k, n in request:
            chunks.append(streams[k][cursor[k] : cursor[k] + n])
            cursor[k] += n
        before = [stacked[k].voter.history.update_count for k, _ in request]
        puts = tiered.puts
        got = stacked[request[0][0]].process_batch(
            np.concatenate(chunks),
            modules,
            segments=[(stacked[k], len(c)) for (k, _), c in zip(request, chunks)],
        )
        voted = sum(
            stacked[k].voter.history.update_count > b
            for (k, _), b in zip(request, before)
        )
        if len(got.values) > 1:
            assert tiered.puts - puts == voted
        want = np.concatenate(
            [alone[k].process_batch(c, modules).values
             for (k, _), c in zip(request, chunks)]
        )
        np.testing.assert_array_equal(got.values, want)
        for k, _ in request:
            history = stacked[k].voter.history
            reference = alone[k].voter.history
            assert history.snapshot() == reference.snapshot()
            assert history.update_count == reference.update_count
            state = tiered.backing.read(names[k]) or ({}, 0)
            assert state == (history.snapshot(), history.update_count)


@pytest.mark.parametrize("stop_in", (0, 2, 3))
@pytest.mark.parametrize("algorithm", ("average", "plurality", "avoc"))
def test_raise_policy_stops_the_stack_where_the_loop_stops(
    uc1_clean, algorithm, stop_in
):
    """Segments before the raising one commit, the raising one commits
    up to its failing row, later ones are never touched."""
    matrix, modules = uc1_clean
    streams = series_streams(matrix, rounded=algorithm == "plurality")
    strict = FaultPolicy(on_missing_majority="raise", on_conflict="raise")
    lengths = [3, 1, 4, 2]
    chunks = [streams[k][20 : 20 + n].copy() for k, n in enumerate(lengths)]
    chunks[stop_in][-1, 1:4] = np.nan  # majority missing: raise
    stacked = [engine_for(algorithm, fault_policy=strict) for _ in lengths]
    alone = [engine_for(algorithm, fault_policy=strict) for _ in lengths]
    for engines in (stacked, alone):
        for k, engine in enumerate(engines):
            if k % 2:  # half the series are warm
                engine.process_batch(streams[k][30:42], modules)

    with pytest.raises(FusionError) as stacked_error:
        stacked[0].process_batch(
            np.concatenate(chunks),
            modules,
            segments=list(zip(stacked, lengths)),
        )
    with pytest.raises(FusionError) as alone_error:
        for engine, chunk in zip(alone, chunks):
            engine.process_batch(chunk, modules)
    assert str(stacked_error.value) == str(alone_error.value)
    for k, (engine, reference) in enumerate(zip(stacked, alone)):
        assert engine_state(engine) == engine_state(reference), k
    untouched = stacked[stop_in + 1 :]
    assert all(e.rounds_processed == (12 if k % 2 else 0)
               for k, e in enumerate(untouched, start=stop_in + 1))


def test_stacked_diagnostics_number_rounds_per_segment(uc1):
    matrix, modules = uc1
    streams = series_streams(matrix)
    lengths = [3, 1, 5]
    stacked = [engine_for("avoc") for _ in lengths]
    alone = [engine_for("avoc") for _ in lengths]
    chunks = [streams[k][:n] for k, n in enumerate(lengths)]
    got = stacked[0].process_batch(
        np.concatenate(chunks),
        modules,
        diagnostics=True,
        segments=list(zip(stacked, lengths)),
    )
    want = [e.process_batch(c, modules, diagnostics=True)
            for e, c in zip(alone, chunks)]
    assert got.results == [r for w in want for r in w.results]
    np.testing.assert_array_equal(
        got.weights, np.concatenate([w.weights for w in want])
    )


class TestSegmentValidation:
    def test_rows_must_add_up(self):
        a, b = engine_for("avoc"), engine_for("avoc")
        with pytest.raises(FusionError, match="add up"):
            a.process_batch(np.ones((3, 3)), segments=[(a, 1), (b, 1)])
        with pytest.raises(FusionError, match="at least one row"):
            a.process_batch(np.ones((2, 3)), segments=[(a, 2), (b, 0)])

    def test_one_segment_per_engine(self):
        a, b = engine_for("avoc"), engine_for("avoc")
        with pytest.raises(FusionError, match="only one segment"):
            a.process_batch(np.ones((3, 3)), segments=[(a, 1), (b, 1), (a, 1)])

    def test_engines_must_share_the_configuration(self):
        a, b = engine_for("avoc"), engine_for("hybrid")
        with pytest.raises(FusionError, match="configuration"):
            a.process_batch(np.ones((2, 3)), segments=[(a, 1), (b, 1)])
        c = engine_for("avoc", fault_policy=FaultPolicy(on_conflict="raise"))
        with pytest.raises(FusionError, match="configuration"):
            a.process_batch(np.ones((2, 3)), segments=[(a, 1), (c, 1)])
        assert a.rounds_processed == 0


# -- one-row stacks: the array step against the per-series loop ---------------
#
# A stack of one-row segments takes one array step for every *plain*
# segment (one votable row, records that already hold every batch
# module); bootstrap rows, segments lacking a module, empty rows and
# multi-row segments stay on the per-segment scan.  Every kind meets in
# one stack here, and each engine must end exactly as the per-series
# ``engine.process`` loop leaves it.

HISTORY_SPECS = ("AVOC", "Hybrid", "Standard", "Me", "Sdt")
ONE_ROW_KINDS = (
    "fresh",  # never voted: records lack every module
    "materialised",  # records all 1, no update yet: the AVOC fresh set
    "warm",
    "faulty",  # E4 carries the +6 offset fault
    "failed",  # every record at or below FAILURE_TOLERANCE
    "failed_but_one",  # ... except E5, which its lenient row lacks
    "edges",  # records exactly at 0.0 and 1.0
    "ones",  # records all 1 after updates: no fresh set
    "seeded",  # no update yet, records 1 but for E5, which its lenient row lacks
    "narrow",  # records lack E5
    "empty_row",  # an all-missing row
    "gap_row",  # one missing reading: quorum-failed under the spec
    "multi",  # a three-row segment
)
SPEC_COUNTERS = (
    "fusion_rounds_total",
    "fusion_rounds_degraded_total",
    "fusion_quorum_failures_total",
)


def history_variants():
    variants = []
    for name in HISTORY_SPECS:
        modes = ("auto", "always", "never") if name == "AVOC" else (None,)
        for mode in modes:
            for policy in POLICIES:
                variants.append(
                    pytest.param(
                        name, mode, policy, id=f"{name}-{mode or 'spec'}-{policy}"
                    )
                )
    return variants


def history_engine(name, mode, policy, config, store=None, registry=None):
    """An engine of the named example spec, with the record policy and
    (AVOC) bootstrap mode overridden, under one fault configuration:
    ``spec`` (its own 100 % quorum), ``lenient`` (no quorum, so partial
    rows vote and an all-missing row reaches the voter) or ``raise``."""
    from repro.fusion.quorum import QuorumRule
    from repro.vdx.examples import all_example_specs
    from repro.vdx.factory import build_voter

    spec = all_example_specs()[name]
    voter = build_voter(spec)
    overrides = {"history_policy": policy}
    if mode is not None:
        overrides["bootstrap_mode"] = mode
    voter = type(voter)(
        params=voter.params.with_overrides(**overrides), history_store=store
    )
    engine = FusionEngine.from_spec(spec, voter, registry=registry)
    if config == "lenient":
        engine.quorum = QuorumRule()
        # FaultPolicy validation keeps the tolerance below 1, which
        # leaves an all-missing row to the voter's EmptyRoundError only
        # when the check is bypassed; the kernel handles that row too.
        lenient = FaultPolicy()
        object.__setattr__(lenient, "missing_tolerance", 1.0)
        engine.fault_policy = lenient
    elif config == "raise":
        engine.fault_policy = FaultPolicy(on_missing_majority="raise")
    return engine


def process_rows(engine, rows, modules):
    """The per-series loop: ``engine.process`` row by row, from round 0."""
    from repro.types import Round

    return [
        engine.process(
            Round.from_mapping(
                number,
                {m: (None if np.isnan(v) else float(v)) for m, v in zip(modules, row)},
            )
        )
        for number, row in enumerate(rows)
    ]


def prepare(engine, kind, matrix, modules):
    """Bring a series to its kind's state (identically on both sides)."""
    history = engine.voter.history
    rows = matrix[:4].copy()
    if kind == "faulty":
        rows[:, 3] += 6.0
    if kind == "fresh":
        return
    if kind == "materialised":
        history.ensure(modules)
        return
    if kind == "narrow":
        process_rows(engine, rows[:, :4], modules[:4])
        return
    process_rows(engine, rows, modules)
    pinned = {
        "failed": [0.01, 0.05, 0.0, 0.03, 0.04],
        "failed_but_one": [0.01, 0.05, 0.0, 0.03, 0.6],
        "edges": [0.0, 1.0, 1.0, 0.0, 0.5],
        "ones": [1.0] * 5,
        "seeded": [1.0, 1.0, 1.0, 1.0, 0.2],
    }.get(kind)
    if pinned is not None:
        # A seed without an update (as a rebalance resync leaves it)
        # keeps the counter at 0.
        updates = 0 if kind == "seeded" else history.update_count
        history.absorb(dict(zip(modules, pinned)), updates)


def request_rows(kind, matrix, config, offset):
    """The rows a kind's segment sends in one request."""
    rows = matrix[offset : offset + (3 if kind == "multi" else 1)].copy()
    if kind == "faulty":
        rows[:, 3] += 6.0
    elif kind == "empty_row" and offset == 10:
        rows[:] = np.nan
    elif kind == "gap_row":
        rows[:, 1] = np.nan
    elif kind in ("failed_but_one", "seeded") and config == "lenient":
        rows[:, 4] = np.nan
    return rows


def engine_fields(engine):
    """Every state field the stacked call must leave as the loop does."""
    voter = engine.voter
    history = voter.history
    return {
        "records": list(history.snapshot().items()),
        "updates": history.update_count,
        "rounds_voted": voter._rounds_voted,
        "bootstraps": bootstraps(voter),
        "last_accepted": engine.last_accepted,
        "counters": (engine.rounds_processed, engine.rounds_degraded),
        "roster": list(engine.roster),
    }


def counters(registry):
    snapshot = registry.snapshot()
    return {name: snapshot.get(name, {}).get("samples") for name in SPEC_COUNTERS}


def run_one_row_stacks(uc1_clean, name, mode, policy, config, attached, order):
    matrix, modules = uc1_clean
    sides = {}
    for side in ("stacked", "loop"):
        registry = MetricsRegistry()
        tiered = (
            TieredHistoryStore(MemoryStateStore(), registry=registry)
            if attached and side == "stacked"
            else None
        )
        engines = {}
        for kind in ONE_ROW_KINDS:
            store = tiered.store_for(kind) if tiered is not None else None
            engines[kind] = history_engine(
                name, mode, policy, config, store=store, registry=registry
            )
            prepare(engines[kind], kind, matrix, modules)
        sides[side] = (engines, registry, tiered)

    engines, registry, tiered = sides["stacked"]
    reference, ref_registry, _ = sides["loop"]
    errors = {}
    for offset in (10, 20):
        request = [(kind, request_rows(kind, matrix, config, offset)) for kind in order]
        try:
            got = engines[order[0]].process_batch(
                np.concatenate([rows for _, rows in request]),
                modules,
                segments=[(engines[kind], len(rows)) for kind, rows in request],
            )
        except FusionError as error:
            got, errors["stacked"] = None, str(error)
        want = []
        try:
            for kind, rows in request:
                want += process_rows(reference[kind], rows, modules)
        except FusionError as error:
            errors["loop"] = str(error)
        if got is not None:
            np.testing.assert_array_equal(
                got.values,
                [np.nan if r.value is None else r.value for r in want],
            )
            assert got.statuses.tolist() == [r.status for r in want]
        for kind in ONE_ROW_KINDS:
            assert engine_fields(engines[kind]) == engine_fields(reference[kind]), kind
            if tiered is not None:
                history = engines[kind].voter.history
                state = tiered.backing.read(kind) or ({}, 0)
                assert state == (history.snapshot(), history.update_count), kind
        assert counters(registry) == counters(ref_registry)
        if errors:
            break
    return errors


@pytest.mark.parametrize("attached", (False, True), ids=("detached", "attached"))
@pytest.mark.parametrize("config", ("spec", "lenient"))
@pytest.mark.parametrize("name,mode,policy", history_variants())
def test_one_row_stacks_match_the_per_series_loop(
    uc1_clean, name, mode, policy, config, attached
):
    errors = run_one_row_stacks(
        uc1_clean, name, mode, policy, config, attached, list(ONE_ROW_KINDS)
    )
    assert errors == {}


@pytest.mark.parametrize("name,mode,policy", history_variants())
def test_raise_cuts_a_one_row_stack_where_the_loop_stops(
    uc1_clean, name, mode, policy
):
    """The all-missing row of the middle segment raises: segments before
    it commit (through the array step or the scan), later ones stay
    untouched, as in the per-series loop."""
    kinds = list(ONE_ROW_KINDS)
    kinds.remove("empty_row")
    order = kinds[:6] + ["empty_row"] + kinds[6:]
    errors = run_one_row_stacks(
        uc1_clean, name, mode, policy, "raise", True, order
    )
    assert errors["stacked"] == errors["loop"] == "round 0 rejected: majority of values missing"


def test_one_row_stack_takes_the_array_step(uc1_clean, monkeypatch):
    """Tripwire: a 64 × 1-row AVOC stack over resident, non-bootstrap
    series neither scans a segment nor re-interns records through
    ``absorb``; each series commits once through ``commit_at``."""
    from repro.fusion import batch
    from repro.vdx.examples import AVOC_SPEC
    from repro.vdx.factory import build_engine
    from repro.voting.history import HistoryRecords

    matrix, modules = uc1_clean
    tiered = TieredHistoryStore(MemoryStateStore(), registry=MetricsRegistry())
    engines = [
        build_engine(AVOC_SPEC, history_store=tiered.store_for(f"s{k}"))
        for k in range(64)
    ]
    for k, engine in enumerate(engines):
        engine.process_batch(matrix[k : k + 3], modules)
    calls = {"segment": 0, "absorb": 0, "commit_at": 0}

    def counting(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        batch._HistoryScan, "segment",
        counting("segment", batch._HistoryScan.segment),
    )
    for method in ("absorb", "commit_at"):
        monkeypatch.setattr(
            HistoryRecords, method, counting(method, getattr(HistoryRecords, method))
        )
    with tiered.commit_scope():
        result = engines[0].process_batch(
            matrix[80:144], modules, segments=[(e, 1) for e in engines]
        )
    assert result.statuses.tolist() == ["ok"] * 64
    assert calls == {"segment": 0, "absorb": 0, "commit_at": 64}


def test_stack_counts_each_registry_once(uc1_clean):
    """Segments instrumented against two registries: each registry's
    counters read as the per-series loop leaves them."""
    matrix, modules = uc1_clean
    rows = matrix[30:36].copy()
    rows[1, 0:3] = np.nan  # majority missing: held
    rows[4, 2] = np.nan  # quorum failure: skipped
    snapshots = {}
    for side in ("stacked", "loop"):
        registries = (MetricsRegistry(), MetricsRegistry())
        engines = [
            history_engine("AVOC", None, "ema", "spec", registry=registries[k % 2])
            for k in range(6)
        ]
        for engine in engines:
            process_rows(engine, matrix[:3], modules)
        if side == "stacked":
            engines[0].process_batch(
                rows, modules, segments=[(e, 1) for e in engines]
            )
        else:
            for engine, row in zip(engines, rows):
                process_rows(engine, row[None, :], modules)
        snapshots[side] = [counters(registry) for registry in registries]
    assert snapshots["stacked"] == snapshots["loop"]
