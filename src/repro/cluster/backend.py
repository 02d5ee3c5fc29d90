"""Shard backends: a multi-series voter server under process supervision.

:class:`ShardServer` extends the single-engine
:class:`~repro.service.server.VoterServer` to host one
:class:`~repro.fusion.engine.FusionEngine` per *series* key, each with
durable history state in the shard's store, and adds the cluster
operations:
``vote_batch`` (many rounds of many series through
:meth:`~repro.fusion.engine.FusionEngine.process_batch`, the
vectorized hot path) and ``sync_history`` (the rebalance/failover
seeding write).  Voted rounds are cached per series, so a gateway
replaying a round after a transport failure gets the original result
back instead of an ``already voted`` error — the property that makes
failover retries safe.  The cache is bounded (gateway retries are
short-lived); beyond it a persisted per-series *voted watermark* — the
highest round number ever voted, appended to a log next to the history
stores — guarantees a round is never applied to history twice, even
across a crash: a replay that falls behind the cache is refused
instead of re-applied, and the replica set's majority answers it.

:class:`ManagedBackend` runs a shard server in a forked subprocess
(falling back to an in-process thread where ``fork`` is unavailable)
with liveness probes and restart-on-crash; the history store lives on
disk, so a restarted shard resumes voting with its reliability records
and update counters intact.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import threading
from array import array
from bisect import bisect_left
from collections import OrderedDict
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..exceptions import ReproError
from ..history import (
    DEFAULT_HOT_SERIES,
    MemoryStateStore,
    PackedHistoryStore,
    SqliteStateStore,
    TieredHistoryStore,
)
from ..history.migrate import series_filename
from ..runtime.pool import fork_available
from ..service.client import VoterClient
from ..service.protocol import ErrorCode, ProtocolError, ok_response
from ..service.server import VoterServer, _numeric
from ..util import atomic_write
from ..vdx.factory import build_engine
from ..vdx.spec import VotingSpec

__all__ = ["ManagedBackend", "ShardServer", "STORE_KINDS"]

#: Storage tiers selectable per shard (the ``--store`` knob).
STORE_KINDS = ("packed", "sqlite", "memory")

#: Replay-cache payloads kept per series.  Gateway retries are
#: short-lived (bounded backoff), so a small window is plenty; rounds
#: evicted from it are still protected against double-application by
#: the persisted voted watermark.
DEFAULT_REPLAY_CACHE_ROUNDS = 1024

#: Watermark-log appends between compactions (the log is append-only
#: per voted round; compaction rewrites it to one line per series).
_WATERMARK_COMPACT_EVERY = 4096


#: Round statuses, by their code in a :class:`_ReplayWindow`.
_STATUSES = ("ok", "held", "skipped")
_STATUS_CODES = {status: code for code, status in enumerate(_STATUSES)}


def _round_payload(
    number: int, value: Optional[float], status: str
) -> Dict[str, Any]:
    """One round's answer, as ``vote``/``vote_batch`` and replays send it."""
    return {"round": number, "value": value, "status": status}


class _ReplayWindow:
    """One series' replay cache: the answers of its latest rounds.

    Three parallel arrays sorted by round number, about 17 bytes per
    round; a dict entry per round costs 85 bytes or more, and a shard
    keeps up to ``replay_cache_rounds`` of them for every series.
    Rounds of a series arrive in increasing order, so a put appends.
    """

    __slots__ = ("rounds", "values", "codes")

    def __init__(self) -> None:
        self.rounds = array("q")
        self.values = array("d")
        self.codes = bytearray()

    def __len__(self) -> int:
        return len(self.rounds)

    def _slot(self, number: int) -> int:
        rounds = self.rounds
        if not rounds or number > rounds[-1]:
            return -1  # a round newer than any cached: the usual lookup
        slot = bisect_left(rounds, number)
        return slot if rounds[slot] == number else -1

    def __contains__(self, number: int) -> bool:
        return self._slot(number) >= 0

    def payload(self, number: int) -> Optional[Dict[str, Any]]:
        """The cached answer for ``number``, rebuilt, or None."""
        slot = self._slot(number)
        if slot < 0:
            return None
        status = _STATUSES[self.codes[slot]]
        value = None if status == "skipped" else self.values[slot]
        return _round_payload(number, value, status)

    def put(
        self, number: int, value: Optional[float], status: str, bound: int
    ) -> None:
        """Cache a new round; beyond ``bound`` rounds, drop the oldest."""
        if not -(2**63) <= number < 2**63:
            return  # too wide for the array: a retry meets the watermark
        slot = bisect_left(self.rounds, number)
        self.rounds.insert(slot, number)
        self.values.insert(slot, math.nan if value is None else value)
        self.codes.insert(slot, _STATUS_CODES[status])
        excess = len(self.rounds) - bound
        if excess > 0:
            del self.rounds[:excess]
            del self.values[:excess]
            del self.codes[:excess]


class ShardServer(VoterServer):
    """A voter server hosting many series, one engine per series key.

    Requests without a ``series`` field behave exactly like the plain
    :class:`VoterServer` (single shared engine); requests carrying one
    are routed to that series' engine, created lazily from the same
    VDX spec.  With ``history_dir`` set, each series persists through a
    :class:`~repro.history.tiered.TieredHistoryStore` over the selected
    ``store`` backing (``packed`` by default — the mmap segment store
    that scales to millions of series; ``sqlite``; ``memory``).

    Engine residency is LRU-bounded at ``max_resident_series``: a
    shard builds at most that many engines in its life.  Once it is
    full, a series that is not resident — new, hosted before a restart,
    or evicted — takes over the least-recently-used engine, which is
    reset and rebound to the series' stored state (every vote already
    wrote the evicted series' state through the tiered store).  The
    rebound engine votes bit-identically to one that never left memory.
    """

    #: Shards deduplicate rounds and replay cached results, so peers
    #: (via ``hello``) may safely re-send a ``vote`` after a transport
    #: failure.
    _replays_votes = True

    def __init__(
        self,
        spec: VotingSpec,
        host: str = "127.0.0.1",
        port: int = 0,
        history_dir=None,
        registry=None,
        replay_cache_rounds: int = DEFAULT_REPLAY_CACHE_ROUNDS,
        store: Optional[str] = None,
        max_resident_series: Optional[int] = DEFAULT_HOT_SERIES,
        maintenance_interval: Optional[float] = None,
    ):
        super().__init__(spec, host=host, port=port, registry=registry)
        self._history_dir = Path(history_dir) if history_dir is not None else None
        self.replay_cache_rounds = max(1, int(replay_cache_rounds))
        if max_resident_series is not None and max_resident_series < 1:
            raise ReproError(
                f"max_resident_series must be >= 1 or None, "
                f"got {max_resident_series}"
            )
        self.max_resident_series = max_resident_series
        self._engines: "OrderedDict[str, Any]" = OrderedDict()
        self._series_pending: Dict[str, Dict[int, Dict[str, Optional[float]]]] = {}
        # Replay cache: the answer payload is rebuilt on replay, which
        # keeps each round small.
        self._series_voted: Dict[str, _ReplayWindow] = {}
        self._series_watermark: Dict[str, int] = self._load_watermarks()
        self._watermark_appends = 0
        if self._history_dir is not None:
            self._history_dir.mkdir(parents=True, exist_ok=True)
        # Each series' last accepted value, kept beside its watermark: an
        # engine rebound after eviction holds degraded rounds with it.
        # It lives in memory only, so a restart still loses it.
        self._series_last: Dict[str, Any] = {}
        self._tiered = self._build_tiered_store(store, maintenance_interval)
        # Series hosted before a restart (or evicted since): engines are
        # created lazily on their first request, so a freshly restarted
        # shard answers for the history it holds on disk without paying
        # a cold-start rehydration of every series up front.
        self._known_series = set(self._load_series_index())
        if self._tiered is not None:
            self._known_series.update(self._tiered.series())

    def _build_tiered_store(
        self, store: Optional[str], maintenance_interval: Optional[float]
    ) -> Optional[TieredHistoryStore]:
        if store is None:
            # Default: durable shards use the packed store; shards
            # without a history directory keep their records in memory.
            store = "packed" if self._history_dir is not None else None
        if store is None:
            return None
        if store not in STORE_KINDS:
            raise ReproError(
                f"unknown store {store!r}; expected one of {STORE_KINDS}"
            )
        if store != "memory" and self._history_dir is None:
            raise ReproError(f"store {store!r} requires a history directory")
        if store == "packed":
            backing = PackedHistoryStore(self._history_dir / "packed")
            if not len(backing) and any(
                (self._history_dir / series_filename(key)).exists()
                for key in self._load_series_index()
            ):
                # Starting every series fresh would silently drop the
                # history a pre-packed shard left in per-series logs.
                backing.close()
                raise ReproError(
                    f"{self._history_dir} holds legacy JSONL history logs; "
                    f"run `avoc store migrate {self._history_dir}` first"
                )
        elif store == "sqlite":
            backing = SqliteStateStore(self._history_dir / "series-state.db")
        else:
            backing = MemoryStateStore()
        return TieredHistoryStore(
            backing,
            hot_series=self.max_resident_series,
            registry=self.registry,
            maintenance_interval=maintenance_interval,
            maintenance_hook=self._background_maintenance,
        )

    def _background_maintenance(self) -> None:
        """Maintenance-thread hook: compact the watermark log off-path."""
        with self._lock:
            if self._watermark_appends >= _WATERMARK_COMPACT_EVERY:
                self._write_watermarks()

    @property
    def tiered_store(self) -> Optional[TieredHistoryStore]:
        """The shard's tiered history store (None for store-less shards)."""
        return self._tiered

    def stop(self) -> None:
        super().stop()
        if self._tiered is not None:
            self._tiered.close()

    def _series_index_path(self) -> Optional[Path]:
        if self._history_dir is None:
            return None
        return self._history_dir / "series-index.json"

    def _load_series_index(self) -> List[str]:
        path = self._series_index_path()
        if path is None or not path.exists():
            return []
        try:
            return list(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, ValueError):  # pragma: no cover - corrupt index
            return []

    def _record_series(self, *series: str) -> None:
        """Register new series, with one index write for all of them."""
        self._known_series.update(series)
        self._write_series_index()

    def _write_series_index(self) -> None:
        """Rewrite ``series-index.json`` from the known series."""
        path = self._series_index_path()
        if path is None:
            return
        # Atomic rewrite: a crash mid-write must leave the previous
        # complete index, never a truncated one that would make the
        # restarted shard forget every series it hosts.
        atomic_write(path, json.dumps(sorted(self._known_series)))

    # -- voted watermarks ----------------------------------------------------

    def _watermark_path(self) -> Optional[Path]:
        if self._history_dir is None:
            return None
        return self._history_dir / "voted-rounds.jsonl"

    def _load_watermarks(self) -> Dict[str, int]:
        path = self._watermark_path()
        watermarks: Dict[str, int] = {}
        if path is None or not path.exists():
            return watermarks
        try:
            for line in path.read_text(encoding="utf-8").splitlines():
                if not line.strip():
                    continue
                entry = json.loads(line)
                series, number = str(entry["series"]), int(entry["round"])
                if number > watermarks.get(series, number - 1):
                    watermarks[series] = number
        except (OSError, ValueError, KeyError):  # pragma: no cover - corrupt log
            return watermarks
        return watermarks

    def _write_watermarks(self) -> None:
        path = self._watermark_path()
        if path is None:
            return
        lines = [
            json.dumps({"series": series, "round": number})
            for series, number in sorted(self._series_watermark.items())
        ]
        atomic_write(path, "".join(line + "\n" for line in lines))
        self._watermark_appends = 0

    def _record_watermark(self, marks: Mapping[str, int]) -> None:
        """Advance (never rewind) the persisted voted watermarks of
        ``{series: round}``, with one append for all of them."""
        lines = []
        for series, number in marks.items():
            current = self._series_watermark.get(series)
            if current is not None and number <= current:
                continue
            self._series_watermark[series] = number
            lines.append(json.dumps({"series": series, "round": number}) + "\n")
        path = self._watermark_path()
        if path is None or not lines:
            return
        if self._watermark_appends >= _WATERMARK_COMPACT_EVERY:
            self._write_watermarks()
            return
        with path.open("a", encoding="utf-8") as handle:
            handle.write("".join(lines))
        self._watermark_appends += len(lines)

    def _already_voted(self, series: str, number: int) -> bool:
        """Voted before but no cached payload left to replay?"""
        if number in self._series_voted.get(series, ()):
            return False
        watermark = self._series_watermark.get(series)
        return watermark is not None and number <= watermark

    def _replay(self, series: str, number: int) -> Optional[Dict[str, Any]]:
        """The cached answer of an already voted round, or None."""
        window = self._series_voted.get(series)
        return window.payload(number) if window is not None else None

    def _cache_result(
        self, series: str, number: int, value: Optional[float], status: str
    ) -> None:
        window = self._series_voted.get(series)
        if window is None:
            window = self._series_voted[series] = _ReplayWindow()
        window.put(number, value, status, self.replay_cache_rounds)

    # -- per-series engines ------------------------------------------------

    def _engine_for(self, series: str, create: bool = True):
        engine = self._engines.get(series)
        if engine is not None:
            self._engines.move_to_end(series)
            return engine
        known = series in self._known_series
        if not create and not known:
            raise ProtocolError(
                f"unknown series {series!r}", code=ErrorCode.UNKNOWN_SERIES
            )
        # A known-but-not-resident series (evicted, or hosted before a
        # restart) rehydrates here: its HistoryRecords restore
        # ``(records, update_count)`` through the tiered store and its
        # last accepted value comes back from the shard, so it votes
        # bit-identically to an engine that never left memory.
        if (
            self._tiered is not None
            and self.max_resident_series is not None
            and len(self._engines) >= self.max_resident_series
        ):
            engine = self._recycle_engine(series)
        else:
            store = (
                self._tiered.store_for(series)
                if self._tiered is not None
                else None
            )
            engine = build_engine(
                self.spec, history_store=store, registry=self.registry
            )
        engine.last_accepted = self._series_last.get(series)
        self._engines[series] = engine
        if not known:
            self._record_series(series)
        return engine

    def _recycle_engine(self, series: str):
        """Evict the least-recently-used engine and rebind it to ``series``.

        The engine ends up as :func:`build_engine` would build it over
        ``series``' store view: voter state and counters reset, roster
        empty, records and update counter loaded from the store.
        Nothing is written here: every commit path already wrote the
        evicted series' state through to the store.
        """
        evicted, engine = self._engines.popitem(last=False)
        history = getattr(engine.voter, "history", None)
        attached = history is not None and history.store is not None
        if attached:
            # Detach first: HistoryRecords.reset() clears its store,
            # which would delete the evicted series' state.
            history.attach(None)
        engine.reset()
        engine.roster = []
        self._tiered.evict(evicted)
        if attached:
            history.attach(self._tiered.store_for(series))
        return engine

    @property
    def series_hosted(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self._engines) | self._known_series))

    @property
    def resident_series(self) -> Tuple[str, ...]:
        """Series with a live engine right now (LRU order, oldest first)."""
        return tuple(self._engines)

    # -- series-routed voting ----------------------------------------------

    def _series_vote(
        self, series: str, number: int, values: Dict[str, Optional[float]]
    ) -> Dict[str, Any]:
        from ..types import Round

        cached = self._replay(series, number)
        if cached is not None:
            # Replayed write: answer with the original result.
            return cached
        if self._already_voted(series, number):
            # Voted before this process (re)started, or evicted from the
            # bounded cache: refuse rather than apply to history twice.
            raise ProtocolError(
                f"round {number} was already voted",
                code=ErrorCode.ALREADY_VOTED,
            )
        engine = self._engine_for(series)
        # Watermark before commit: a crash between the two leaves the
        # round refused on retry, never applied to history twice.
        self._record_watermark({series: number})
        result = engine.process(Round.from_mapping(number, values))
        self._series_last[series] = engine.last_accepted
        self._cache_result(series, number, result.value, result.status)
        return _round_payload(number, result.value, result.status)

    def _op_vote(self, request) -> Dict[str, Any]:
        series = request.get("series")
        if series is None:
            return super()._op_vote(request)
        values = {str(m): _numeric(m, v) for m, v in request["values"].items()}
        return ok_response(result=self._series_vote(series, request["round"], values))

    def _op_vote_batch(self, request) -> Dict[str, Any]:
        # Two passes: assemble and validate every matrix first so a
        # malformed later batch cannot leave earlier ones half-applied.
        prepared: List[Tuple[Dict[str, Any], np.ndarray, List[str], List[int]]] = []
        for batch in request["batches"]:
            series = batch["series"]
            try:
                matrix = np.asarray(batch["rows"], dtype=float)
            except (TypeError, ValueError):
                raise ProtocolError(
                    f"batch for series {series!r} has non-numeric values",
                    code=ErrorCode.INVALID_VALUE,
                )
            if matrix.size and np.isinf(matrix).any():
                raise ProtocolError(
                    f"batch for series {series!r} contains non-finite values",
                    code=ErrorCode.INVALID_VALUE,
                )
            modules = [str(m) for m in batch["modules"]]
            rounds = list(batch["rounds"])
            for number in rounds:
                if self._already_voted(series, number):
                    raise ProtocolError(
                        f"round {number} for series {series!r} was "
                        "already voted",
                        code=ErrorCode.ALREADY_VOTED,
                    )
            prepared.append((batch, matrix, modules, rounds))

        # Request-local answers per series: replay-cache hits as of the
        # request's start (the shared cache is bounded and may evict
        # them meanwhile), then every round this request votes.  One
        # watermark append covers every fresh round and is made before
        # any engine commits: a crash in between leaves the retried
        # rounds refused, never applied twice.
        answered: Dict[str, Dict[int, Dict[str, Any]]] = {}
        marks: Dict[str, int] = {}
        for batch, _, _, rounds in prepared:
            series = batch["series"]
            known = answered.setdefault(series, {})
            fresh = []
            for number in rounds:
                cached = self._replay(series, number)
                if cached is not None:
                    known[number] = cached
                else:
                    fresh.append(number)
            if fresh:
                top = max(fresh)
                marks[series] = max(top, marks.get(series, top))
        if marks:
            self._record_watermark(marks)
        # Every new series of the request with one index write, before
        # any commit (as a lone ``vote`` registers its series).
        new = {batch["series"] for batch, _, _, _ in prepared}
        new -= self._known_series
        if new:
            self._record_series(*new)

        # Consecutive batches with one module list fuse in one kernel
        # call.  A series seen again starts a new stack, so its second
        # batch sees the first one's commit and replays its rounds.  A
        # stack holds at most ``max_resident_series`` series: gathering
        # more would recycle an engine the stack already holds.
        bound = self.max_resident_series if self._tiered is not None else None
        stack: List[Tuple[str, np.ndarray, List[int]]] = []
        stacked: Set[str] = set()
        stack_modules: List[str] = []
        for batch, matrix, modules, rounds in prepared:
            series = batch["series"]
            if stack and (
                modules != stack_modules
                or series in stacked
                or len(stack) == bound
            ):
                self._vote_stack(stack, stack_modules, answered)
                stack, stacked = [], set()
            known = answered[series]
            fresh: List[int] = []
            seen = set()
            for i, number in enumerate(rounds):
                if number not in known and number not in seen:
                    seen.add(number)
                    fresh.append(i)
            if fresh:
                stack.append((series, matrix[fresh], [rounds[i] for i in fresh]))
                stacked.add(series)
                stack_modules = modules
        if stack:
            self._vote_stack(stack, stack_modules, answered)
        return ok_response(
            results=[
                {
                    "series": batch["series"],
                    "results": [answered[batch["series"]][n] for n in rounds],
                }
                for batch, _, _, rounds in prepared
            ]
        )

    def _vote_stack(
        self,
        stack: List[Tuple[str, np.ndarray, List[int]]],
        modules: List[str],
        answered: Dict[str, Dict[int, Dict[str, Any]]],
    ) -> None:
        """Fuse the fresh rows of many series with one kernel call.

        ``stack`` holds ``(series, rows, round numbers)`` of at most
        ``max_resident_series`` distinct series.  Their history commits
        leave the call as one backing write (the tiered store's commit
        scope), written even when a ``raise`` policy stops the call
        after some segments committed.
        """
        engines = [self._engine_for(series) for series, _, _ in stack]
        matrix = np.concatenate([rows for _, rows, _ in stack])
        scope = (
            self._tiered.commit_scope()
            if self._tiered is not None
            else nullcontext()
        )
        try:
            with scope:
                outcome = engines[0].process_batch(
                    matrix,
                    modules,
                    segments=[
                        (engine, len(numbers))
                        for engine, (_, _, numbers) in zip(engines, stack)
                    ],
                )
        finally:
            for (series, _, _), engine in zip(stack, engines):
                self._series_last[series] = engine.last_accepted
        values = outcome.values.tolist()
        statuses = outcome.statuses.tolist()
        row = 0
        for series, _, numbers in stack:
            known = answered[series]
            for number in numbers:
                value, status = values[row], statuses[row]
                row += 1
                if math.isnan(value):
                    value = None
                known[number] = _round_payload(number, value, status)
                self._cache_result(series, number, value, status)

    # -- incremental submission, per series --------------------------------

    def _op_submit(self, request) -> Dict[str, Any]:
        series = request.get("series")
        if series is None:
            return super()._op_submit(request)
        number = request["round"]
        if number in self._series_voted.get(series, ()) or self._already_voted(
            series, number
        ):
            raise ProtocolError(
                f"round {number} was already voted",
                code=ErrorCode.ALREADY_VOTED,
            )
        value = _numeric(request["module"], request["value"])
        pending = self._series_pending.setdefault(series, {})
        bucket = pending.setdefault(number, {})
        bucket[request["module"]] = value
        roster = self._engine_for(series).roster
        complete = bool(roster) and set(bucket) >= set(roster)
        if complete:
            payload = self._series_vote(series, number, pending.pop(number))
            return ok_response(accepted=True, voted=True, result=payload)
        return ok_response(accepted=True, voted=False, pending=len(bucket))

    def _op_close_round(self, request) -> Dict[str, Any]:
        series = request.get("series")
        if series is None:
            return super()._op_close_round(request)
        number = request["round"]
        bucket = self._series_pending.get(series, {}).pop(number, None)
        if bucket is None:
            raise ProtocolError(f"no pending submissions for round {number}")
        return ok_response(result=self._series_vote(series, number, bucket))

    # -- inspection ---------------------------------------------------------

    def _op_history(self, request) -> Dict[str, Any]:
        series = request.get("series")
        if series is None:
            return super()._op_history(request)
        engine = self._engine_for(series, create=False)
        history = getattr(engine.voter, "history", None)
        records = history.snapshot() if history is not None else {}
        return ok_response(
            records=records,
            updates=history.update_count if history is not None else 0,
            watermark=self._series_watermark.get(series),
        )

    def _op_stats(self, request) -> Dict[str, Any]:
        series = request.get("series")
        if series is None:
            response = super()._op_stats(request)
            response["series"] = list(self.series_hosted)
            # Round counters are per-process; a known-but-not-resident
            # series reports 0, exactly as it would after a restart.
            response["series_rounds"] = {
                s: (
                    self._engines[s].rounds_processed
                    if s in self._engines
                    else 0
                )
                for s in self.series_hosted
            }
            response["resident_series"] = len(self._engines)
            return response
        engine = self._engine_for(series, create=False)
        return ok_response(series=series, **engine.statistics())

    def _forget_all_series(self) -> None:
        """Drop every hosted series: engines, stored state, index and logs."""
        if self._tiered is not None:
            self._tiered.clear()
        self._engines.clear()
        self._known_series.clear()
        self._series_pending.clear()
        self._series_voted.clear()
        self._series_watermark.clear()
        self._series_last.clear()
        self._watermark_appends = 0
        for path in (self._series_index_path(), self._watermark_path()):
            if path is not None and path.exists():
                path.unlink()

    def _op_reset(self, request) -> Dict[str, Any]:
        series = request.get("series")
        if series is None:
            self._forget_all_series()
            return super()._op_reset(request)
        self._engines.pop(series, None)
        if self._tiered is not None:
            self._tiered.delete(series)
        self._known_series.discard(series)
        self._series_pending.pop(series, None)
        self._series_voted.pop(series, None)
        self._series_last.pop(series, None)
        if self._series_watermark.pop(series, None) is not None:
            self._write_watermarks()
        self._write_series_index()
        return ok_response(reset=True, series=series)

    def _op_configure(self, request) -> Dict[str, Any]:
        # A scheme swap invalidates every hosted series, records included.
        self._forget_all_series()
        return super()._op_configure(request)

    # -- rebalance handoff --------------------------------------------------

    def _op_sync_history(self, request) -> Dict[str, Any]:
        series = request["series"]
        watermark = request.get("watermark")
        if watermark is not None:
            current = self._series_watermark.get(series)
            if current is not None and int(watermark) < current:
                # The seed was snapshotted before rounds this shard has
                # since voted — applying it would rewind history.
                return ok_response(synced=0, series=series, ignored=True)
        engine = self._engine_for(series)
        history = getattr(engine.voter, "history", None)
        if history is None:
            raise ProtocolError(
                f"series {series!r} voter keeps no history records"
            )
        records = {str(m): float(v) for m, v in request["records"].items()}
        updates = request.get("updates")
        if updates is not None:
            # Versioned seed (failover resync): adopt the survivor's
            # records *and* its update counter, so the bootstrap trigger
            # and EMA warm-up behave as if this shard never crashed.
            history.absorb(records, int(updates))
        else:
            history.seed(records, count_as_update=False)
        if watermark is not None:
            self._record_watermark({series: int(watermark)})
        return ok_response(synced=len(records), series=series)


def _backend_main(
    spec: VotingSpec,
    host: str,
    history_dir,
    store: Optional[str],
    max_resident_series: Optional[int],
    maintenance_interval: Optional[float],
    conn,
) -> None:
    """Subprocess entry: serve one shard until the process is killed."""
    from ..obs import MetricsRegistry

    # The child serves its metrics over the wire (the `obs`/`metrics`
    # ops); a forked copy of the parent registry would only skew labels,
    # so the shard gets its own empty registry instead.
    server = ShardServer(
        spec,
        host=host,
        port=0,
        history_dir=history_dir,
        store=store,
        max_resident_series=max_resident_series,
        maintenance_interval=maintenance_interval,
        registry=MetricsRegistry(),
    )
    server.start()
    conn.send(server.address)
    conn.close()
    threading.Event().wait()


class ManagedBackend:
    """One shard backend under supervision.

    Runs a :class:`ShardServer` in a forked subprocess (``mode="process"``,
    the default where ``fork`` exists) or an in-process thread
    (``mode="thread"``, also the no-fork fallback).  Exposes liveness
    probes, SIGKILL for fault injection, and :meth:`restart`, which
    brings a fresh process up over the same history directory so every
    series resumes with its persisted records.
    """

    def __init__(
        self,
        backend_id: str,
        spec: VotingSpec,
        history_dir=None,
        host: str = "127.0.0.1",
        mode: Optional[str] = None,
        probe_timeout: float = 2.0,
        store: Optional[str] = None,
        max_resident_series: Optional[int] = DEFAULT_HOT_SERIES,
        maintenance_interval: Optional[float] = None,
    ):
        if mode is None:
            mode = "process" if fork_available() else "thread"
        if mode not in ("process", "thread"):
            raise ReproError(f"unknown backend mode {mode!r}")
        if mode == "process" and not fork_available():
            raise ReproError("process-mode backends need the fork start method")
        if store is not None and store not in STORE_KINDS:
            raise ReproError(
                f"unknown store {store!r}; expected one of {STORE_KINDS}"
            )
        self.backend_id = backend_id
        self.spec = spec
        self.host = host
        self.mode = mode
        self.probe_timeout = probe_timeout
        self.store = store
        self.max_resident_series = max_resident_series
        self.maintenance_interval = maintenance_interval
        self.history_dir = Path(history_dir) if history_dir is not None else None
        self.restarts = 0
        self._process: Optional[multiprocessing.process.BaseProcess] = None
        self._server: Optional[ShardServer] = None
        self._address: Optional[Tuple[str, int]] = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise ReproError(f"backend {self.backend_id!r} is not started")
        return self._address

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    def start(self) -> Tuple[str, int]:
        if self._address is not None:
            raise ReproError(f"backend {self.backend_id!r} already started")
        if self.history_dir is not None:
            self.history_dir.mkdir(parents=True, exist_ok=True)
        if self.mode == "thread":
            from ..obs import MetricsRegistry

            # Mirror the process-mode child: each shard owns its own
            # registry so the gateway's `obs` aggregation never
            # double-counts shards sharing the process default.
            self._server = ShardServer(
                self.spec,
                host=self.host,
                port=0,
                history_dir=self.history_dir,
                store=self.store,
                max_resident_series=self.max_resident_series,
                maintenance_interval=self.maintenance_interval,
                registry=MetricsRegistry(),
            )
            self._server.start()
            self._address = self._server.address
        else:
            ctx = multiprocessing.get_context("fork")
            parent_conn, child_conn = ctx.Pipe()
            self._process = ctx.Process(
                target=_backend_main,
                args=(
                    self.spec,
                    self.host,
                    self.history_dir,
                    self.store,
                    self.max_resident_series,
                    self.maintenance_interval,
                    child_conn,
                ),
                daemon=True,
                name=f"shard-{self.backend_id}",
            )
            self._process.start()
            child_conn.close()
            if not parent_conn.poll(timeout=10.0):
                self._process.kill()
                raise ReproError(
                    f"backend {self.backend_id!r} did not report its address"
                )
            self._address = tuple(parent_conn.recv())
            parent_conn.close()
        return self._address

    def is_alive(self) -> bool:
        """Cheap process/thread liveness (no network round-trip)."""
        if self.mode == "thread":
            return self._server is not None and self._server._tcp is not None
        return self._process is not None and self._process.is_alive()

    def ping(self) -> bool:
        """Network liveness: can the shard answer a ping right now?"""
        if self._address is None:
            return False
        try:
            with VoterClient(*self._address, timeout=self.probe_timeout) as client:
                return client.ping()
        except (OSError, ReproError):
            return False

    def kill(self) -> None:
        """Fault injection: SIGKILL the shard (thread mode: hard stop)."""
        if self.mode == "thread":
            if self._server is not None:
                tcp = self._server._tcp
                self._server.stop()
                if tcp is not None:
                    # A killed process drops every connection; a stopped
                    # listener alone would leave peers' sockets healthy.
                    tcp.close_all_connections()
        elif self._process is not None:
            self._process.kill()
            self._process.join(timeout=5.0)

    def stop(self) -> None:
        """Graceful shutdown (idempotent)."""
        if self.mode == "thread":
            server, self._server = self._server, None
            if server is not None:
                server.stop()
        else:
            process, self._process = self._process, None
            if process is not None:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - stuck child
                    process.kill()
                    process.join(timeout=5.0)
        self._address = None

    def restart(self) -> Tuple[str, int]:
        """Replace a dead (or live) shard with a fresh one.

        The new process binds a new port but reuses the history
        directory, so every series it hosted resumes with the records
        it had persisted before the crash.
        """
        self.stop()
        self.restarts += 1
        return self.start()

    def __enter__(self) -> "ManagedBackend":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
