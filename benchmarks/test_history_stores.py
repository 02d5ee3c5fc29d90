"""History datastore backends compared (the §7 bottleneck, itemised).

Times a full history-aware voting round against every store backing
behind :class:`TieredHistoryStore` — memory, SQLite and packed, each
write-through and (for the durable ones) with write-behind batching
(``flush_every=16``) — and checks the ordering a deployment would base
its choice on.
"""

from __future__ import annotations

import itertools
import time

from repro.analysis.report import render_table
from repro.history import (
    MemoryStateStore,
    PackedHistoryStore,
    SqliteStateStore,
    TieredHistoryStore,
)
from repro.types import Round
from repro.voting.hybrid import HybridVoter

VALUES = [18.0, 18.1, 17.9, 18.15, 18.05]


def _tiered(backing, flush_every=1):
    return TieredHistoryStore(backing, flush_every=flush_every).store_for("s")


def _time_store(store, n=200):
    voter = HybridVoter(history_store=store)
    counter = itertools.count()
    rounds = [Round.from_values(next(counter), VALUES) for _ in range(n)]
    start = time.perf_counter()
    for voting_round in rounds:
        voter.vote(voting_round)
    return (time.perf_counter() - start) / n


def test_store_backend_comparison(benchmark, tmp_path):
    def measure():
        _time_store(None, n=100)  # warm caches before comparing
        return {
            "none (in-process)": _time_store(None),
            "tiered(memory)": _time_store(_tiered(MemoryStateStore())),
            "tiered(sqlite)": _time_store(
                _tiered(SqliteStateStore(tmp_path / "a.db"))
            ),
            "tiered(sqlite)+flush16": _time_store(
                _tiered(SqliteStateStore(tmp_path / "b.db"), flush_every=16)
            ),
            "tiered(packed)": _time_store(
                _tiered(PackedHistoryStore(tmp_path / "tiered"))
            ),
            "tiered(packed)+flush16": _time_store(
                _tiered(PackedHistoryStore(tmp_path / "tiered16"), flush_every=16)
            ),
        }

    timings = benchmark.pedantic(measure, iterations=1, rounds=1)
    rows = [[name, f"{t * 1e6:.1f}"] for name, t in timings.items()]
    print("\nHistory-aware round latency per store backend (µs):")
    print(render_table(["backend", "µs/round"], rows))

    # Only orderings with large expected effect sizes are asserted —
    # these are micro-benchmarks on a shared host, and small deltas sit
    # inside the scheduling jitter.
    slack = 1.10
    assert timings["none (in-process)"] <= timings["tiered(sqlite)"] * slack
    assert timings["tiered(sqlite)+flush16"] <= timings["tiered(sqlite)"] * slack
    # Write-behind batching never costs more than ~50 % over its
    # backing store (it only adds dict copies between flushes).
    assert timings["tiered(sqlite)+flush16"] <= timings["tiered(sqlite)"] * 1.5
    assert timings["tiered(sqlite)"] > timings["none (in-process)"] * 0.9
    # Batching writes through the tiered hot set must not cost more
    # than the write-through path (it skips 15 of 16 block appends).
    assert (
        timings["tiered(packed)+flush16"] <= timings["tiered(packed)"] * 1.1
    )
