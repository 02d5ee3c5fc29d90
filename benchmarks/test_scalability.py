"""Scalability: how voting latency grows with redundancy degree.

The paper motivates high redundancy ("in smart shopping scenarios ...
the degree of redundancy rises significantly to dozens of proximity
sensors") and claims soft-real-time feasibility.  These benchmarks
sweep the module count and check the per-round cost stays compatible
with the paper's 8-samples/s polling budget even at dozens of modules.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from repro.analysis.report import render_table
from repro.types import Round
from repro.voting.registry import create_voter

MODULE_COUNTS = (5, 9, 25, 50, 100)


def _round_factory(n_modules, seed=0):
    rng = np.random.default_rng(seed)
    counter = itertools.count()

    def next_round():
        values = list(18.0 + rng.normal(0.0, 0.1, size=n_modules))
        return Round.from_values(next(counter), values)

    return next_round


def _mean_latency(algorithm, n_modules, iterations=150):
    voter = create_voter(algorithm)
    next_round = _round_factory(n_modules)
    rounds = [next_round() for _ in range(iterations)]
    start = time.perf_counter()
    for voting_round in rounds:
        voter.vote(voting_round)
    return (time.perf_counter() - start) / iterations


def test_latency_vs_module_count(benchmark):
    benchmark.pedantic(
        _mean_latency, args=("avoc", 25), iterations=1, rounds=1
    )
    rows = []
    for n in MODULE_COUNTS:
        rows.append(
            [n]
            + [
                f"{_mean_latency(alg, n) * 1e6:.0f}"
                for alg in ("average", "clustering", "hybrid", "avoc")
            ]
        )
    print("\nPer-round latency (µs) vs module count:")
    print(render_table(
        ["modules", "average", "clustering", "hybrid", "avoc"], rows
    ))
    # 8 samples/s leaves a 125 ms budget; even 100 modules must fit
    # comfortably (the agreement matrix is O(n²) but n is small).
    assert _mean_latency("avoc", 100) < 0.125


def test_history_store_cost_scales_with_roster(benchmark, tmp_path):
    from repro.history import SqliteStateStore, TieredHistoryStore
    from repro.voting.hybrid import HybridVoter

    def run(n_modules):
        store = TieredHistoryStore(SqliteStateStore(tmp_path / f"h{n_modules}.db"))
        voter = HybridVoter(history_store=store.store_for("s"))
        next_round = _round_factory(n_modules)
        start = time.perf_counter()
        for _ in range(100):
            voter.vote(next_round())
        return (time.perf_counter() - start) / 100

    benchmark.pedantic(run, args=(9,), iterations=1, rounds=1)
    rows = [[n, f"{run(n) * 1e6:.0f}"] for n in (5, 25, 100)]
    print("\nStore-backed per-round latency (µs) vs roster size:")
    print(render_table(["modules", "µs/round"], rows))


def test_quadratic_agreement_matrix_is_the_dominant_term(benchmark):
    """Agreement is O(n²): going 5 -> 50 modules should cost well under
    the naive 100x (NumPy vectorisation) but clearly more than 1x."""

    def ratio():
        small = _mean_latency("hybrid", 5, iterations=200)
        large = _mean_latency("hybrid", 50, iterations=200)
        return large / small

    value = benchmark.pedantic(ratio, iterations=1, rounds=1)
    print(f"\nlatency ratio 50 vs 5 modules: {value:.1f}x")
    assert 1.0 < value < 100.0


def test_batch_throughput_vs_module_count(benchmark):
    """Batch-path throughput sweep over the redundancy degrees.

    The dense stateless kernel is O(rounds x modules) flat NumPy; even
    at 100 modules the batch path must process a 2'000-round matrix in
    a small fraction of the paper's 125 ms-per-round budget *total*.
    """
    from repro.fusion.engine import FusionEngine

    def sweep():
        rng = np.random.default_rng(7)
        rows = []
        for n in MODULE_COUNTS:
            matrix = 18.0 + 0.1 * rng.standard_normal((2_000, n))
            cells = []
            for algorithm in ("average", "avoc"):
                engine = FusionEngine(
                    create_voter(algorithm),
                    roster=[f"E{i+1}" for i in range(n)],
                )
                start = time.perf_counter()
                engine.process_batch(matrix)
                cells.append(2_000 / (time.perf_counter() - start))
            rows.append([n] + [f"{c:,.0f}" for c in cells])
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    print("\nBatch throughput (rounds/s) vs module count:")
    print(render_table(["modules", "average", "avoc"], rows))
