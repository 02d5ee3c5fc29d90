"""Tiered history store baseline (the million-series scaling tentpole).

Three recorded sections, written to ``BENCH_store.json``:

* **cold_start** — wall-clock to rehydrate every series' state from a
  cold store: the packed mmap-segment store versus the legacy
  one-JSONL-log-per-series layout (read through the ``avoc store
  migrate`` reader), at ``STORE_BENCH_SERIES`` series
  (default 100k; the env knob lets the CI smoke run smaller).  Floor:
  packed >= 5x faster.  Enforced only at >= 50k series — tiny
  populations measure file-system noise, so smaller runs record honest
  numbers with ``enforced: false``.
* **residency** — peak traced heap while streaming updates through a
  :class:`TieredHistoryStore` with a bounded hot set versus an
  unbounded one.  The bounded run must stay within its hot-set
  capacity and allocate less than the unbounded run (tracemalloc is
  the proxy for steady-state RSS: the mmap segments live outside the
  Python heap by design).
* **identity** — random vote traces driven through engines whose
  history is evicted and rehydrated mid-stream, compared to
  always-resident references.  Bit-identity is always enforced; there
  is no host on which state divergence is acceptable.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import time
import tracemalloc

from benchmarks.baseline_io import merge_baseline
from repro.history import PackedHistoryStore, TieredHistoryStore
from repro.history.migrate import read_legacy_log, series_filename
from repro.voting.history import HistoryRecords

_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_store.json"

COLD_START_FLOOR = 5.0

#: Series population for the cold-start sweep.  100k by default (the
#: paper-scale point the floor is calibrated at); the CI smoke sets the
#: env knob lower and records with ``enforced: false``.
N_SERIES = int(os.environ.get("STORE_BENCH_SERIES", "100000"))

#: The cold-start floor is only enforced at a population large enough
#: that per-file open() cost dominates over filesystem noise.
ENFORCE_MIN_SERIES = 50_000

MODULES = ("E1", "E2", "E3", "E4", "E5")


def _merge_report(key, payload):
    merge_baseline(_OUT, key, payload)


def _state(k: int):
    rng = random.Random(k)
    return {m: round(rng.random(), 6) for m in MODULES}, k % 977


def test_cold_start_rehydration(benchmark, tmp_path, capsys):
    """Full cold rehydration: packed segments vs per-series JSONL logs."""
    series = [f"series-{k:06d}" for k in range(N_SERIES)]

    packed = PackedHistoryStore(tmp_path / "packed")
    for k, key in enumerate(series):
        records, updates = _state(k)
        packed.write(key, records, updates)
    packed.close()

    # The legacy layout: one single-snapshot log per series (the line
    # format has no update counter).
    legacy = tmp_path / "jsonl"
    legacy.mkdir()
    for k, key in enumerate(series):
        records, _ = _state(k)
        (legacy / series_filename(key)).write_text(
            json.dumps(records, sort_keys=True) + "\n", encoding="utf-8"
        )

    def cold_packed():
        store = PackedHistoryStore(tmp_path / "packed")
        start = time.perf_counter()
        loaded = sum(1 for key in store.series() if store.read(key))
        elapsed = time.perf_counter() - start
        store.close()
        assert loaded == N_SERIES
        return elapsed

    def cold_jsonl():
        start = time.perf_counter()
        loaded = sum(
            1 for key in series if read_legacy_log(legacy / series_filename(key))
        )
        elapsed = time.perf_counter() - start
        assert loaded == N_SERIES
        return elapsed

    def measure():
        return {"packed": cold_packed(), "jsonl": cold_jsonl()}

    timings = benchmark.pedantic(measure, iterations=1, rounds=1)
    speedup = timings["jsonl"] / timings["packed"]
    enforced = N_SERIES >= ENFORCE_MIN_SERIES
    _merge_report(
        "cold_start",
        {
            "n_series": N_SERIES,
            "packed_seconds": timings["packed"],
            "jsonl_seconds": timings["jsonl"],
            "speedup": speedup,
            "floor": COLD_START_FLOOR,
            "enforced": enforced,
        },
    )
    with capsys.disabled():
        print(
            f"\ncold-start rehydration at {N_SERIES} series: "
            f"packed {timings['packed']:.3f}s vs jsonl "
            f"{timings['jsonl']:.3f}s -> {speedup:.1f}x "
            + ("(enforced)" if enforced else "(recorded only: small run)")
        )
    if enforced:
        assert speedup >= COLD_START_FLOOR


def test_steady_state_residency(benchmark, tmp_path, capsys):
    """Bounded hot set holds less heap than keeping every series live."""
    n_series = min(N_SERIES, 20_000)
    hot_bound = 1_024
    rounds = 3

    def drive(directory, hot_series):
        store = TieredHistoryStore(
            PackedHistoryStore(directory), hot_series=hot_series
        )
        tracemalloc.start()
        for _ in range(rounds):
            for k in range(n_series):
                records, updates = _state(k)
                store.put_state(f"series-{k:06d}", records, updates + 1)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        hot_size = store.hot_size
        store.close()
        return peak, hot_size

    def measure():
        unbounded_peak, unbounded_hot = drive(tmp_path / "unbounded", None)
        bounded_peak, bounded_hot = drive(tmp_path / "bounded", hot_bound)
        return {
            "bounded_peak": bounded_peak,
            "unbounded_peak": unbounded_peak,
            "bounded_hot": bounded_hot,
            "unbounded_hot": unbounded_hot,
        }

    out = benchmark.pedantic(measure, iterations=1, rounds=1)
    hot_within_bound = out["bounded_hot"] <= hot_bound
    bounded_under = out["bounded_peak"] < out["unbounded_peak"]
    enforced = n_series >= 10_000
    _merge_report(
        "residency",
        {
            "n_series": n_series,
            "rounds": rounds,
            "hot_bound": hot_bound,
            "hot_size": out["bounded_hot"],
            "hot_within_bound": hot_within_bound,
            "bounded_peak_bytes": out["bounded_peak"],
            "unbounded_peak_bytes": out["unbounded_peak"],
            "bounded_under_unbounded": bounded_under,
            "enforced": enforced,
        },
    )
    with capsys.disabled():
        print(
            f"\nsteady-state heap at {n_series} series x {rounds} rounds: "
            f"bounded({hot_bound}) {out['bounded_peak'] / 1e6:.1f}MB vs "
            f"unbounded {out['unbounded_peak'] / 1e6:.1f}MB "
            f"(hot set {out['bounded_hot']} vs {out['unbounded_hot']})"
        )
    assert hot_within_bound
    if enforced:
        assert bounded_under


def test_evict_rehydrate_identity(benchmark, tmp_path, capsys):
    """Evicted-and-rehydrated engines stay bit-identical mid-stream."""
    n_series = 64
    n_rounds = 40

    def run():
        store = TieredHistoryStore(
            PackedHistoryStore(tmp_path / "identity", segment_bytes=4096),
            hot_series=8,
        )
        references = {
            f"series-{k}": HistoryRecords() for k in range(n_series)
        }
        rng = random.Random(1202)
        identical = True
        for round_no in range(n_rounds):
            for key, reference in references.items():
                # A fresh HistoryRecords per round = the worst case:
                # every series rehydrates through the tiny hot set
                # (and most rounds, from a cold eviction).
                live = HistoryRecords(store=store.store_for(key))
                scores = {m: rng.random() for m in MODULES}
                live.update(scores)
                reference.update(scores)
                identical = identical and (
                    live.snapshot() == reference.snapshot()
                    and live.update_count == reference.update_count
                )
        store.compact()
        # Re-check the full population after compaction moved the blocks.
        for key, reference in references.items():
            live = HistoryRecords(store=store.store_for(key))
            identical = identical and (
                live.snapshot() == reference.snapshot()
                and live.update_count == reference.update_count
            )
        evictions, rehydrations = store.evictions, store.rehydrations
        store.close()
        return identical, evictions, rehydrations

    identical, evictions, rehydrations = benchmark.pedantic(
        run, iterations=1, rounds=1
    )
    _merge_report(
        "identity",
        {
            "n_series": n_series,
            "rounds": n_rounds,
            "evictions": evictions,
            "rehydrations": rehydrations,
            "bit_identical": identical,
        },
    )
    with capsys.disabled():
        print(
            f"\nevict/rehydrate identity: {n_series} series x {n_rounds} "
            f"rounds, {evictions} evictions, {rehydrations} rehydrations "
            f"-> bit_identical={identical}"
        )
    assert identical
    assert evictions > 0 and rehydrations > 0
