"""Correctness oracle: every answered value against ``repro.fuse()``.

For each series the oracle fuses the rows the cluster accepted, in the
order the series voted them, through ``repro.fuse()`` with the same VDX
spec, and requires every answered value to be bit-identical (``None``
on the wire matches NaN).  For a seeded sample of series it also
replays the rows through a reference engine and requires the public
``history`` op to return exactly that engine's final records.

:func:`fuse_rate` times ``repro.fuse()`` alone on a fixed slice of the
workload's series, the single-threaded baseline ``fuse.rounds_per_s``.
"""

from __future__ import annotations

import gc
import math
import time
from typing import List, Optional

import numpy as np

import repro
from repro.vdx.examples import AVOC_SPEC
from repro.vdx.factory import build_engine

#: Series whose final history records are checked per run.
HISTORY_SAMPLE = 8

#: The timed fuse() baseline repeats its pass for at least this long,
#: and at least :data:`FUSE_MIN_PASSES` times; the median pass counts.
#: Single-thread speed on a shared VM drifts over seconds, so a longer
#: span of passes gives a steadier median.
FUSE_SECONDS = 3.0
FUSE_MIN_PASSES = 5


def _same(answer: Optional[float], expected: float) -> bool:
    if answer is None:
        return math.isnan(expected)
    return not math.isnan(expected) and answer == expected


def fuse_rate(matrices: List[np.ndarray], modules: List[str]) -> float:
    """Rounds per second of single-threaded ``repro.fuse()`` over
    ``matrices`` (median pass, see :data:`FUSE_SECONDS`)."""
    rounds = sum(m.shape[0] for m in matrices)
    timings = []
    # As timeit does: no collector pauses inside the timed passes (the
    # oracle's objects would otherwise decide when a full pass runs).
    gc.collect()
    gc.disable()
    try:
        deadline = time.perf_counter() + FUSE_SECONDS
        while len(timings) < FUSE_MIN_PASSES or time.perf_counter() < deadline:
            started = time.perf_counter()
            for matrix in matrices:
                repro.fuse(matrix, AVOC_SPEC, modules=modules)
            timings.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return rounds / float(np.median(timings))


def check_values(result) -> List[str]:
    """Compare every answered value with ``repro.fuse()``."""
    mismatches: List[str] = []
    for series, values in result.values.items():
        want = repro.fuse(
            np.vstack(result.rows[series]), AVOC_SPEC, modules=result.modules
        ).values
        for index, answer in enumerate(values):
            if not _same(answer, float(want[index])):
                mismatches.append(
                    f"{series}[{index}]: got {answer!r}, fuse() gives {want[index]!r}"
                )
    return mismatches


def check_history(result, client, seed: int) -> List[str]:
    """Final records of a seeded sample of series vs a reference engine."""
    rng = np.random.default_rng([seed, 0x415])
    names = sorted(s for s, rows in result.rows.items() if rows)
    sample = rng.choice(len(names), min(HISTORY_SAMPLE, len(names)), replace=False)
    mismatches = []
    for index in sorted(sample):
        series = names[index]
        engine = build_engine(AVOC_SPEC)
        engine.process_batch(np.vstack(result.rows[series]), result.modules)
        want = engine.voter.history.snapshot()
        got = client.raw.request({"op": "history", "series": series})
        if got.get("records") != want:
            mismatches.append(
                f"{series}: history records {got.get('records')} != {want}"
            )
        if got.get("updates") != engine.voter.history.update_count:
            mismatches.append(
                f"{series}: history updates {got.get('updates')} != "
                f"{engine.voter.history.update_count}"
            )
    return mismatches
