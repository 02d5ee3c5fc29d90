"""Seeded UC-1 inputs for the pipeline benchmark.

Every series is a window of the UC-1 light-sensor generator
(``repro.datasets.light_uc1``).  One base recording is generated per
benchmark seed; each series reads it from its own seeded offset, so no
two series carry the same rows.  One series in four reads the copy with
the paper's +6 kilolumen E4 ``offset_fault`` (AVOC's history exclusion
then has real work to do), and every module loses about 1 % of its
readings through ``drop_values`` (the missing-value paths run).

Generating the inputs is cheap and happens before any timing starts.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.datasets.injection import drop_values, offset_fault
from repro.datasets.light_uc1 import UC1Config, generate_uc1_dataset

#: Rounds in the base recording; series windows wrap around it.
BASE_ROUNDS = 8192

#: The paper's UC-1 fault: +6 kilolumen on sensor E4.
FAULT_MODULE = "E4"
FAULT_DELTA = 6.0

#: Share of readings removed per module.
DROP_PROBABILITY = 0.01


class SeriesSource:
    """Deterministic rows for any number of series, derived from one seed."""

    def __init__(self, seed: int, n_series: int):
        rng = np.random.default_rng([seed, 0x55C1])
        dataset = generate_uc1_dataset(
            UC1Config(n_rounds=BASE_ROUNDS, seed=int(rng.integers(1, 2**31)))
        )
        self.modules: List[str] = list(dataset.modules)
        for module in self.modules:
            dataset = drop_values(
                dataset, module, DROP_PROBABILITY,
                seed=int(rng.integers(1, 2**31)),
            )
        faulty = offset_fault(dataset, FAULT_MODULE, FAULT_DELTA)
        self._clean = dataset.matrix
        self._faulty = faulty.matrix
        self.offsets = rng.integers(0, BASE_ROUNDS, size=n_series)
        # One series in four is faulty; which ones is seeded too.
        self.faulty = rng.permutation(n_series) % 4 == 0
        self.n_series = n_series

    def rows(self, index: int, start: int, count: int) -> np.ndarray:
        """Rows ``start .. start+count`` of series ``index`` (NaN = missing)."""
        base = self._faulty if self.faulty[index] else self._clean
        picks = (self.offsets[index] + start + np.arange(count)) % BASE_ROUNDS
        return base[picks]


def to_wire_rows(matrix: np.ndarray) -> List[List[object]]:
    """Matrix rows as protocol cells (``None`` for a missing reading)."""
    return [
        [None if v != v else float(v) for v in row] for row in matrix.tolist()
    ]


def values_map(modules: List[str], row: np.ndarray) -> Dict[str, object]:
    """One round as the ``values`` mapping of a ``vote`` request."""
    return {
        m: (None if v != v else float(v)) for m, v in zip(modules, row.tolist())
    }
