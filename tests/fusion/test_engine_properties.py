"""Property-based tests for the fusion engine under random degradation."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion.engine import FusionEngine
from repro.fusion.faults import FaultPolicy

from repro.voting.registry import create_voter


@st.composite
def degraded_matrices(draw):
    """A small rounds × modules matrix with random NaN holes."""
    n_modules = draw(st.integers(min_value=2, max_value=6))
    n_rounds = draw(st.integers(min_value=1, max_value=12))
    values = draw(
        st.lists(
            st.lists(
                st.floats(min_value=10.0, max_value=30.0, allow_nan=False),
                min_size=n_modules,
                max_size=n_modules,
            ),
            min_size=n_rounds,
            max_size=n_rounds,
        )
    )
    matrix = np.asarray(values)
    holes = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_rounds - 1),
                st.integers(min_value=0, max_value=n_modules - 1),
            ),
            max_size=n_rounds * n_modules,
        )
    )
    for r, c in holes:
        matrix[r, c] = np.nan
    return matrix


class TestEngineNeverCrashes:
    @settings(max_examples=60, deadline=None)
    @given(
        matrix=degraded_matrices(),
        algorithm=st.sampled_from(["average", "me", "hybrid", "avoc",
                                   "clustering"]),
        policy=st.sampled_from(["last_value", "skip"]),
    )
    def test_random_missing_patterns(self, matrix, algorithm, policy):
        engine = FusionEngine(
            create_voter(algorithm),
            fault_policy=FaultPolicy(
                on_missing_majority=policy, on_conflict=policy
            ),
        )
        results = engine.process_batch(matrix, diagnostics=True).to_results()
        assert len(results) == matrix.shape[0]
        lo, hi = np.nanmin(matrix), np.nanmax(matrix)
        for result in results:
            assert result.status in ("ok", "held", "skipped")
            if result.status == "ok":
                assert lo - 1e-9 <= result.value <= hi + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(matrix=degraded_matrices())
    def test_held_values_repeat_a_prior_ok_value(self, matrix):
        engine = FusionEngine(
            create_voter("avoc"),
            fault_policy=FaultPolicy(on_missing_majority="last_value"),
        )
        results = engine.process_batch(matrix, diagnostics=True).to_results()
        seen_values = set()
        for result in results:
            if result.status == "ok":
                seen_values.add(result.value)
            elif result.status == "held":
                assert result.value in seen_values
