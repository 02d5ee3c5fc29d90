"""Tests for pairwise agreement computation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.voting.agreement import (
    agreement_scores,
    binary_agreement_matrix,
    dynamic_margin,
    majority_cluster,
    pairwise_distances,
    soft_agreement_matrix,
)
from repro.voting.kernels import batch_dynamic_margins


class TestDynamicMargin:
    def test_scales_with_median(self):
        assert dynamic_margin([100.0, 100.0, 100.0], error=0.05) == pytest.approx(5.0)

    def test_uses_absolute_reference(self):
        # RSSI values are negative; the margin must still be positive.
        assert dynamic_margin([-70.0, -70.0], error=0.1) == pytest.approx(7.0)

    def test_floor_applies_near_zero(self):
        assert dynamic_margin([0.0, 0.0], error=0.05, min_margin=1e-3) == 1e-3

    def test_median_is_outlier_robust(self):
        margin = dynamic_margin([18.0, 18.0, 18.0, 18.0, 1000.0], error=0.05)
        assert margin == pytest.approx(0.9)

    def test_rejects_nonpositive_error(self):
        with pytest.raises(ValueError):
            dynamic_margin([1.0], error=0.0)

    def test_empty_values_return_floor(self):
        assert dynamic_margin([], error=0.05, min_margin=1e-9) == 1e-9


class TestBatchDynamicMargins:
    """The vectorized margins equal the scalar helper bit for bit."""

    @pytest.mark.parametrize("min_margin", [0.0, 1e-9])
    @pytest.mark.parametrize("seed", range(4))
    def test_ragged_rows_match_scalar_margin(self, seed, min_margin):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(0.0, 20.0, size=(400, 7))
        matrix[rng.random(matrix.shape) < 0.35] = np.nan
        matrix[rng.random(matrix.shape) < 0.05] = 0.0
        matrix[rng.random(matrix.shape) < 0.05] = -0.0
        matrix[::37] = np.nan  # all-NaN rows
        matrix[5] = [-0.0, 0.0, -0.0, 0.0, np.nan, np.nan, np.nan]
        counts = (~np.isnan(matrix)).sum(axis=1)
        assert {c % 2 for c in counts if c} == {0, 1}
        got = batch_dynamic_margins(matrix, 0.05, min_margin, counts)
        for row, margin in zip(matrix, got):
            present = row[~np.isnan(row)].tolist()
            assert margin == dynamic_margin(present, 0.05, min_margin)

    def test_empty_rows_get_the_floor(self):
        matrix = np.full((3, 4), np.nan)
        counts = np.zeros(3, dtype=int)
        margins = batch_dynamic_margins(matrix, 0.05, 1e-9, counts)
        assert margins.tolist() == [1e-9, 1e-9, 1e-9]


class TestPairwiseDistances:
    def test_symmetric_zero_diagonal(self):
        d = pairwise_distances([1.0, 3.0, 6.0])
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)
        assert d[0, 1] == 2.0
        assert d[0, 2] == 5.0


class TestBinaryAgreement:
    def test_within_margin_agrees(self):
        m = binary_agreement_matrix([10.0, 10.4, 11.2], margin=0.5)
        assert m[0, 1] == 1.0
        assert m[0, 2] == 0.0
        assert m[1, 2] == 0.0

    def test_diagonal_is_one(self):
        m = binary_agreement_matrix([1.0, 100.0], margin=0.1)
        assert np.allclose(np.diag(m), 1.0)

    def test_boundary_is_inclusive(self):
        m = binary_agreement_matrix([0.0, 0.5], margin=0.5)
        assert m[0, 1] == 1.0

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            binary_agreement_matrix([1.0], margin=-1.0)


class TestSoftAgreement:
    def test_full_agreement_within_margin(self):
        m = soft_agreement_matrix([10.0, 10.3], margin=0.5, soft_threshold=2.0)
        assert m[0, 1] == 1.0

    def test_ramp_midpoint(self):
        # Distance 0.75 with margin 0.5 and k=2: ramp from 0.5 to 1.0,
        # so agreement should be (1.0 - 0.75) / 0.5 = 0.5.
        m = soft_agreement_matrix([0.0, 0.75], margin=0.5, soft_threshold=2.0)
        assert m[0, 1] == pytest.approx(0.5)

    def test_zero_beyond_soft_threshold(self):
        m = soft_agreement_matrix([0.0, 1.1], margin=0.5, soft_threshold=2.0)
        assert m[0, 1] == 0.0

    def test_k_equal_one_degenerates_to_binary(self):
        values = [0.0, 0.4, 0.6]
        soft = soft_agreement_matrix(values, margin=0.5, soft_threshold=1.0)
        binary = binary_agreement_matrix(values, margin=0.5)
        assert np.allclose(soft, binary)

    def test_rejects_soft_threshold_below_one(self):
        with pytest.raises(ValueError):
            soft_agreement_matrix([1.0], margin=0.5, soft_threshold=0.5)

    def test_monotone_in_distance(self):
        values = [0.0, 0.6, 0.9, 1.4]
        m = soft_agreement_matrix(values, margin=0.5, soft_threshold=3.0)
        assert m[0, 1] > m[0, 2] > m[0, 3]


class TestAgreementScores:
    def test_excludes_self(self):
        matrix = binary_agreement_matrix([0.0, 0.1, 5.0], margin=0.5)
        scores = agreement_scores(matrix)
        assert scores[0] == pytest.approx(0.5)  # agrees with 1 of 2 others
        assert scores[2] == pytest.approx(0.0)

    def test_single_module_scores_one(self):
        matrix = binary_agreement_matrix([42.0], margin=0.1)
        assert agreement_scores(matrix)[0] == 1.0

    def test_empty(self):
        assert agreement_scores(np.zeros((0, 0))).shape == (0,)

    def test_all_agree(self):
        matrix = binary_agreement_matrix([1.0, 1.0, 1.0], margin=0.5)
        assert np.allclose(agreement_scores(matrix), 1.0)


class TestMajorityCluster:
    def test_picks_largest_group(self):
        matrix = binary_agreement_matrix([1.0, 1.1, 1.2, 9.0, 9.1], margin=0.3)
        group = majority_cluster(matrix)
        assert sorted(group) == [0, 1, 2]

    def test_empty_matrix(self):
        assert majority_cluster(np.zeros((0, 0))) == []

    def test_singleton(self):
        matrix = binary_agreement_matrix([5.0], margin=0.1)
        assert majority_cluster(matrix) == [0]
