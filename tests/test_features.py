import math

import numpy as np
import pytest

import scipy.sparse as sp

from gmmle import core_matrix
from gmmle.core_matrix import CountMatrix
from gmmle.features import MEAN_ONE_GUARD, FeatureScore, dispersion_scores, select_top_k
from test_mm_reader import block_counts, csr_bytes, traced_peak


def scores_of(dense):
    return dispersion_scores(CountMatrix.from_dense(np.array(dense)))


class TestDispersionScores:
    def test_mean2_variance4_scores_exactly_2(self):
        # counts (0, 4): m = 2, V = ((0-2)^2 + (4-2)^2)/2 = 4
        [s] = scores_of([[0, 4]])
        assert s.mean == 2.0
        assert s.variance == 4.0
        assert s.score == pytest.approx(math.log(4) / math.log(2), abs=1e-12)
        assert s.score == pytest.approx(2.0, abs=1e-12)

    def test_constant_feature_is_sentinel(self):
        [s] = scores_of([[5, 5, 5]])
        assert s.variance == 0.0
        assert s.score == -math.inf

    def test_mean_equals_variance_scores_1(self):
        # counts (6, 2, 2, 2): m = 3, V = (9 + 1 + 1 + 1)/4 = 3
        [s] = scores_of([[6, 2, 2, 2]])
        assert s.mean == 3.0
        assert s.variance == 3.0
        assert s.score == pytest.approx(1.0, abs=1e-12)

    def test_mean_below_one_ranked_last(self):
        [s] = scores_of([[1, 0, 0, 0]])  # m = 0.25
        assert s.score == -math.inf

    def test_mean_near_one_guarded(self):
        [s] = scores_of([[2, 0]])  # m = 1 exactly
        assert s.score == -math.inf

    def test_phi_hat_method_of_moments(self):
        [s] = scores_of([[0, 4]])
        assert s.phi_hat == pytest.approx((4.0 - 2.0) / 4.0)

    def test_requires_two_cells(self):
        with pytest.raises(ValueError):
            scores_of([[3]])

    def test_log_base_invariance(self):
        for row in [[0, 4], [6, 2, 2, 2], [10, 2, 0, 1], [7, 7, 1, 9]]:
            [s] = scores_of([row])
            if math.isfinite(s.score):
                base2 = math.log2(s.variance) / math.log2(s.mean)
                assert s.score == pytest.approx(base2, abs=1e-12)

    def test_score_increases_with_overdispersion(self):
        # V = m + phi * m^2 at fixed m > 1: score must increase with phi
        for m in [1.5, 2.0, 5.0, 20.0]:
            prev = None
            for phi in np.linspace(0.01, 2.0, 30):
                v = m + phi * m * m
                score = math.log(v) / math.log(m)
                if prev is not None:
                    assert score > prev
                prev = score

    def test_zeros_count_toward_mean(self):
        [s] = scores_of([[4, 0, 0, 0, 0, 0, 0, 0]])
        assert s.mean == 0.5

    def test_moments_equal_add_at_form(self):
        dense = np.array([
            [0, 3, 7, 0, 1, 0, 250],
            [5, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
            [9, 9, 1, 2, 30, 4, 1],
        ])
        counts = CountMatrix.from_dense(dense)
        csr = counts.csr()
        data = csr.data.astype(np.float64)
        rows = np.repeat(np.arange(counts.n_features), np.diff(csr.indptr))
        sums = np.zeros(counts.n_features)
        sq_sums = np.zeros(counts.n_features)
        np.add.at(sums, rows, data)
        np.add.at(sq_sums, rows, data * data)
        means = sums / counts.n_cells
        variances = np.maximum(sq_sums / counts.n_cells - means * means, 0.0)
        got = dispersion_scores(counts)
        assert np.array([s.mean for s in got]).tobytes() == means.tobytes()
        assert np.array([s.variance for s in got]).tobytes() == variances.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_moments_equal_bincount_form_beyond_2_53(self, seed):
        """Row sums as sparse products against the per-entry bincount they
        replaced, on counts whose sums and squared sums round in float64."""
        rng = np.random.default_rng(seed)
        dense = rng.poisson(0.6, size=(25, 40)) * rng.integers(1, 2**40, size=(25, 40))
        dense[0, :5] = 2**53 - rng.integers(1, 1000, size=5)  # sums above 2**53
        dense[3] = 0  # an empty row
        counts = CountMatrix.from_dense(dense)
        csr = counts.csr()
        data = csr.data.astype(np.float64)
        rows = np.repeat(np.arange(counts.n_features), np.diff(csr.indptr))
        sums = np.bincount(rows, data, minlength=counts.n_features)
        sq_sums = np.bincount(rows, data * data, minlength=counts.n_features)
        assert sums.max() > 2.0**53
        means = sums / counts.n_cells
        variances = np.maximum(sq_sums / counts.n_cells - means * means, 0.0)
        got = dispersion_scores(counts)
        assert np.array([s.mean for s in got]).tobytes() == means.tobytes()
        assert np.array([s.variance for s in got]).tobytes() == variances.tobytes()


def reference_dispersion_scores(counts):
    """dispersion_scores as it was before the row-block walk: one float64
    copy of all the counts, summed by two whole-matrix products."""
    n = counts.n_cells
    csr = counts.csr()
    values = sp.csr_matrix((csr.data.astype(np.float64), csr.indices, csr.indptr), shape=csr.shape)
    ones = np.ones(n)
    sums = values @ ones
    np.square(values.data, out=values.data)
    sq_sums = values @ ones
    means = sums / n
    variances = np.maximum(sq_sums / n - means * means, 0.0)
    scores = np.full(counts.n_features, -np.inf)
    usable = (variances > 0.0) & (means > 1.0 + MEAN_ONE_GUARD)
    scores[usable] = np.log(variances[usable]) / np.log(means[usable])
    phi = np.full(counts.n_features, math.nan)
    positive = means > 0
    phi[positive] = (variances[positive] - means[positive]) / (means[positive] ** 2)
    return [
        FeatureScore(float(m), float(v), float(s), float(p))
        for m, v, s, p in zip(means, variances, scores, phi)
    ]


class TestRowBlockWalk:
    @pytest.mark.parametrize("block", [1, 7, None])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_scores_equal_the_whole_matrix_form(self, monkeypatch, block, seed):
        if block is not None:
            monkeypatch.setattr(core_matrix, "_ROW_BLOCK_ENTRIES", block)
        rng = np.random.default_rng(seed)
        dense = rng.poisson(0.7, size=(30, 40)) * rng.integers(1, 2**40, size=(30, 40))
        dense[0, :5] = 2**53 - rng.integers(1, 1000, size=5)  # sums above 2**53
        dense[3] = 0  # an empty row
        dense[4] = rng.integers(1, 4, size=40)  # a row longer than a 7-entry block
        counts = CountMatrix.from_dense(dense)
        got, expected = (
            np.array([(s.mean, s.variance, s.score, s.phi_hat) for s in scores])
            for scores in (dispersion_scores(counts), reference_dispersion_scores(counts))
        )
        assert np.isfinite(got[:, 2]).any()
        assert got.tobytes() == expected.tobytes()

    def test_peak_memory_bounded_by_one_block(self, monkeypatch):
        """One block's float64 copy, not the whole matrix's, which alone is
        two thirds of the int64 CSR's size."""
        monkeypatch.setattr(core_matrix, "_ROW_BLOCK_ENTRIES", 1 << 14)
        counts = block_counts()
        scores, peak = traced_peak(dispersion_scores, counts)
        assert len(scores) == counts.n_features
        assert peak <= csr_bytes(counts) / 4


class TestSelectTopK:
    def mk(self, values):
        return [FeatureScore(1.0, 1.0, v, 0.0) for v in values]

    def test_selects_largest(self):
        mask = select_top_k(self.mk([2.0, 1.0, 3.0]), 2)
        assert mask.tolist() == [True, False, True]

    def test_tie_break_by_index(self):
        mask = select_top_k(self.mk([1.0, 1.0, 1.0]), 2)
        assert mask.tolist() == [True, True, False]

    def test_k_equals_p(self):
        mask = select_top_k(self.mk([1.0, 2.0]), 2)
        assert mask.all()

    def test_k_too_large(self):
        """k above the feature count is short supply: a warning, every
        finite-scored feature selected."""
        with pytest.warns(UserWarning, match=r"k=5 but only 3 features have finite scores"):
            mask = select_top_k(self.mk([1.0, 3.0, 2.0]), 5)
        assert mask.tolist() == [True, True, True]

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            select_top_k(self.mk([1.0]), 0)

    def test_sentinels_never_selected_and_warns(self):
        scores = self.mk([2.0, -math.inf, 1.0, -math.inf])
        with pytest.warns(UserWarning, match="finite"):
            mask = select_top_k(scores, 3)
        assert mask.tolist() == [True, False, True, False]

    def test_no_finite_score_rejected(self):
        scores = self.mk([-math.inf, -math.inf])
        with pytest.raises(ValueError, match="none of 2 features"):
            select_top_k(scores, 1)

    def test_permutation_equivariance(self):
        values = [3.0, 1.0, 2.0, 5.0, 4.0]
        perm = [4, 2, 0, 1, 3]
        base = select_top_k(self.mk(values), 2)
        permuted = select_top_k(self.mk([values[p] for p in perm]), 2)
        assert [base[p] for p in perm] == permuted.tolist()
