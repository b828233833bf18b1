import math

import numpy as np
import pytest

from gmmle.core_matrix import CountMatrix
from gmmle.features import FeatureScore, dispersion_scores, select_top_k


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
        with pytest.raises(ValueError):
            select_top_k(self.mk([1.0]), 2)

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
