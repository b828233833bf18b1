import json

import numpy as np
import pytest

from conftest import entry_set
from gmmle.core_matrix import CountMatrix
from gmmle.qc import EmptyMatrixError, QcConfig, QcReport, filter_cells, filter_features, run_qc


def feature_expressed_in(n_cells_expressed, n_cells_total):
    """Single-feature matrix expressed in the first n cells."""
    row = [1] * n_cells_expressed + [0] * (n_cells_total - n_cells_expressed)
    # a second, ubiquitous feature keeps columns non-degenerate
    return CountMatrix.from_dense([row, [1] * n_cells_total])


class TestFeatureFilter:
    def test_boundary_strictly_fewer_is_removed(self):
        cfg = QcConfig(min_cells_per_feature=50)
        cm = feature_expressed_in(49, 60)
        assert not filter_features(cm, cfg)[0]

    def test_boundary_at_threshold_retained(self):
        cfg = QcConfig(min_cells_per_feature=50)
        cm = feature_expressed_in(50, 60)
        assert filter_features(cm, cfg)[0]

    def test_zero_threshold_retains_all(self):
        cfg = QcConfig(min_cells_per_feature=0)
        cm = feature_expressed_in(0, 5)
        assert filter_features(cm, cfg).all()

    def test_monotone_in_threshold(self):
        cm = CountMatrix.from_dense(
            [[1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1], [0, 0, 0, 1]]
        )
        previous = filter_features(cm, QcConfig(min_cells_per_feature=0))
        for threshold in range(1, 6):
            mask = filter_features(cm, QcConfig(min_cells_per_feature=threshold))
            assert not (mask & ~previous).any()  # raising never re-adds
            previous = mask


def cell_matrix(columns, feature_ids=None):
    """Build a matrix from per-cell count columns."""
    arr = np.array(columns).T
    return CountMatrix.from_dense(arr, feature_ids=feature_ids)


class TestCellFilter:
    def test_min_features_boundary(self):
        n = 800
        ids = [f"g{i}" for i in range(n)]
        ok_cell = [1] * 750 + [0] * (n - 750)
        bad_cell = [1] * 749 + [0] * (n - 749)
        cm = cell_matrix([ok_cell, bad_cell], feature_ids=ids)
        cfg = QcConfig(min_features_per_cell=750, max_top_share=1.0,
                       max_mito_share=None, max_ribo_share=None)
        mask = filter_cells(cm, cfg)
        assert mask.tolist() == [True, False]

    def test_exactly_ten_percent_share_removed(self):
        # top feature 10, total 100: share exactly 0.10 -> removed
        column = [10] + [1] * 90
        cm = cell_matrix([column])
        cfg = QcConfig(min_features_per_cell=1, max_top_share=0.10,
                       max_mito_share=None, max_ribo_share=None)
        assert filter_cells(cm, cfg).tolist() == [False]

    def test_just_below_ten_percent_retained(self):
        column = [10] + [1] * 91  # share 10/101
        cm = cell_matrix([column])
        cfg = QcConfig(min_features_per_cell=1, max_top_share=0.10,
                       max_mito_share=None, max_ribo_share=None)
        assert filter_cells(cm, cfg).tolist() == [True]

    def test_excluded_feature_not_a_top_candidate_but_in_total(self):
        # MALAT1 holds 40% of counts; next feature holds 5% -> retained
        ids = ["MALAT1"] + [f"g{i}" for i in range(12)]
        column = [40] + [5] * 12  # total 100
        cm = cell_matrix([column], feature_ids=ids)
        cfg = QcConfig(min_features_per_cell=1, max_top_share=0.10,
                       max_mito_share=None, max_ribo_share=None)
        assert filter_cells(cm, cfg).tolist() == [True]

    def test_mito_share_rule(self):
        ids = ["MT-CO1", "g1", "g2"]
        at_threshold = [10, 45, 45]   # mito share exactly 0.10
        below = [9, 45, 46]
        cm = cell_matrix([at_threshold, below], feature_ids=ids)
        cfg = QcConfig(min_features_per_cell=1, max_top_share=1.0,
                       max_mito_share=0.10, max_ribo_share=None)
        assert filter_cells(cm, cfg).tolist() == [False, True]

    def test_ribo_share_rule_multiple_prefixes(self):
        ids = ["RPS1", "RPL2", "g1"]
        heavy = [30, 20, 50]   # ribo share 0.50 -> removed
        light = [10, 10, 80]
        cm = cell_matrix([heavy, light], feature_ids=ids)
        cfg = QcConfig(min_features_per_cell=1, max_top_share=1.0,
                       max_mito_share=None, max_ribo_share=0.50)
        assert filter_cells(cm, cfg).tolist() == [False, True]

    def test_zero_total_cell_removed_without_error(self):
        cm = CountMatrix.from_dense([[1, 0], [1, 0]])
        cfg = QcConfig(min_features_per_cell=1, max_top_share=1.0,
                       max_mito_share=None, max_ribo_share=None)
        assert filter_cells(cm, cfg).tolist() == [True, False]

    def test_masks_are_pure(self):
        cm = CountMatrix.from_dense([[3, 1], [1, 1]])
        cfg = QcConfig(min_features_per_cell=1, max_top_share=0.9,
                       max_mito_share=None, max_ribo_share=None)
        a = filter_cells(cm, cfg)
        b = filter_cells(cm, cfg)
        assert np.array_equal(a, b)


class TestRunQc:
    # 6 features x 4 cells; with the config below exactly one feature
    # (f2: expressed in 1 cell < 2) and one cell (c3: top share 6/11 >= 0.5)
    # fail.  Totals after the feature filter: c0=7, c1=9, c2=9, c3=11.
    FIXTURE = np.array(
        [
            [3, 1, 0, 2],
            [1, 2, 3, 0],
            [0, 0, 1, 0],
            [2, 2, 2, 2],
            [1, 0, 3, 1],
            [0, 4, 1, 6],
        ]
    )
    CFG = QcConfig(
        min_cells_per_feature=2,
        min_features_per_cell=2,
        max_top_share=0.5,
        max_mito_share=None,
        max_ribo_share=None,
    )

    def test_hand_checked_fixture(self):
        cm = CountMatrix.from_dense(self.FIXTURE)
        out, report = run_qc(cm, self.CFG)
        assert out.shape == (5, 3)
        assert report.features_removed_low_cell_count == 1
        assert report.cells_removed == 1
        assert report.cells_failed_top_share == 1
        assert out.feature_ids == ("f0", "f1", "f3", "f4", "f5")
        assert out.cell_ids == ("c0", "c1", "c2")

    def test_fixed_point_matrix_unchanged(self):
        cm = CountMatrix.from_dense([[2, 3], [4, 1]])
        cfg = QcConfig(min_cells_per_feature=1, min_features_per_cell=1,
                       max_top_share=1.0, max_mito_share=None, max_ribo_share=None)
        out, report = run_qc(cm, cfg)
        assert entry_set(out) == entry_set(cm)
        assert report.features_removed_low_cell_count == 0
        assert report.cells_removed == 0

    def test_report_tallies_consistent(self):
        cm = CountMatrix.from_dense(self.FIXTURE)
        out, report = run_qc(cm, self.CFG)
        assert report.features_in - report.features_removed_low_cell_count == report.features_out
        assert report.cells_in - report.cells_removed == report.cells_out
        assert int(report.feature_mask.sum()) == out.n_features
        assert int(report.cell_mask.sum()) == out.n_cells

    def test_empty_result_raises_with_report(self):
        cm = CountMatrix.from_dense([[1, 0], [0, 1]])
        cfg = QcConfig(min_cells_per_feature=5)
        with pytest.raises(EmptyMatrixError) as err:
            run_qc(cm, cfg)
        assert isinstance(err.value.report, QcReport)
        assert err.value.report.features_out == 0

    def test_report_json_stable_key_order(self):
        cm = CountMatrix.from_dense(self.FIXTURE)
        _, report = run_qc(cm, self.CFG)
        keys = list(json.loads(report.to_json()).keys())
        assert keys == [
            "features_in", "features_out", "features_removed_low_cell_count",
            "cells_in", "cells_out", "cells_removed",
            "cells_failed_min_features", "cells_failed_top_share",
            "cells_failed_mito_share", "cells_failed_ribo_share",
            "feature_mask", "cell_mask",
        ]

    def test_cell_stats_on_raw_flag(self):
        # f0 will be feature-filtered; its count still dominates c0's raw
        # total, so the raw-stats variant removes c0 while the default keeps it.
        matrix = np.array(
            [
                [90, 0],
                [5, 5],
                [5, 6],
            ]
        )
        cm = CountMatrix.from_dense(matrix)
        base = dict(min_cells_per_feature=2, min_features_per_cell=1,
                    max_top_share=0.55, max_mito_share=None, max_ribo_share=None)
        out_default, _ = run_qc(cm, QcConfig(**base))
        assert out_default.n_cells == 2
        with pytest.raises(EmptyMatrixError):
            # on raw totals c0's top feature share is 90/100 and c1 is fine,
            # but c0 removed -> 1 cell left; tighten to remove both
            run_qc(cm, QcConfig(**{**base, "max_top_share": 0.5,
                                   "cell_stats_on_raw": True}))
        out_raw, _ = run_qc(cm, QcConfig(**{**base, "cell_stats_on_raw": True}))
        assert out_raw.n_cells == 1


class TestConfigValidation:
    def test_share_out_of_range(self):
        with pytest.raises(ValueError):
            QcConfig(max_top_share=0.0)
        with pytest.raises(ValueError):
            QcConfig(max_mito_share=1.5)

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            QcConfig(min_cells_per_feature=-1)
