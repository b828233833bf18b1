import json

import numpy as np
import pytest

from conftest import entry_set
from gmmle import core_matrix
from gmmle.core_matrix import CountMatrix, submatrix
from gmmle.qc import (
    EmptyMatrixError,
    QcConfig,
    QcReport,
    _cell_counts,
    filter_cells,
    filter_features,
    run_qc,
)
from test_mm_reader import block_counts, csr_bytes, traced_peak


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

    def test_empty_prefixes_rejected(self):
        # "" starts every id: every feature would count as mitochondrial
        # or ribosomal, so every cell's share would be 1.0
        with pytest.raises(ValueError, match="^mito_prefix must not be empty"):
            QcConfig(mito_prefix="")
        with pytest.raises(ValueError, match="^ribo_prefixes must not hold an empty prefix"):
            QcConfig(ribo_prefixes=("RPS", ""))
        QcConfig(ribo_prefixes=())  # no prefix at all is no ribosomal feature


# run_qc as it was before the cell statistics were read in place: the cell
# rules run on a feature-filtered copy (or the input, with
# cell_stats_on_raw), through row slices of its CSC, and the result is cut
# from that copy.  Kept as the oracle of the one-restriction run_qc.
def _reference_max_count_per_cell(counts, row_mask):
    csc = counts.csr().tocsc()[row_mask]
    out = np.zeros(counts.n_cells, dtype=np.int64)
    nonempty = np.flatnonzero(np.diff(csc.indptr))
    if nonempty.size:
        out[nonempty] = np.maximum.reduceat(csc.data, csc.indptr[nonempty])
    return out


def _reference_filter_cells(counts, cfg, report):
    csc = counts.csr().tocsc()
    features_per_cell = np.diff(csc.indptr)
    totals = np.asarray(csc.sum(axis=0)).ravel().astype(np.int64)
    safe_totals = np.where(totals > 0, totals, 1).astype(np.float64)
    ok_min_features = features_per_cell >= cfg.min_features_per_cell
    excluded = np.array(
        [fid in set(cfg.top_share_exclude) for fid in counts.feature_ids], dtype=bool
    )
    top_counts = _reference_max_count_per_cell(counts, ~excluded)
    ok_top_share = (top_counts / safe_totals) < cfg.max_top_share
    ok_mito = np.ones(counts.n_cells, dtype=bool)
    if cfg.max_mito_share is not None:
        mito_rows = np.array([i.startswith(cfg.mito_prefix) for i in counts.feature_ids], dtype=bool)
        mito_totals = np.asarray(csc[mito_rows].sum(axis=0)).ravel()
        ok_mito = (mito_totals / safe_totals) < cfg.max_mito_share
    ok_ribo = np.ones(counts.n_cells, dtype=bool)
    if cfg.max_ribo_share is not None:
        ribo_rows = np.array(
            [any(i.startswith(p) for p in cfg.ribo_prefixes) for i in counts.feature_ids],
            dtype=bool,
        )
        ribo_totals = np.asarray(csc[ribo_rows].sum(axis=0)).ravel()
        ok_ribo = (ribo_totals / safe_totals) < cfg.max_ribo_share
    report.cells_failed_min_features = int((~ok_min_features).sum())
    report.cells_failed_top_share = int((~ok_top_share).sum())
    report.cells_failed_mito_share = int((~ok_mito).sum())
    report.cells_failed_ribo_share = int((~ok_ribo).sum())
    return ok_min_features & ok_top_share & ok_mito & ok_ribo


def reference_run_qc(counts, cfg):
    report = QcReport(features_in=counts.n_features, cells_in=counts.n_cells)
    feature_mask = filter_features(counts, cfg)
    report.feature_mask = feature_mask
    report.features_removed_low_cell_count = int((~feature_mask).sum())
    report.features_out = int(feature_mask.sum())
    if report.features_out == 0:
        report.cell_mask = np.zeros(counts.n_cells, dtype=bool)
        raise EmptyMatrixError("QC removed every feature", report)
    filtered = submatrix(counts, feature_mask, np.ones(counts.n_cells, dtype=bool))
    stats_matrix = counts if cfg.cell_stats_on_raw else filtered
    cell_mask = _reference_filter_cells(stats_matrix, cfg, report)
    report.cell_mask = cell_mask
    report.cells_removed = int((~cell_mask).sum())
    report.cells_out = int(cell_mask.sum())
    if report.cells_out == 0:
        raise EmptyMatrixError("QC removed every cell", report)
    result = submatrix(filtered, np.ones(filtered.n_features, dtype=bool), cell_mask)
    return result, report


ID_POOL = ("MALAT1", "MT-CO1", "MT-ND2", "RPS3", "RPL7", "RPLP0", "g0", "g1", "g2", "g3")


def random_qc_case(seed):
    """A small count matrix with mito, ribo and excluded ids, and a QC
    config drawn so that every rule sometimes removes cells."""
    rng = np.random.default_rng(seed)
    n_features, n_cells = rng.integers(1, 13), rng.integers(1, 16)
    dense = rng.poisson(rng.gamma(0.7, 2.0, size=(n_features, 1)), size=(n_features, n_cells))
    dense[rng.random(dense.shape) < rng.random()] = 0
    pool = list(ID_POOL) + [f"x{i}" for i in range(n_features)]
    ids = [str(i) for i in rng.choice(pool, size=n_features, replace=False)]

    def share():
        return None if rng.random() < 0.3 else float(rng.choice([0.05, 0.2, 0.5, 1.0]))

    cfg = QcConfig(
        min_cells_per_feature=int(rng.integers(0, 4)),
        min_features_per_cell=int(rng.integers(0, 5)),
        max_top_share=float(rng.choice([0.2, 0.4, 0.6, 1.0])),
        top_share_exclude=tuple(
            str(i) for i in rng.choice(["MALAT1", "g0", "RPS3"], size=rng.integers(0, 3), replace=False)
        ),
        max_mito_share=share(),
        max_ribo_share=share(),
        ribo_prefixes=("RPS", "RPL") if rng.random() < 0.7 else ("RPL",),
        cell_stats_on_raw=bool(rng.random() < 0.5),
    )
    return CountMatrix.from_dense(dense, feature_ids=ids), cfg


def qc_outcome(run, counts, cfg):
    """Report text plus the result's CSR arrays and ids, or the report of
    the EmptyMatrixError."""
    try:
        out, report = run(counts, cfg)
    except EmptyMatrixError as err:
        return ("empty", str(err), err.report.to_json())
    csr = out.csr()
    return (
        report.to_json(), csr.indptr.tolist(), csr.indices.tolist(), csr.data.tolist(),
        str(csr.data.dtype), out.feature_ids, out.cell_ids,
    )


class TestOneRestriction:
    def test_equals_the_two_slice_reference(self):
        outcomes = set()
        for seed in range(300):
            counts, cfg = random_qc_case(seed)
            got = qc_outcome(run_qc, counts, cfg)
            assert got == qc_outcome(reference_run_qc, counts, cfg), seed
            outcomes.add(got[1] if got[0] == "empty" else "kept")
        # the fixtures reach both empty results as well as kept matrices
        assert outcomes == {"kept", "QC removed every feature", "QC removed every cell"}

    def test_every_rule_removes_cells_in_the_fuzz(self):
        tallies = np.zeros(4, dtype=int)
        for seed in range(300):
            counts, cfg = random_qc_case(seed)
            try:
                _, report = run_qc(counts, cfg)
            except EmptyMatrixError as err:
                report = err.report
            tallies += [
                report.cells_failed_min_features, report.cells_failed_top_share,
                report.cells_failed_mito_share, report.cells_failed_ribo_share,
            ]
        assert (tallies > 0).all()

    def test_filter_cells_counts_every_feature(self):
        for seed in range(50):
            counts, cfg = random_qc_case(seed)
            got, expected = QcReport(), QcReport()
            mask = filter_cells(counts, cfg, got)
            assert np.array_equal(mask, _reference_filter_cells(counts, cfg, expected))
            assert got.to_json() == expected.to_json()

    def test_input_kept_whole_is_returned_uncopied(self):
        cm = CountMatrix.from_dense([[2, 3], [4, 1]])
        cfg = QcConfig(min_cells_per_feature=1, min_features_per_cell=1,
                       max_top_share=1.0, max_mito_share=None, max_ribo_share=None)
        out, _ = run_qc(cm, cfg)
        assert out is cm


# The per-cell counts of _passing_cells as computed before the row-block
# walk: whole-matrix entry masks through np.repeat, then a copy of the
# selected indices and counts.  The oracle of _cell_counts.
def reference_cell_counts(csr, rows, candidates):
    row_nnz = np.diff(csr.indptr)
    features_per_cell = np.bincount(
        csr.indices[np.repeat(rows, row_nnz)], minlength=csr.shape[1]
    )
    in_top = np.repeat(candidates, row_nnz)
    top_counts = np.zeros(csr.shape[1], dtype=np.int64)
    np.maximum.at(top_counts, csr.indices[in_top], csr.data[in_top])
    return features_per_cell, top_counts


def walker_counts():
    """40 features x 30 cells with an empty row, a row longer than a
    7-entry block and MALAT1 rows for the exclusion list to hit."""
    rng = np.random.default_rng(11)
    dense = rng.poisson(0.8, size=(40, 30)) * rng.integers(1, 60, size=(40, 30))
    dense[5] = 0
    dense[9] = rng.integers(1, 9, size=30)
    dense[12, :4] = 500  # the top count of four cells, when not excluded
    ids = [f"g{i}" for i in range(40)]
    ids[12], ids[20] = "MALAT1", "MT-CO1"
    return CountMatrix.from_dense(dense, feature_ids=ids)


class TestRowBlockWalk:
    @pytest.mark.parametrize("block", [1, 7, None])
    @pytest.mark.parametrize("masks", ["all", "none", "split", "excluded"])
    def test_cell_counts_equal_the_masked_copy_form(self, monkeypatch, block, masks):
        if block is not None:
            monkeypatch.setattr(core_matrix, "_ROW_BLOCK_ENTRIES", block)
        counts = walker_counts()
        n = counts.n_features
        rows = {
            "all": np.ones(n, dtype=bool),
            "none": np.zeros(n, dtype=bool),
            # changes inside every block of 7 entries, and inside the default block
            "split": np.arange(n) % 3 != 1,
            "excluded": np.ones(n, dtype=bool),
        }[masks]
        candidates = rows.copy()
        if masks == "excluded":
            candidates[[12, 20]] = False
        got = _cell_counts(counts.csr(), rows, candidates)
        expected = reference_cell_counts(counts.csr(), rows, candidates)
        for g, e in zip(got, expected):
            assert g.dtype == np.int64 and np.array_equal(g, e)
        if masks == "excluded":
            # the exclusion changed the top count of the cells MALAT1 tops
            full = reference_cell_counts(counts.csr(), rows, rows)[1]
            assert (full[:4] == 500).all() and (expected[1][:4] < 500).all()

    @pytest.mark.parametrize("block", [1, 7])
    def test_run_qc_outcome_independent_of_block_size(self, monkeypatch, block):
        monkeypatch.setattr(core_matrix, "_ROW_BLOCK_ENTRIES", block)
        for seed in range(100):
            counts, cfg = random_qc_case(seed)
            assert qc_outcome(run_qc, counts, cfg) == qc_outcome(reference_run_qc, counts, cfg)

    def test_peak_memory_bounded_by_one_block(self, monkeypatch):
        """The statistics need one block's temporaries.  Whole-matrix masks
        and copies (int32 indices become 8-byte bincount input) took more
        than half the CSR's size on this matrix."""
        monkeypatch.setattr(core_matrix, "_ROW_BLOCK_ENTRIES", 1 << 14)
        counts = block_counts()
        cfg = QcConfig(min_cells_per_feature=1, min_features_per_cell=1, max_top_share=1.0)
        (out, report), peak = traced_peak(lambda c: run_qc(c, cfg), counts)
        assert out is counts and report.cells_removed == 0
        assert peak <= csr_bytes(counts) / 4
