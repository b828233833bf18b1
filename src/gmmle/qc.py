"""Quality-control filters for count matrices.

Features are dropped when expressed in too few cells; cells are dropped
when they express too few features, when a single (non-excluded) feature
dominates their counts, or when mitochondrial / ribosomal transcripts take
too large a share.  Filtering runs features-first, then cells on the
feature-filtered matrix, once each, with no iteration to a joint fixed
point, so results are reproducible functions of the input and configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core_matrix import CountMatrix, submatrix


@dataclass(frozen=True)
class QcConfig:
    min_cells_per_feature: int = 50
    min_features_per_cell: int = 750
    max_top_share: float = 0.10
    top_share_exclude: tuple[str, ...] = ("MALAT1",)
    max_mito_share: float | None = 0.10  # None disables the rule
    mito_prefix: str = "MT-"
    max_ribo_share: float | None = 0.50
    ribo_prefixes: tuple[str, ...] = ("RPS", "RPL")
    # When True, cell shares/totals are computed on the raw matrix instead
    # of the feature-filtered one.
    cell_stats_on_raw: bool = False

    def __post_init__(self):
        for name in ("min_cells_per_feature", "min_features_per_cell"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("max_top_share", "max_mito_share", "max_ribo_share"):
            value = getattr(self, name)
            if value is not None and not (0.0 < value <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1]")


@dataclass
class QcReport:
    """Per-rule audit of a QC run.

    Cell-rule tallies count every cell failing that rule, so a cell failing
    several rules appears in several tallies; `cells_removed` is the size of
    the union.
    """

    features_in: int = 0
    features_out: int = 0
    features_removed_low_cell_count: int = 0
    cells_in: int = 0
    cells_out: int = 0
    cells_removed: int = 0
    cells_failed_min_features: int = 0
    cells_failed_top_share: int = 0
    cells_failed_mito_share: int = 0
    cells_failed_ribo_share: int = 0
    feature_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    cell_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def to_json(self) -> str:
        payload = {
            "features_in": self.features_in,
            "features_out": self.features_out,
            "features_removed_low_cell_count": self.features_removed_low_cell_count,
            "cells_in": self.cells_in,
            "cells_out": self.cells_out,
            "cells_removed": self.cells_removed,
            "cells_failed_min_features": self.cells_failed_min_features,
            "cells_failed_top_share": self.cells_failed_top_share,
            "cells_failed_mito_share": self.cells_failed_mito_share,
            "cells_failed_ribo_share": self.cells_failed_ribo_share,
            "feature_mask": [int(v) for v in self.feature_mask],
            "cell_mask": [int(v) for v in self.cell_mask],
        }
        return json.dumps(payload, indent=2)


class EmptyMatrixError(ValueError):
    """QC removed everything; the report of the failed run is attached."""

    def __init__(self, message: str, report: QcReport):
        super().__init__(message)
        self.report = report


def filter_features(counts: CountMatrix, cfg: QcConfig) -> np.ndarray:
    """Mask of features with non-zero counts in >= min_cells_per_feature cells."""
    csr = counts.csr()
    cells_per_feature = np.diff(csr.indptr)
    return cells_per_feature >= cfg.min_cells_per_feature


def _prefix_mask(ids, prefixes) -> np.ndarray:
    return np.array(
        [any(i.startswith(p) for p in prefixes) for i in ids], dtype=bool
    )


def _max_count_per_cell(counts: CountMatrix, row_mask: np.ndarray) -> np.ndarray:
    """Column-wise maximum over the rows selected by row_mask."""
    csc = counts.csc()[row_mask]
    out = np.zeros(counts.n_cells, dtype=np.int64)
    indptr = csc.indptr
    data = csc.data
    nonempty = np.flatnonzero(np.diff(indptr))
    if nonempty.size:
        out[nonempty] = np.maximum.reduceat(data, indptr[nonempty])
    return out


def filter_cells(counts: CountMatrix, cfg: QcConfig, report: QcReport | None = None) -> np.ndarray:
    """Mask of cells passing all enabled per-cell rules.

    Shares are strict-survival comparisons: a cell at exactly the threshold
    is removed.  A zero-total cell fails the min-features rule, never a
    division.
    """
    csc = counts.csc()
    features_per_cell = np.diff(csc.indptr)
    totals = np.asarray(csc.sum(axis=0)).ravel().astype(np.int64)
    safe_totals = np.where(totals > 0, totals, 1).astype(np.float64)

    ok_min_features = features_per_cell >= cfg.min_features_per_cell

    excluded = np.array(
        [fid in set(cfg.top_share_exclude) for fid in counts.feature_ids], dtype=bool
    )
    top_counts = _max_count_per_cell(counts, ~excluded)
    # Denominator is always the full cell total; the exclusion list only
    # removes candidates for the numerator's maximum.
    ok_top_share = (top_counts / safe_totals) < cfg.max_top_share

    ok_mito = np.ones(counts.n_cells, dtype=bool)
    if cfg.max_mito_share is not None:
        mito_rows = _prefix_mask(counts.feature_ids, (cfg.mito_prefix,))
        mito_totals = np.asarray(csc[mito_rows].sum(axis=0)).ravel()
        ok_mito = (mito_totals / safe_totals) < cfg.max_mito_share

    ok_ribo = np.ones(counts.n_cells, dtype=bool)
    if cfg.max_ribo_share is not None:
        ribo_rows = _prefix_mask(counts.feature_ids, tuple(cfg.ribo_prefixes))
        ribo_totals = np.asarray(csc[ribo_rows].sum(axis=0)).ravel()
        ok_ribo = (ribo_totals / safe_totals) < cfg.max_ribo_share

    if report is not None:
        report.cells_failed_min_features = int((~ok_min_features).sum())
        report.cells_failed_top_share = int((~ok_top_share).sum())
        report.cells_failed_mito_share = int((~ok_mito).sum())
        report.cells_failed_ribo_share = int((~ok_ribo).sum())

    return ok_min_features & ok_top_share & ok_mito & ok_ribo


def run_qc(counts: CountMatrix, cfg: QcConfig | None = None) -> tuple[CountMatrix, QcReport]:
    """Apply the feature filter, then the cell filters, once each."""
    cfg = cfg or QcConfig()
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
    cell_mask = filter_cells(stats_matrix, cfg, report)
    report.cell_mask = cell_mask
    report.cells_removed = int((~cell_mask).sum())
    report.cells_out = int(cell_mask.sum())
    if report.cells_out == 0:
        raise EmptyMatrixError("QC removed every cell", report)

    result = submatrix(filtered, np.ones(filtered.n_features, dtype=bool), cell_mask)
    return result, report
