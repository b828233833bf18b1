"""Quality-control filters for count matrices.

Features are dropped when expressed in too few cells; cells are dropped
when they express too few features, when a single (non-excluded) feature
dominates their counts, or when mitochondrial / ribosomal transcripts take
too large a share.  Filtering runs features-first, then cells, once each,
with no iteration to a joint fixed point, so results are reproducible
functions of the input and configuration.  The per-cell statistics count
the features that pass the feature filter (every input feature with
``cell_stats_on_raw``), as ``core_matrix.column_sums`` products and over
``core_matrix.entry_blocks``, so they need memory for one row block, not
for a copy of the matrix.  The matrix is then restricted once, to the
passing features and cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_matrix import CountMatrix, column_sums, entry_blocks, submatrix


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
    # When True, the per-cell statistics count every input feature, not
    # only the features that pass the feature filter.
    cell_stats_on_raw: bool = False

    def __post_init__(self):
        for name in ("min_cells_per_feature", "min_features_per_cell"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("max_top_share", "max_mito_share", "max_ribo_share"):
            value = getattr(self, name)
            if value is not None and not (0.0 < value <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1]")
        # a str would be iterated by character: "RPL" as the prefixes R, P, L
        for name in ("top_share_exclude", "ribo_prefixes"):
            value = getattr(self, name)
            if isinstance(value, str):
                raise ValueError(f"{name} must be a sequence of strings, not a str, got {value!r}")
        # every feature id starts with "", so an empty prefix would mark
        # every feature as mitochondrial or ribosomal
        if self.mito_prefix == "":
            raise ValueError("mito_prefix must not be empty")
        if any(prefix == "" for prefix in self.ribo_prefixes):
            raise ValueError(
                f"ribo_prefixes must not hold an empty prefix, got {self.ribo_prefixes!r}"
            )


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


class EmptyMatrixError(ValueError):
    """QC removed everything; the report of the failed run is attached."""

    def __init__(self, message: str, report: QcReport):
        super().__init__(message)
        self.report = report


def filter_features(counts: CountMatrix, cfg: QcConfig) -> np.ndarray:
    """Mask of features with non-zero counts in >= min_cells_per_feature cells."""
    return np.diff(counts.csr().indptr) >= cfg.min_cells_per_feature


def _prefix_mask(ids, prefixes) -> np.ndarray:
    return np.array(
        [any(i.startswith(p) for p in prefixes) for i in ids], dtype=bool
    )


def filter_cells(counts: CountMatrix, cfg: QcConfig) -> np.ndarray:
    """Mask of cells passing all enabled per-cell rules.

    Shares are strict-survival comparisons: a cell at exactly the threshold
    is removed.  A zero-total cell fails the min-features rule, never a
    division.
    """
    return _passing_cells(counts, cfg, np.ones(counts.n_features, dtype=bool), None)


def _passing_cells(
    counts: CountMatrix, cfg: QcConfig, rows: np.ndarray, report: QcReport | None
) -> np.ndarray:
    """filter_cells with every per-cell statistic counting only the features
    in the mask ``rows``."""
    exclude = set(cfg.top_share_exclude)
    candidates = rows & np.array(
        [fid not in exclude for fid in counts.feature_ids], dtype=bool
    )
    features_per_cell, top_counts = _cell_counts(counts, rows, candidates)
    totals = column_sums(counts, rows)
    safe_totals = np.where(totals > 0, totals, 1).astype(np.float64)

    ok_min_features = features_per_cell >= cfg.min_features_per_cell
    # Denominator is always the full cell total; the exclusion list only
    # removes candidates for the numerator's maximum.
    ok_top_share = (top_counts / safe_totals) < cfg.max_top_share

    ok_mito = np.ones(counts.n_cells, dtype=bool)
    if cfg.max_mito_share is not None:
        mito_rows = _prefix_mask(counts.feature_ids, (cfg.mito_prefix,))
        ok_mito = (column_sums(counts, rows & mito_rows) / safe_totals) < cfg.max_mito_share

    ok_ribo = np.ones(counts.n_cells, dtype=bool)
    if cfg.max_ribo_share is not None:
        ribo_rows = _prefix_mask(counts.feature_ids, tuple(cfg.ribo_prefixes))
        ok_ribo = (column_sums(counts, rows & ribo_rows) / safe_totals) < cfg.max_ribo_share

    if report is not None:
        report.cells_failed_min_features = int((~ok_min_features).sum())
        report.cells_failed_top_share = int((~ok_top_share).sum())
        report.cells_failed_mito_share = int((~ok_mito).sum())
        report.cells_failed_ribo_share = int((~ok_ribo).sum())

    return ok_min_features & ok_top_share & ok_mito & ok_ribo


def _cell_counts(
    counts: CountMatrix, rows: np.ndarray, candidates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per cell, the number of features in the mask ``rows`` it expresses
    and its largest count among the features in ``candidates``, both int64."""
    n_cells = counts.n_cells
    features_per_cell = np.zeros(n_cells, dtype=np.int64)
    top_counts = np.zeros(n_cells, dtype=np.int64)
    for row_ids, cells, values in entry_blocks(counts):
        features_per_cell += np.bincount(cells[rows[row_ids]], minlength=n_cells)
        in_top = candidates[row_ids]
        np.maximum.at(top_counts, cells[in_top], values[in_top])
    return features_per_cell, top_counts


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

    stats_rows = np.ones_like(feature_mask) if cfg.cell_stats_on_raw else feature_mask
    cell_mask = _passing_cells(counts, cfg, stats_rows, report)
    report.cell_mask = cell_mask
    report.cells_removed = int((~cell_mask).sum())
    report.cells_out = int(cell_mask.sum())
    if report.cells_out == 0:
        raise EmptyMatrixError("QC removed every cell", report)

    return submatrix(counts, feature_mask, cell_mask), report
