"""Marker-panel scoring of clusterings.

Expression is summarized as the mean of ln(1 + count) over a
(features x cells) grid on raw counts, with no library-size normalization
(which could induce spurious correlations between transcripts).  A cluster
is typed by the panel with the greatest mean log expression; per-type
ratios compare a type's own markers against the pooled markers of the
other panels within the cells assigned to that type.  Presence/absence
gating retains cells expressing every required marker and none of the
forbidden ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import require_int
from .core_matrix import CountMatrix
from .mixture import ClusterLabels


@dataclass(frozen=True)
class MarkerPanel:
    name: str
    features: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        if not self.features:
            raise ValueError(f"panel {self.name!r} has no features")


def _resolve_features(counts: CountMatrix, feature_ids, context: str) -> np.ndarray:
    index = {fid: i for i, fid in enumerate(counts.feature_ids)}
    found = [index[f] for f in feature_ids if f in index]
    missing = [f for f in feature_ids if f not in index]
    if missing:
        # attributed to the line in _resolve_panels, so the default warning
        # filter reports a panel's missing ids once however often it resolves
        warnings.warn(f"{context}: dropping unresolvable feature ids {missing}", stacklevel=2)
    if not found:
        raise ValueError(f"{context}: no feature ids resolve against the matrix")
    return np.array(sorted(set(found)), dtype=np.int64)


def _resolve_panels(counts: CountMatrix, panels: list[MarkerPanel]) -> list[np.ndarray]:
    """Sorted matrix row indices of each panel's features, in panel order."""
    if not panels:
        raise ValueError("no panels supplied")
    return [_resolve_features(counts, p.features, f"panel {p.name!r}") for p in panels]


def mean_log_expression(counts: CountMatrix, cell_indices, feature_indices) -> float:
    """Mean of ln(1 + count) over the feature x cell grid, zeros included."""
    cells = np.asarray(cell_indices, dtype=np.int64)
    feats = np.asarray(feature_indices, dtype=np.int64)
    if cells.size == 0 or feats.size == 0:
        raise ValueError("empty cell or feature subset")
    block = counts.csr()[feats][:, cells]
    total = float(np.log1p(block.data).sum())
    return total / (feats.size * cells.size)


def assign_cluster_types(
    counts: CountMatrix,
    labels: ClusterLabels,
    panels: list[MarkerPanel],
) -> dict[int, str]:
    """Type each cluster id present in the labels by its highest-scoring
    panel (first panel wins ties)."""
    resolved = _resolve_panels(counts, panels)
    assignment: dict[int, str] = {}
    for cluster in np.unique(labels.labels).tolist():
        cells = np.flatnonzero(labels.labels == cluster)
        scores = [mean_log_expression(counts, cells, feats) for feats in resolved]
        best = int(np.argmax(scores))  # first maximum wins
        if sum(1 for s in scores if s == scores[best]) > 1:
            warnings.warn(
                f"cluster {cluster}: tie between panels; keeping "
                f"{panels[best].name!r} (input order)",
                stacklevel=2,
            )
        assignment[cluster] = panels[best].name
    return assignment


def marker_ratio_table(
    counts: CountMatrix,
    labels: ClusterLabels,
    panels: list[MarkerPanel],
    assignment: dict[int, str],
    denominator: str = "pooled",
) -> dict[str, float | None]:
    """Per-type ratio of own-marker to other-marker mean log expression.

    ``assignment`` is ``assign_cluster_types(counts, labels, panels)``.
    For type t with assigned cell set S_t (union of clusters typed t):
    numerator is the t panel's mean log expression over S_t; the default
    "pooled" denominator uses the union of every other panel's features,
    "per_type_mean" averages the per-panel means instead.  Types with no
    assigned cells, or a zero denominator, are reported as None.
    """
    if denominator not in ("pooled", "per_type_mean"):
        raise ValueError(f"unknown denominator mode {denominator!r}")
    resolved = _resolve_panels(counts, panels)
    table: dict[str, float | None] = {}
    for panel, own in zip(panels, resolved):
        member_clusters = [c for c, t in assignment.items() if t == panel.name]
        others = [feats for p, feats in zip(panels, resolved) if p.name != panel.name]
        if not member_clusters or not others:
            table[panel.name] = None
            continue
        cells = np.flatnonzero(np.isin(labels.labels, member_clusters))
        numerator = mean_log_expression(counts, cells, own)
        if denominator == "pooled":
            denom = mean_log_expression(counts, cells, np.unique(np.concatenate(others)))
        else:
            denom = float(np.mean([mean_log_expression(counts, cells, f) for f in others]))
        if denom == 0.0:
            warnings.warn(
                f"type {panel.name!r}: zero denominator, ratio reported as absent",
                stacklevel=2,
            )
            table[panel.name] = None
        else:
            table[panel.name] = numerator / denom
    return table


def gate_cells(
    counts: CountMatrix,
    cell_indices,
    positive,
    negative,
    min_pos: int = 1,
    max_neg: int = 0,
) -> np.ndarray:
    """Cells with count >= min_pos for EVERY positive marker and
    count <= max_neg for EVERY negative marker.

    Marker ids must resolve against the matrix; raising min_pos can only
    shrink the result.  Counts are whole and non-negative, so ``min_pos``
    must be >= 1 and ``max_neg`` >= 0: below that a threshold passes every
    cell or none.
    """
    require_int(min_pos, "min_pos", low=1)
    require_int(max_neg, "max_neg", low=0)
    cells = np.asarray(cell_indices, dtype=np.int64)
    index = {fid: i for i, fid in enumerate(counts.feature_ids)}
    missing = [m for m in list(positive) + list(negative) if m not in index]
    if missing:
        raise ValueError(f"gate markers not present in matrix: {missing}")
    csr = counts.csr()
    keep = np.ones(cells.size, dtype=bool)
    for marker in positive:
        row = np.asarray(csr[index[marker]].toarray()).ravel()[cells]
        keep &= row >= min_pos
    for marker in negative:
        row = np.asarray(csr[index[marker]].toarray()).ravel()[cells]
        keep &= row <= max_neg
    return cells[keep]


def panels_from_tsv(text: str) -> list[MarkerPanel]:
    """Two-column TSV (type, feature_id); panel order = first appearance."""
    features: dict[str, list[str]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"panel TSV line {line_no}: expected 2 fields")
        features.setdefault(parts[0], []).append(parts[1])
    return [MarkerPanel(name, tuple(feats)) for name, feats in features.items()]

