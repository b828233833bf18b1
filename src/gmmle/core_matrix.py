"""Sparse non-negative integer count matrices with feature/cell identifiers.

A count matrix is treated throughout the package as the adjacency matrix of
a bipartite multigraph: rows are feature nodes, columns are cell nodes, and
an entry is the number of parallel edges joining the pair.  Entries are
stored as 64-bit integers (dataset-level totals can exceed 2**32) and zeros
are implicit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp


class MatrixFormatError(ValueError):
    """Malformed matrix file; message carries the offending line number."""


def _check_unique(ids, kind: str):
    if len(set(ids)) != len(ids):
        raise ValueError(f"{kind} ids are not unique")


class CountMatrix:
    """Immutable sparse matrix of strictly positive integer counts.

    Both compressed orientations are exposed (`csr`, `csc`) because row
    operations (feature filters) and column operations (cell filters,
    per-cell scaling) are both hot paths.  Instances must not be mutated
    after construction; all pipeline operations return new objects.
    """

    def __init__(self, matrix: sp.spmatrix, feature_ids, cell_ids):
        csr = sp.csr_matrix(matrix, dtype=np.int64, copy=True)
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        n_features, n_cells = csr.shape
        feature_ids = tuple(str(i) for i in feature_ids)
        cell_ids = tuple(str(i) for i in cell_ids)
        if len(feature_ids) != n_features:
            raise ValueError(f"{len(feature_ids)} feature ids for {n_features} rows")
        if len(cell_ids) != n_cells:
            raise ValueError(f"{len(cell_ids)} cell ids for {n_cells} columns")
        _check_unique(feature_ids, "feature")
        _check_unique(cell_ids, "cell")
        if csr.nnz and csr.data.min() <= 0:
            raise ValueError("counts must be strictly positive integers")
        self._csr = csr
        self._csc = None
        self.feature_ids = feature_ids
        self.cell_ids = cell_ids

    @property
    def n_features(self) -> int:
        return self._csr.shape[0]

    @property
    def n_cells(self) -> int:
        return self._csr.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._csr.shape

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    def csr(self) -> sp.csr_matrix:
        return self._csr

    def csc(self) -> sp.csc_matrix:
        if self._csc is None:
            self._csc = self._csr.tocsc()
        return self._csc

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def entry_set(self) -> set[tuple[int, int, int]]:
        coo = self._csr.tocoo()
        return {
            (int(i), int(j), int(v))
            for i, j, v in zip(coo.row, coo.col, coo.data)
        }

    @classmethod
    def from_entries(
        cls,
        n_features: int,
        n_cells: int,
        rows,
        cols,
        counts,
        feature_ids=None,
        cell_ids=None,
    ) -> "CountMatrix":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_features:
                raise ValueError("feature index out of range")
            if cols.min() < 0 or cols.max() >= n_cells:
                raise ValueError("cell index out of range")
            keys = np.sort(rows * np.int64(n_cells) + cols)
            if (keys[1:] == keys[:-1]).any():
                raise ValueError("duplicate (feature, cell) coordinate")
        matrix = sp.csr_matrix(
            (counts, (rows, cols)), shape=(n_features, n_cells), dtype=np.int64
        )
        if feature_ids is None:
            feature_ids = [f"f{i}" for i in range(n_features)]
        if cell_ids is None:
            cell_ids = [f"c{j}" for j in range(n_cells)]
        return cls(matrix, feature_ids, cell_ids)

    @classmethod
    def from_dense(cls, array, feature_ids=None, cell_ids=None) -> "CountMatrix":
        arr = np.asarray(array)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        rows, cols = np.nonzero(arr)
        return cls.from_entries(
            arr.shape[0], arr.shape[1], rows, cols, arr[rows, cols],
            feature_ids=feature_ids, cell_ids=cell_ids,
        )


@dataclass(frozen=True)
class DegreeVectors:
    """Row/column degree sums of the bipartite adjacency."""

    row_degrees: np.ndarray
    col_degrees: np.ndarray
    total: int


def degrees(counts: CountMatrix) -> DegreeVectors:
    """Exact integer row sums, column sums and grand total."""
    csr = counts.csr()
    row = np.asarray(csr.sum(axis=1)).ravel().astype(np.int64)
    col = np.asarray(csr.sum(axis=0)).ravel().astype(np.int64)
    total = int(csr.data.sum(dtype=np.int64)) if csr.nnz else 0
    return DegreeVectors(row, col, total)


def submatrix(counts: CountMatrix, feature_mask, cell_mask) -> CountMatrix:
    """Restriction to the selected features and cells; entries unchanged."""
    feature_mask = np.asarray(feature_mask, dtype=bool)
    cell_mask = np.asarray(cell_mask, dtype=bool)
    if feature_mask.shape != (counts.n_features,):
        raise ValueError("feature mask has wrong length")
    if cell_mask.shape != (counts.n_cells,):
        raise ValueError("cell mask has wrong length")
    if not feature_mask.any():
        raise ValueError("empty result: no features selected")
    if not cell_mask.any():
        raise ValueError("empty result: no cells selected")
    sliced = counts.csr()[feature_mask][:, cell_mask]
    fids = [fid for fid, keep in zip(counts.feature_ids, feature_mask) if keep]
    cids = [cid for cid, keep in zip(counts.cell_ids, cell_mask) if keep]
    return CountMatrix(sliced, fids, cids)


def _sidecar_paths(path: Path) -> tuple[Path, Path]:
    stem = path.with_suffix("")
    return (
        stem.parent / (stem.name + ".features.txt"),
        stem.parent / (stem.name + ".cells.txt"),
    )


def _read_id_file(path: Path, expected: int, kind: str) -> list[str]:
    ids = [line.rstrip("\n") for line in path.read_text().splitlines()]
    ids = [i for i in ids if i != ""]
    if len(ids) != expected:
        raise MatrixFormatError(
            f"{path}: {len(ids)} {kind} ids for a matrix with {expected} {kind}s"
        )
    return ids


def read_matrix_market(path) -> CountMatrix:
    """Read a MatrixMarket coordinate file of integer counts.

    Real-valued files are accepted only when every entry is integral to
    within 1e-9 (some public datasets serialize integers as reals).
    Companion ``<stem>.features.txt`` / ``<stem>.cells.txt`` id files are
    used when present; synthetic ``f0..`` / ``c0..`` ids otherwise.

    The body is parsed in one array pass.  A body that pass does not accept
    (comment lines, reals, bad or duplicate entries) is parsed again from
    the top by the line parser, which gives the same result and is the only
    path that reports errors, with their line numbers.
    """
    path = Path(path)
    matrix = _read_counts_csr(path)
    n_features, n_cells = matrix.shape
    feature_path, cell_path = _sidecar_paths(path)
    feature_ids = (
        _read_id_file(feature_path, n_features, "feature")
        if feature_path.exists()
        else [f"f{i}" for i in range(n_features)]
    )
    cell_ids = (
        _read_id_file(cell_path, n_cells, "cell")
        if cell_path.exists()
        else [f"c{j}" for j in range(n_cells)]
    )
    return CountMatrix(matrix, feature_ids, cell_ids)


# Largest count the array pass accepts: up to 2**53 every integer is a
# float64, so the line parser's round(float(token)) gives the token's value.
_EXACT_FLOAT_INT = 2**53
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass
class _Entries:
    """Parsed coordinate body; zero-based indices in file order."""

    n_features: int
    n_cells: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    line_numbers: np.ndarray | None  # None from the array pass


def _read_counts_csr(path: Path) -> sp.csr_matrix:
    """Count matrix of a MatrixMarket file; the parsed arrays die on return."""
    entries = _parse_mm_array(path)
    if entries is None or _first_duplicate(entries) is not None:
        entries = _parse_mm_lines(path)
        dup = _first_duplicate(entries)
        if dup is not None:
            raise MatrixFormatError(
                f"{path} line {entries.line_numbers[dup]}: duplicate coordinate "
                f"({entries.rows[dup] + 1}, {entries.cols[dup] + 1})"
            )
    keep = entries.vals > 0
    return sp.csr_matrix(
        (entries.vals[keep], (entries.rows[keep], entries.cols[keep])),
        shape=(entries.n_features, entries.n_cells),
        dtype=np.int64,
    )


def _first_duplicate(entries: _Entries) -> int | None:
    """File position of the first entry repeating an earlier coordinate.

    A plain sort settles the usual no-duplicate case; ``np.unique`` with
    ``return_index`` (a stable argsort, ≈15x slower on unordered keys such
    as a column-major file) runs only to locate a duplicate.
    """
    keys = entries.rows * np.int64(entries.n_cells) + entries.cols
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return None
    _, first = np.unique(keys, return_index=True)
    seen = np.ones(keys.size, dtype=bool)
    seen[first] = False
    return int(np.argmax(seen))


def _read_mm_size(path: Path, handle) -> tuple[int, int, int, int]:
    """Header and size line: (n_features, n_cells, nnz, size line number)."""
    header = handle.readline()
    if not header.startswith("%%MatrixMarket"):
        raise MatrixFormatError(f"{path} line 1: missing MatrixMarket header")
    fields = header.strip().split()
    if (
        len(fields) != 5
        or fields[1] != "matrix"
        or fields[2] != "coordinate"
        or fields[3] not in ("integer", "real")
        or fields[4] != "general"
    ):
        raise MatrixFormatError(
            f"{path} line 1: unsupported header {header.strip()!r}; expected "
            "'%%MatrixMarket matrix coordinate <integer|real> general'"
        )
    line_no = 1
    size_line = None
    for line in handle:
        line_no += 1
        if line.startswith("%") or not line.strip():
            continue
        size_line = line
        break
    if size_line is None:
        raise MatrixFormatError(f"{path}: missing size line")
    parts = size_line.split()
    if len(parts) != 3:
        raise MatrixFormatError(f"{path} line {line_no}: bad size line")
    try:
        n_features, n_cells, nnz = (int(p) for p in parts)
    except ValueError:
        raise MatrixFormatError(f"{path} line {line_no}: bad size line") from None
    if n_features <= 0 or n_cells <= 0:
        raise MatrixFormatError(f"{path} line {line_no}: zero dimensions")
    # coordinates are unique, so more entries than cells cannot be valid
    if not 0 <= nnz <= n_features * n_cells:
        raise MatrixFormatError(
            f"{path} line {line_no}: {nnz} entries declared for a "
            f"{n_features}x{n_cells} matrix"
        )
    return n_features, n_cells, nnz, line_no


def _parse_mm_array(path: Path) -> _Entries | None:
    """Whole body as one int64 table, or None when the line parser must decide.

    ``np.loadtxt`` reads ASCII-digit integers only, a subset of what the
    line parser's ``int``/``float`` accept, so whatever it rejects (comments,
    reals, ``1_0``, ragged rows) goes to the line parser.
    """
    with path.open() as handle:
        n_features, n_cells, nnz, _ = _read_mm_size(path, handle)
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(handle, dtype=np.int64, ndmin=2, comments=None)
        except ValueError:
            return None
    if table.size == 0:  # an empty body reads as shape (0, 1)
        table = table.reshape(0, 3)
    if table.shape != (nnz, 3):
        return None
    rows, cols, vals = table[:, 0] - 1, table[:, 1] - 1, table[:, 2].copy()
    if nnz and (
        rows.min() < 0 or rows.max() >= n_features
        or cols.min() < 0 or cols.max() >= n_cells
        or vals.min() < 0 or vals.max() > _EXACT_FLOAT_INT
    ):
        return None
    return _Entries(n_features, n_cells, rows, cols, vals, None)


def _parse_mm_lines(path: Path) -> _Entries:
    """Reference parser: one line at a time, errors name their line."""
    with path.open() as handle:
        n_features, n_cells, nnz, line_no = _read_mm_size(path, handle)
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.int64)
        entry_lines = np.empty(nnz, dtype=np.int64)
        k = 0
        for line in handle:
            line_no += 1
            if line.startswith("%") or not line.strip():
                continue
            parts = line.split()
            if len(parts) != 3:
                raise MatrixFormatError(
                    f"{path} line {line_no}: expected 'row col value'"
                )
            if k >= nnz:
                raise MatrixFormatError(
                    f"{path} line {line_no}: more entries than declared ({nnz})"
                )
            try:
                i = int(parts[0])
                j = int(parts[1])
            except ValueError:
                raise MatrixFormatError(
                    f"{path} line {line_no}: non-integer index"
                ) from None
            try:
                raw = float(parts[2])
                value = round(raw)  # ValueError on nan, OverflowError on inf
            except (ValueError, OverflowError):
                value = None
            if value is None or value > _INT64_MAX:
                raise MatrixFormatError(
                    f"{path} line {line_no}: unreadable value {parts[2]!r}"
                )
            if abs(raw - value) > 1e-9:
                raise MatrixFormatError(
                    f"{path} line {line_no}: non-integral value {parts[2]}"
                )
            if value < 0:
                raise MatrixFormatError(
                    f"{path} line {line_no}: negative count {parts[2]}"
                )
            if not (1 <= i <= n_features) or not (1 <= j <= n_cells):
                raise MatrixFormatError(
                    f"{path} line {line_no}: index ({i}, {j}) outside "
                    f"{n_features}x{n_cells}"
                )
            rows[k], cols[k], vals[k] = i - 1, j - 1, value
            entry_lines[k] = line_no
            k += 1
        if k != nnz:
            raise MatrixFormatError(
                f"{path}: declared {nnz} entries but found {k}"
            )
    return _Entries(n_features, n_cells, rows, cols, vals, entry_lines)


# Entries formatted per slice by matrix_market_text.
_TEXT_SLICE = 1 << 15


def matrix_market_text(counts: CountMatrix) -> str:
    """MatrixMarket coordinate integer serialization, row-major order."""
    # the CSR is canonical (sorted indices, no duplicates), so COO order is
    # row-major
    coo = counts.csr().tocoo()
    rows, cols = coo.row + 1, coo.col + 1
    parts = [
        "%%MatrixMarket matrix coordinate integer general",
        f"{counts.n_features} {counts.n_cells} {counts.nnz}",
    ]
    # formatted in slices: whole-matrix lists of Python ints and lines would
    # hold tens of MB at once
    for start in range(0, counts.nnz, _TEXT_SLICE):
        piece = slice(start, start + _TEXT_SLICE)
        parts.append("\n".join(map(
            "{} {} {}".format,
            rows[piece].tolist(), cols[piece].tolist(), coo.data[piece].tolist(),
        )))
    return "\n".join(parts) + "\n"


def write_matrix_market(counts: CountMatrix, path) -> None:
    """Write MatrixMarket coordinate integer format plus id sidecar files."""
    path = Path(path)
    path.write_text(matrix_market_text(counts))
    feature_path, cell_path = _sidecar_paths(path)
    feature_path.write_text("\n".join(counts.feature_ids) + "\n")
    cell_path.write_text("\n".join(counts.cell_ids) + "\n")


def read_dense_tsv(path) -> CountMatrix:
    """Read a dense TSV: first row cell ids, first column feature ids.

    A corner label in the header row is tolerated.  Only non-zero body
    entries are stored.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    lines = [line for line in lines if line.strip() != ""]
    if len(lines) < 2:
        raise MatrixFormatError(f"{path}: zero dimensions (header or body missing)")
    header = lines[0].split("\t")
    body = [line.split("\t") for line in lines[1:]]
    width = len(body[0])
    if width < 2:
        raise MatrixFormatError(f"{path}: zero dimensions (no data columns)")
    n_cells = width - 1
    if len(header) == n_cells + 1:
        cell_ids = header[1:]
    elif len(header) == n_cells:
        cell_ids = header
    else:
        raise MatrixFormatError(
            f"{path} line 1: header has {len(header)} fields for {n_cells} data columns"
        )

    feature_ids = []
    rows, cols, vals = [], [], []
    for offset, parts in enumerate(body):
        line_no = offset + 2
        if len(parts) != width:
            raise MatrixFormatError(
                f"{path} line {line_no}: ragged row ({len(parts)} fields, expected {width})"
            )
        feature_ids.append(parts[0])
        for j, token in enumerate(parts[1:]):
            try:
                value = int(token)
            except ValueError:
                raise MatrixFormatError(
                    f"{path} line {line_no}: non-integer token {token!r}"
                ) from None
            if value < 0:
                raise MatrixFormatError(
                    f"{path} line {line_no}: negative count {token}"
                )
            if value:
                rows.append(offset)
                cols.append(j)
                vals.append(value)
    return CountMatrix.from_entries(
        len(feature_ids), n_cells, rows, cols, vals,
        feature_ids=feature_ids, cell_ids=cell_ids,
    )
