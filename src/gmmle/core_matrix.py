"""Sparse non-negative integer count matrices with feature/cell identifiers.

A count matrix is treated throughout the package as the adjacency matrix of
a bipartite multigraph: rows are feature nodes, columns are cell nodes, and
an entry is the number of parallel edges joining the pair.  Entries are
stored as 64-bit integers (dataset-level totals can exceed 2**32) and zeros
are implicit.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np
import scipy.sparse as sp


class MatrixFormatError(ValueError):
    """Malformed matrix file; message carries the offending line number."""


def _check_unique(ids, kind: str):
    if len(set(ids)) != len(ids):
        raise ValueError(f"{kind} ids are not unique")


def _checked_ids(shape, feature_ids, cell_ids) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Ids as str tuples, one per row and per column, each set unique."""
    n_features, n_cells = shape
    feature_ids = tuple(str(i) for i in feature_ids)
    cell_ids = tuple(str(i) for i in cell_ids)
    if len(feature_ids) != n_features:
        raise ValueError(f"{len(feature_ids)} feature ids for {n_features} rows")
    if len(cell_ids) != n_cells:
        raise ValueError(f"{len(cell_ids)} cell ids for {n_cells} columns")
    _check_unique(feature_ids, "feature")
    _check_unique(cell_ids, "cell")
    return feature_ids, cell_ids


class CountMatrix:
    """Immutable sparse matrix of strictly positive integer counts.

    Stored as one canonical CSR (`csr`): feature filters slice its rows,
    and per-cell statistics are gathered over its column indices.
    Instances must not be mutated after construction; all pipeline
    operations return new objects.
    """

    def __init__(self, matrix: sp.spmatrix, feature_ids, cell_ids):
        csr = sp.csr_matrix(matrix, copy=True)
        if csr.dtype.kind not in "biu":
            # values the int64 cast would change: non-finite, fractional, too large
            exact = (np.abs(csr.data) < 2.0**63) & (np.floor(csr.data) == csr.data)
            if not exact.all():
                bad = float(csr.data[np.argmin(exact)])
                raise ValueError(f"counts must be finite integers, got {bad!r}")
        csr = csr.astype(np.int64, copy=False)
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        feature_ids, cell_ids = _checked_ids(csr.shape, feature_ids, cell_ids)
        if csr.nnz and csr.data.min() <= 0:
            raise ValueError("counts must be strictly positive integers")
        self._adopt(csr, feature_ids, cell_ids)

    @classmethod
    def _from_canonical(cls, csr: sp.csr_matrix, feature_ids, cell_ids) -> "CountMatrix":
        """Wrap a CSR that is already canonical, without copying it.

        The caller guarantees int64 data, all strictly positive, sorted
        indices and no duplicates: what ``__init__`` would make of it.
        Only the ids are checked.
        """
        self = cls.__new__(cls)
        self._adopt(csr, *_checked_ids(csr.shape, feature_ids, cell_ids))
        return self

    def _adopt(self, csr: sp.csr_matrix, feature_ids, cell_ids) -> None:
        self._csr = csr
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

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    @classmethod
    def from_dense(cls, array, feature_ids=None, cell_ids=None) -> "CountMatrix":
        arr = np.asarray(array)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        if feature_ids is None:
            feature_ids = [f"f{i}" for i in range(arr.shape[0])]
        if cell_ids is None:
            cell_ids = [f"c{j}" for j in range(arr.shape[1])]
        return cls(arr, feature_ids, cell_ids)


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


# Entries per block of _row_blocks: 2**20 entries keep a block's per-entry
# temporaries near 8 MB each, however many entries the matrix holds.
_ROW_BLOCK_ENTRIES = 1 << 20


def _row_blocks(indptr: np.ndarray):
    """Consecutive row ranges of a CSR, ``(first, stop, lo, hi)`` each: rows
    ``first:stop`` hold the entries ``lo:hi``.  A block takes rows while its
    entries stay within ``_ROW_BLOCK_ENTRIES``, and always at least one row,
    so a longer row is a block by itself.  Callers slice the CSR's arrays
    with ``lo:hi``, which makes views, not copies."""
    n_rows = indptr.size - 1
    first = 0
    while first < n_rows:
        lo = int(indptr[first])
        stop = int(np.searchsorted(indptr, lo + _ROW_BLOCK_ENTRIES, side="right")) - 1
        stop = min(max(stop, first + 1), n_rows)
        yield first, stop, lo, int(indptr[stop])
        first = stop


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
    if feature_mask.all() and cell_mask.all():
        return counts  # immutable, so the restriction to everything is itself
    sliced = counts.csr()[feature_mask]
    sliced = sliced if cell_mask.all() else sliced[:, cell_mask]
    fids = [fid for fid, keep in zip(counts.feature_ids, feature_mask) if keep]
    cids = [cid for cid, keep in zip(counts.cell_ids, cell_mask) if keep]
    # slicing a canonical CSR by masks keeps it canonical
    return CountMatrix._from_canonical(sliced, fids, cids)


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

    The body is parsed by an array pass, chunk by chunk.  Entries in
    strictly increasing row-major order (the order ``write_matrix_market``
    writes) become the CSR directly; any other order goes through the
    duplicate check and a COO build.  A body the array pass does not accept
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
    return CountMatrix._from_canonical(matrix, feature_ids, cell_ids)


# Largest count the array pass accepts: up to 2**53 every integer is a
# float64, so the line parser's round(float(token)) gives the token's value.
_EXACT_FLOAT_INT = 2**53
_INT64_MAX = int(np.iinfo(np.int64).max)

# Characters of text read per chunk by the array passes.  A chunk's text,
# lines and parsed table are transient; at this size they stay a small
# share of any matrix large enough for memory to matter.
_CHUNK_CHARS = 1 << 16


def _index_dtype(n_features: int, n_cells: int, nnz: int):
    """The index dtype scipy gives a CSR of this shape and size."""
    return np.int32 if max(n_features, n_cells, nnz) <= np.iinfo(np.int32).max else np.int64


def _text_chunks(handle):
    """Successive runs of whole lines from a text handle, ≈_CHUNK_CHARS
    characters each; every run but the last ends in a newline."""
    carry = ""
    while piece := handle.read(_CHUNK_CHARS):
        piece = carry + piece
        cut = piece.rfind("\n") + 1
        carry = piece[cut:]
        if cut:
            yield piece[:cut]
    if carry:
        yield carry


def _load_chunk(lines: list[str], **options) -> np.ndarray:
    """``np.loadtxt`` of one chunk's lines as a 2-D int64 table; blank lines
    read as no rows.  Raises ValueError on any token or row it cannot read.

    Only plain ASCII may reach it: ``np.loadtxt`` reads some non-ASCII
    characters as digits (``"3\\u01fe"`` as 492) where ``int`` rejects them.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None, **options)


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
    """Canonical count CSR of a MatrixMarket file; the parsed arrays die on
    return."""
    entries = _parse_mm_array(path)
    if isinstance(entries, sp.csr_matrix):
        return entries
    if entries is None or _first_duplicate(entries) is not None:
        entries = _parse_mm_lines(path)
        dup = _first_duplicate(entries)
        if dup is not None:
            raise MatrixFormatError(
                f"{path} line {entries.line_numbers[dup]}: duplicate coordinate "
                f"({entries.rows[dup] + 1}, {entries.cols[dup] + 1})"
            )
    keep = entries.vals > 0
    # the COO build sums duplicates, so its result is canonical
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
    # each entry takes at least "i j v" and a line break (none after the
    # last), so a count the file cannot hold is refused before any array
    # is sized by it
    size = path.stat().st_size
    if nnz > (size + 1) // 6:
        raise MatrixFormatError(
            f"{path} line {line_no}: {nnz} entries declared, more than a "
            f"file of {size} bytes can hold"
        )
    return n_features, n_cells, nnz, line_no


def _parse_mm_array(path: Path) -> sp.csr_matrix | _Entries | None:
    """Body parsed chunk by chunk into nnz-length arrays, or None when the
    line parser must decide.

    On plain ASCII ``np.loadtxt`` reads digit integers only, a subset of
    what the line parser's ``int``/``float`` accept, so whatever it rejects
    (comments, reals, ``1_0``, ragged rows) goes to the line parser, as does
    any chunk with a non-ASCII character.  While the entries
    run in strictly increasing row-major order only per-row counts are
    kept, and the result is a canonical CSR (strict order rules out
    duplicates).  From the first entry out of that order on, rows are
    stored too and the result is the entries.
    """
    with path.open() as handle:
        n_features, n_cells, nnz, _ = _read_mm_size(path, handle)
        index_dtype = _index_dtype(n_features, n_cells, nnz)
        cols = np.empty(nnz, dtype=index_dtype)
        vals = np.empty(nnz, dtype=np.int64)
        row_counts = np.zeros(n_features, dtype=np.int64)
        rows = None  # allocated at the first entry out of row-major order
        last = (0, -1)  # (row, col) of the previous entry while in order
        k = 0
        for text in _text_chunks(handle):
            if not text.isascii():
                return None
            try:
                table = _load_chunk(text.split("\n"))
            except ValueError:
                return None
            if table.size == 0:  # blank lines read as shape (0, 1)
                continue
            end = k + table.shape[0]
            if table.shape[1] != 3 or end > nnz:
                return None
            r, c, v = table[:, 0] - 1, table[:, 1] - 1, table[:, 2]
            if (
                r.min() < 0 or r.max() >= n_features
                or c.min() < 0 or c.max() >= n_cells
                or v.min() < 0 or v.max() > _EXACT_FLOAT_INT
            ):
                return None
            if rows is None and _continues_row_major(last, r, c):
                # r is sorted, so the counts cover only rows r[0]..r[-1]
                row_counts[r[0]:r[-1] + 1] += np.bincount(r - r[0])
                last = (r[-1], c[-1])
            else:
                if rows is None:
                    rows = np.empty(nnz, dtype=index_dtype)
                    rows[:k] = np.repeat(np.arange(n_features, dtype=index_dtype), row_counts)
                rows[k:end] = r
            cols[k:end] = c
            vals[k:end] = v
            k = end
    if k != nnz:
        return None
    if rows is not None:
        return _Entries(n_features, n_cells, rows, cols, vals, None)
    indptr = np.zeros(n_features + 1, dtype=index_dtype)
    np.cumsum(row_counts, out=indptr[1:])
    csr = sp.csr_matrix((vals, cols, indptr), shape=(n_features, n_cells))
    csr.eliminate_zeros()  # in place: explicit zeros are not counts
    return csr


def _continues_row_major(last: tuple[int, int], rows: np.ndarray, cols: np.ndarray) -> bool:
    """Whether the entries, after the entry at ``last``, keep strictly
    increasing (row, col) order.  Compares pairs, so no key can overflow."""
    rows = np.concatenate(([last[0]], rows))
    cols = np.concatenate(([last[1]], cols))
    row_step = np.diff(rows)
    return bool(((row_step > 0) | ((row_step == 0) & (np.diff(cols) > 0))).all())


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


# Entries formatted per slice by _matrix_market_pieces.  A slice's arrays
# and text are transient: a few MB at this size.
_TEXT_SLICE = 1 << 15


def _matrix_market_pieces(counts: CountMatrix):
    """MatrixMarket text in newline-terminated pieces: the header, then
    one piece per slice of entries.

    The canonical CSR (sorted indices, no duplicates) is already in
    row-major order, so each slice is formatted straight from its
    ``indptr``, ``indices`` and ``data`` ranges; no whole-matrix array is
    made.
    """
    yield (
        "%%MatrixMarket matrix coordinate integer general\n"
        f"{counts.n_features} {counts.n_cells} {counts.nnz}\n"
    )
    csr = counts.csr()
    for start in range(0, counts.nnz, _TEXT_SLICE):
        stop = min(start + _TEXT_SLICE, counts.nnz)
        # rows first..last-1 hold the slice's entries
        first = int(np.searchsorted(csr.indptr, start, side="right")) - 1
        last = int(np.searchsorted(csr.indptr, stop, side="left"))
        bounds = np.clip(csr.indptr[first:last + 1], start, stop)
        rows = np.repeat(np.arange(first + 1, last + 1, dtype=np.int64), np.diff(bounds))
        cols = csr.indices[start:stop] + 1
        yield _format_lines((rows, cols, csr.data[start:stop]))


def _format_lines(fields) -> str:
    """Lines of the space-separated decimal fields, arrays of one length
    of positive integers below 2**63: the same text as
    ``"{} {} {}\\n".format`` per entry.

    The digits go right-aligned into a fixed-width uint8 slab, one line
    per slab row and one block of columns per field, as wide as the
    field's largest value.  The leading zeros are then masked off and the
    slab joined by one ``np.compress``.  Digits come from repeated
    division by a numpy scalar ten, which takes numpy's libdivide path;
    a field below 10**9 is divided as uint32, ≈20% faster than uint64.
    """
    widths = [len(str(int(field.max()))) for field in fields]
    slab = np.empty((fields[0].size, sum(widths) + len(widths)), dtype=np.uint8)
    keep = np.ones(slab.shape, dtype=bool)
    end = 0
    for field, width in zip(fields, widths):
        dtype = np.uint32 if width < 10 else np.uint64
        ten = dtype(10)
        q = field.astype(dtype)
        for pos in range(end + width - 1, end - 1, -1):
            keep[:, pos] = q > 0
            quotient = q // ten
            slab[:, pos] = q - quotient * ten + dtype(ord("0"))
            q = quotient
        end += width + 1
        slab[:, end - 1] = ord(" ")
    slab[:, -1] = ord("\n")
    return np.compress(keep.ravel(), slab.ravel()).tobytes().decode("ascii")


def write_atomic(path, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or an iterable of string pieces written in
    turn, via a uniquely named temp file + rename in the destination
    directory.

    Concurrent writers into one directory never share a temp file, and a
    failed write removes its temp file.  The temp file is created with mode
    0o666, so the process umask applies as it would to a plain open.  The
    rename replaces the destination rather than writing into it: a symlink
    there becomes a regular file, an existing file's mode is not kept, and
    the directory must be writable.
    """
    path = Path(path)
    while True:
        tmp = path.parent / f"{path.name}.{os.urandom(6).hex()}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            pass  # another writer's temp file: draw another name
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _id_file_text(ids: tuple[str, ...], kind: str) -> str:
    """An id sidecar's text, one id per line.

    Raises ValueError naming the first id that ``read_matrix_market``
    would not read back as itself: an empty id (blank lines are skipped)
    or one holding a line boundary in the ``str.splitlines`` sense.
    """
    for number, i in enumerate(ids, 1):
        if i.splitlines() != [i]:
            raise ValueError(
                f"{kind} id {number} ({i!r}) cannot be written to an id file: "
                "ids must be non-empty and hold no line break"
            )
    return "\n".join(ids) + "\n"


def write_matrix_market(counts: CountMatrix, path) -> None:
    """Write MatrixMarket coordinate integer format, slice by slice, plus
    the id sidecars that ``read_matrix_market`` looks for.  Each of the
    three files is written atomically (``write_atomic``), one after the
    other; the set is not, so a failure on a sidecar can leave the new
    ``.mtx`` beside the old id files.

    A matrix that ``read_matrix_market`` could not read back is refused
    with ValueError before any file is created: one with no rows or no
    columns, or one with an id that is empty or holds a line break.
    """
    if 0 in counts.shape:
        raise ValueError(
            f"cannot write a {counts.n_features}x{counts.n_cells} count matrix: "
            "a MatrixMarket file needs at least one row and one column"
        )
    feature_text = _id_file_text(counts.feature_ids, "feature")
    cell_text = _id_file_text(counts.cell_ids, "cell")
    path = Path(path)
    write_atomic(path, _matrix_market_pieces(counts))
    feature_path, cell_path = _sidecar_paths(path)
    write_atomic(feature_path, feature_text)
    write_atomic(cell_path, cell_text)


def read_dense_tsv(path) -> CountMatrix:
    """Read a dense TSV: first row cell ids, first column feature ids.

    A corner label in the header row is tolerated.  Only non-zero body
    entries are stored.  The body is parsed by an array pass, chunk by
    chunk; a file that pass does not accept is parsed again from the top by
    the line parser, which gives the same result and is the only path that
    reports errors, with their line numbers.
    """
    path = Path(path)
    parsed = _parse_tsv_array(path)
    if parsed is None:
        parsed = _parse_tsv_lines(path)
    return CountMatrix._from_canonical(*parsed)


# ASCII characters on which the TSV array pass and line parser part ways:
# line breaks that str.splitlines, and so the line parser, splits at, and
# the unit separator, which np.loadtxt strips from a number and int rejects.
_TSV_ODD_ASCII = "\x0b\x0c\x1c\x1d\x1e\x1f"


def _parse_tsv_array(path: Path) -> tuple[sp.csr_matrix, list[str], list[str]] | None:
    """(canonical CSR, feature ids, cell ids) of a dense TSV, parsed chunk
    by chunk; None when the line parser must decide.

    A chunk's feature ids are the text before each line's first tab, and
    its counts one ``np.loadtxt`` over the other fields.  Its nonzeros, in
    row-major order, are appended to the CSR arrays.  On plain ASCII
    ``np.loadtxt`` accepts a subset of the integers that ``int`` does, so
    whatever it rejects goes to the line parser, as does any ragged row,
    negative count, non-ASCII text or odd control character.
    """
    header = None
    feature_ids: list[str] = []
    row_nnz, indices, data = [], [], []
    with path.open() as handle:
        for text in _text_chunks(handle):
            if not text.isascii() or any(c in text for c in _TSV_ODD_ASCII):
                return None
            lines = [line for line in text.split("\n") if line.strip()]
            if header is None and lines:
                header = lines.pop(0).split("\t")
            if not lines:
                continue
            if not feature_ids:  # the first body line sets the width
                n_cells = lines[0].count("\t")
                if n_cells == 0 or len(header) not in (n_cells, n_cells + 1):
                    return None
            if any(line.count("\t") != n_cells for line in lines):
                return None
            try:
                table = _load_chunk(lines, delimiter="\t", usecols=range(1, n_cells + 1))
            except ValueError:
                return None
            if table.min() < 0:
                return None
            feature_ids.extend(line.partition("\t")[0] for line in lines)
            nonzero = np.flatnonzero(table)
            row_nnz.append(np.count_nonzero(table, axis=1))
            indices.append((nonzero % n_cells).astype(_index_dtype(0, n_cells, 0)))
            data.append(table.ravel()[nonzero])
    if not feature_ids:
        return None
    # one list at a time, so its blocks are freed before the next is joined
    data = np.concatenate(data)
    index_dtype = _index_dtype(len(feature_ids), n_cells, data.size)
    indices = np.concatenate(indices).astype(index_dtype, copy=False)
    indptr = np.zeros(len(feature_ids) + 1, dtype=index_dtype)
    np.cumsum(np.concatenate(row_nnz), out=indptr[1:])
    matrix = sp.csr_matrix((data, indices, indptr), shape=(len(feature_ids), n_cells))
    cell_ids = header[1:] if len(header) == n_cells + 1 else header
    return matrix, feature_ids, cell_ids


def _parse_tsv_lines(path: Path) -> tuple[sp.csr_matrix, list[str], list[str]]:
    """Reference parser: one token at a time, errors name their line."""
    # (line number, text) of every non-blank line, numbered as in the file
    lines = [
        (line_no, line)
        for line_no, line in enumerate(path.read_text().splitlines(), start=1)
        if line.strip() != ""
    ]
    if len(lines) < 2:
        raise MatrixFormatError(f"{path}: zero dimensions (header or body missing)")
    header_line_no, header = lines[0][0], lines[0][1].split("\t")
    body = [(line_no, line.split("\t")) for line_no, line in lines[1:]]
    width = len(body[0][1])
    if width < 2:
        raise MatrixFormatError(f"{path}: zero dimensions (no data columns)")
    n_cells = width - 1
    if len(header) == n_cells + 1:
        cell_ids = header[1:]
    elif len(header) == n_cells:
        cell_ids = header
    else:
        raise MatrixFormatError(
            f"{path} line {header_line_no}: header has {len(header)} fields "
            f"for {n_cells} data columns"
        )

    feature_ids = []
    rows, cols, vals = [], [], []
    for offset, (line_no, parts) in enumerate(body):
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
            if value > _INT64_MAX:
                raise MatrixFormatError(
                    f"{path} line {line_no}: count {token} does not fit in int64"
                )
            if value:
                rows.append(offset)
                cols.append(j)
                vals.append(value)
    # the COO build sums duplicates, so its result is canonical
    matrix = sp.csr_matrix(
        (np.array(vals, dtype=np.int64), (rows, cols)),
        shape=(len(feature_ids), n_cells),
    )
    return matrix, feature_ids, cell_ids
