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
from pathlib import Path
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from ._checks import require_integral


class MatrixFormatError(ValueError):
    """Malformed matrix file; message carries the offending line number."""


def _checked_ids(shape, feature_ids, cell_ids) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Ids as str tuples, one per row and per column, each set unique."""
    n_features, n_cells = shape
    feature_ids = tuple(str(i) for i in feature_ids)
    cell_ids = tuple(str(i) for i in cell_ids)
    if len(feature_ids) != n_features:
        raise ValueError(f"{len(feature_ids)} feature ids for {n_features} rows")
    if len(cell_ids) != n_cells:
        raise ValueError(f"{len(cell_ids)} cell ids for {n_cells} columns")
    for kind, ids in (("feature", feature_ids), ("cell", cell_ids)):
        position = {}
        for at, i in enumerate(ids, 1):
            if (first := position.setdefault(i, at)) != at:
                raise ValueError(f"{kind} ids are not unique: {i!r} at positions {first} and {at}")
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
        require_integral(csr.data, "counts")
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


def degrees(counts: CountMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(row_degrees, col_degrees): the exact int64 row and column sums of
    the bipartite adjacency."""
    csr = counts.csr()
    row = np.asarray(csr.sum(axis=1)).ravel().astype(np.int64)
    col = np.asarray(csr.sum(axis=0)).ravel().astype(np.int64)
    return row, col


def column_sums(counts: CountMatrix, row_mask: np.ndarray) -> np.ndarray:
    """Exact int64 sums, per cell, of the counts in the features of the
    boolean ``row_mask``: one sparse product, with no per-entry temporary."""
    return row_mask.astype(np.int64) @ counts.csr()


# Entries per block of entry_blocks, the one walk over the stored entries:
# QC, the feature scores, the Laplacian and the MatrixMarket writer.  At
# 2**15 a block's per-entry temporaries (the writer's digit slab and text
# are the largest) stay within a few MB, however many entries the matrix
# holds.
_ROW_BLOCK_ENTRIES = 1 << 15


def entry_blocks(counts: CountMatrix):
    """The stored entries of ``counts`` in CSR order, as ``(rows, cols,
    values)`` per block of rows: each entry's int64 row id, and views of
    the CSR's column indices and counts.  A block takes rows while its
    entries stay within ``_ROW_BLOCK_ENTRIES``, and at least one row, so a
    longer row is a block by itself; a block without entries is skipped."""
    csr = counts.csr()
    first = 0
    while first < counts.n_features:
        lo = int(csr.indptr[first])
        stop = int(np.searchsorted(csr.indptr, lo + _ROW_BLOCK_ENTRIES, side="right")) - 1
        stop = min(max(stop, first + 1), counts.n_features)
        hi = int(csr.indptr[stop])
        if hi > lo:
            rows = np.repeat(np.arange(first, stop), np.diff(csr.indptr[first:stop + 1]))
            yield rows, csr.indices[lo:hi], csr.data[lo:hi]
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
    ids = [i for i in path.read_text().splitlines() if i != ""]
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

    The body is parsed by an array pass, chunk by chunk, which returns a
    canonical CSR or declines.  Entries in strictly increasing row-major
    order (the order ``write_matrix_market`` writes) become the CSR
    directly; any other order, and the line parser, which reads a body the
    array pass declines (comment lines, reals, bad or duplicate entries)
    again from the top, build it by ``_csr_from_entries``.  Only the line
    parser reports errors, with their line numbers.
    """
    path = Path(path)
    matrix = _parse_mm_array(path)
    if matrix is None:
        matrix = _parse_mm_lines(path)
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


_INT64_MAX = int(np.iinfo(np.int64).max)

# Characters of text read per chunk by the array passes.  A chunk's text,
# lines and parsed table are transient; at this size they stay a small
# share of any matrix large enough for memory to matter.
_CHUNK_CHARS = 1 << 16


def _index_dtype(n_features: int, n_cells: int, nnz: int):
    """The index dtype scipy gives a CSR of this shape and size."""
    return np.int32 if max(n_features, n_cells, nnz) <= np.iinfo(np.int32).max else np.int64


def _csr_from_entries(shape, rows, cols, vals) -> sp.csr_matrix:
    """Canonical CSR of MatrixMarket entries that repeat no coordinate.

    Zero values are dropped, as they are not counts.  The COO build sums
    duplicates, and with none to sum its result is canonical.
    """
    keep = vals > 0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape, dtype=np.int64)


class _DenseRows:
    """Canonical CSR of dense 2-D int64 row blocks, added in row order.

    Each block keeps only its nonzeros, row-major, so columns come out
    sorted and no sort is run.  ``csr`` joins one list at a time, so each
    list's blocks are freed before the next is joined.
    """

    def __init__(self, n_cols: int):
        self.n_cols = n_cols
        self._row_nnz, self._indices, self._data = [], [], []

    def add(self, block: np.ndarray) -> None:
        # numpy finds the nonzeros of a bool mask ≈4x faster than of int64
        present = block != 0
        nonzero = np.flatnonzero(present)
        self._row_nnz.append(np.count_nonzero(present, axis=1))
        # the column, nonzero % n_cols: a scalar floor division takes
        # numpy's libdivide path, ≈2x faster than its int64 %
        cols = nonzero - nonzero // self.n_cols * self.n_cols
        self._indices.append(cols.astype(_index_dtype(0, self.n_cols, 0)))
        self._data.append(block.ravel()[nonzero])

    def csr(self) -> sp.csr_matrix:
        data = _joined(self._data)
        row_nnz = _joined(self._row_nnz)
        index_dtype = _index_dtype(row_nnz.size, self.n_cols, data.size)
        indices = _joined(self._indices).astype(index_dtype, copy=False)
        indptr = np.zeros(row_nnz.size + 1, dtype=index_dtype)
        np.cumsum(row_nnz, out=indptr[1:])
        return sp.csr_matrix((data, indices, indptr), shape=(row_nnz.size, self.n_cols))


def _joined(blocks: list[np.ndarray]) -> np.ndarray:
    """The blocks concatenated; the list is emptied, freeing them."""
    joined = np.concatenate(blocks)
    blocks.clear()
    return joined


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

    The fields it converts must be plain ASCII: ``np.loadtxt`` reads some
    non-ASCII characters as digits (``"3\\u01fe"`` as 492) where ``int``
    rejects them.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None, **options)


def _first_duplicate(rows: np.ndarray, cols: np.ndarray, n_cells: int) -> int | None:
    """File position of the first entry repeating an earlier coordinate.

    A plain sort settles the usual no-duplicate case; ``np.unique`` with
    ``return_index`` (a stable argsort, ≈15x slower on unordered keys such
    as a column-major file) runs only to locate a duplicate.
    """
    keys = rows * np.int64(n_cells) + cols
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


def _parse_mm_array(path: Path) -> sp.csr_matrix | None:
    """Canonical count CSR of the body, parsed chunk by chunk into
    nnz-length arrays, or None when the line parser must decide.

    On plain ASCII ``np.loadtxt`` reads digit integers only, each as the
    line parser's ``int`` does, so the pass declines whatever it rejects
    (comments, reals, ``1_0``, ragged rows, values beyond int64), any chunk
    with a non-ASCII character and any negative value.  While the entries
    run in strictly increasing row-major order only per-row counts are
    kept, and they become the CSR's ``indptr`` (strict order rules out
    duplicates).  From the first entry out of that order on, rows are
    stored too, and a repeated coordinate makes the pass decline.
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
                or v.min() < 0
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
        if _first_duplicate(rows, cols, n_cells) is not None:
            return None
        return _csr_from_entries((n_features, n_cells), rows, cols, vals)
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


def _parse_mm_lines(path: Path) -> sp.csr_matrix:
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
            token = parts[2]
            # read exactly by int; only a token int rejects, a real such as
            # 2.9999999999, is read as the float64 it denotes and rounded
            try:
                value = raw = int(token)
            except ValueError:
                try:
                    raw = float(token)
                    value = round(raw)  # ValueError on nan, OverflowError on inf
                except (ValueError, OverflowError):
                    value = None
            if value is None or value > _INT64_MAX:
                raise MatrixFormatError(f"{path} line {line_no}: unreadable value {token!r}")
            if abs(raw - value) > 1e-9:
                raise MatrixFormatError(f"{path} line {line_no}: non-integral value {token}")
            if value < 0:
                raise MatrixFormatError(f"{path} line {line_no}: negative count {token}")
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
    dup = _first_duplicate(rows, cols, n_cells)
    if dup is not None:
        raise MatrixFormatError(
            f"{path} line {entry_lines[dup]}: duplicate coordinate "
            f"({rows[dup] + 1}, {cols[dup] + 1})"
        )
    return _csr_from_entries((n_features, n_cells), rows, cols, vals)


def _matrix_market_pieces(counts: CountMatrix):
    """MatrixMarket text in newline-terminated pieces: the header, then
    one piece per ``entry_blocks`` block, whole rows of at most
    ``_ROW_BLOCK_ENTRIES`` entries or one longer row.

    The canonical CSR (sorted indices, no duplicates) is already in
    row-major order, so each block is formatted as it comes; no
    whole-matrix array is made.
    """
    yield (
        "%%MatrixMarket matrix coordinate integer general\n"
        f"{counts.n_features} {counts.n_cells} {counts.nnz}\n"
    )
    for rows, cols, values in entry_blocks(counts):
        yield _format_lines((rows + 1, cols + 1, values))


def _format_lines(fields) -> str:
    """Lines of the space-separated decimal fields, arrays of one length
    of positive integers below 2**63: the same text as
    ``"{} {} {}\\n".format`` per entry.

    The digits go right-aligned into a fixed-width uint8 slab, one line
    per slab row and one block of columns per field, as wide as the
    field's largest value.  The leading zeros are written as NUL bytes,
    which one ``bytes.translate`` then deletes (≈1.3x faster for the whole
    function than masking them off with ``np.compress``, which builds an
    index array).  Digits come from repeated division by a numpy scalar
    ten, which takes numpy's libdivide path; a field below 10**9 is divided
    as uint32, ≈20% faster than uint64.
    """
    widths = [len(str(int(field.max()))) for field in fields]
    slab = np.empty((fields[0].size, sum(widths) + len(widths)), dtype=np.uint8)
    end = 0
    for field, width in zip(fields, widths):
        dtype = np.uint32 if width < 10 else np.uint64
        ten = dtype(10)
        q = field.astype(dtype)
        for pos in range(end + width - 1, end - 1, -1):
            quotient = q // ten
            digits = slab[:, pos]
            digits[...] = q - quotient * ten + dtype(ord("0"))
            digits *= q > 0  # NUL once the value has no digit left
            q = quotient
        end += width + 1
        slab[:, end - 1] = ord(" ")
    slab[:, -1] = ord("\n")
    return slab.tobytes().translate(None, b"\0").decode("ascii")


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
    """Write MatrixMarket coordinate integer format, block by block, plus
    the id sidecars that ``read_matrix_market`` looks for.  Each of the
    three files is written atomically (``write_atomic``), one after the
    other; the set is not, so a failure on a sidecar can leave the new
    ``.mtx`` beside the old id files.

    Every int64 count reads back as written.  A matrix the reader could
    not read back is refused with ValueError before any file is created:
    one with no rows or no columns, or an id empty or holding a line break.
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
    chunk, which returns a canonical CSR, built by ``_DenseRows`` as the
    simulator's is, or declines; a file it declines is parsed again from
    the top by the line parser, which adds its rows to the same builder and
    is the only path that reports errors, with their line numbers.
    """
    path = Path(path)
    parsed = _parse_tsv_array(path)
    if parsed is None:
        parsed = _parse_tsv_lines(path)
    return CountMatrix._from_canonical(*parsed)


# Characters on which the TSV array pass and line parser part ways: the
# line breaks besides "\n" that str.splitlines, and so the line parser,
# splits at, and the unit separator, which np.loadtxt strips from a number
# and int rejects.
_TSV_ODD_CHARS = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029"


def _header_cells(header: list[str], n_cells: int) -> list[str] | None:
    """Cell ids of a TSV header row for ``n_cells`` data columns: all its
    fields, or all but a leading corner label; None for any other width."""
    if len(header) == n_cells + 1:
        return header[1:]
    return header if len(header) == n_cells else None


def _parse_tsv_array(path: Path) -> tuple[sp.csr_matrix, list[str], list[str]] | None:
    """(canonical CSR, feature ids, cell ids) of a dense TSV, parsed chunk
    by chunk; None when the line parser must decide.

    A chunk's feature ids are the text before each line's first tab, and
    its counts one ``np.loadtxt`` over the other fields, a row block of
    the ``_DenseRows`` builder the simulator also uses.  On plain ASCII
    ``np.loadtxt`` accepts a subset of the integers that ``int`` does, so
    whatever it rejects goes to the line parser, as does any ragged row,
    negative count, odd character (``_TSV_ODD_CHARS``) or count field that
    is not plain ASCII.  Ids may hold any other text.
    """
    header = None
    feature_ids: list[str] = []
    with path.open() as handle:
        for text in _text_chunks(handle):
            if any(c in text for c in _TSV_ODD_CHARS):
                return None
            lines = [line for line in text.split("\n") if line.strip()]
            if header is None and lines:
                header = lines.pop(0).split("\t")
            if not lines:
                continue
            if not text.isascii() and not all(s.partition("\t")[2].isascii() for s in lines):
                return None
            if not feature_ids:  # the first body line sets the width
                n_cells = lines[0].count("\t")
                if n_cells == 0 or (cell_ids := _header_cells(header, n_cells)) is None:
                    return None
                counts = _DenseRows(n_cells)
            if any(line.count("\t") != n_cells for line in lines):
                return None
            try:
                table = _load_chunk(lines, delimiter="\t", usecols=range(1, n_cells + 1))
            except ValueError:
                return None
            if table.min() < 0:
                return None
            feature_ids.extend(line.partition("\t")[0] for line in lines)
            counts.add(table)
    if not feature_ids:
        return None
    return counts.csr(), feature_ids, cell_ids


def _parse_tsv_lines(path: Path) -> tuple[sp.csr_matrix, list[str], list[str]]:
    """Reference parser: one line at a time, errors name their line."""
    header = cell_ids = None
    feature_ids = []
    with path.open() as handle:
        # the lines of text.splitlines(), as every piece but the last ends in "\n"
        lines = (line for piece in handle for line in piece.splitlines())
        for line_no, line in enumerate(lines, start=1):
            if line.strip() == "":
                continue
            if header is None:
                header_line_no, header = line_no, line.split("\t")
                continue
            parts = line.split("\t")
            if cell_ids is None:  # the first body row sets the width
                width = len(parts)
                if width < 2:
                    raise MatrixFormatError(f"{path}: zero dimensions (no data columns)")
                cell_ids = _header_cells(header, width - 1)
                if cell_ids is None:
                    raise MatrixFormatError(
                        f"{path} line {header_line_no}: header has {len(header)} fields "
                        f"for {width - 1} data columns"
                    )
                counts = _DenseRows(width - 1)
            if len(parts) != width:
                raise MatrixFormatError(
                    f"{path} line {line_no}: ragged row ({len(parts)} fields, expected {width})"
                )
            feature_ids.append(parts[0])
            row = []
            for token in parts[1:]:
                try:
                    value = int(token)
                except ValueError:
                    raise MatrixFormatError(
                        f"{path} line {line_no}: non-integer token {token!r}"
                    ) from None
                if value < 0:
                    raise MatrixFormatError(f"{path} line {line_no}: negative count {token}")
                if value > _INT64_MAX:
                    raise MatrixFormatError(
                        f"{path} line {line_no}: count {token} does not fit in int64"
                    )
                row.append(value)
            counts.add(np.array([row], dtype=np.int64))
    if cell_ids is None:
        raise MatrixFormatError(f"{path}: zero dimensions (header or body missing)")
    return counts.csr(), feature_ids, cell_ids

