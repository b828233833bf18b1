from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import entry_set
from gmmle import core_matrix
from gmmle.core_matrix import (
    CountMatrix,
    MatrixFormatError,
    degrees,
    read_dense_tsv,
    read_matrix_market,
    submatrix,
    write_matrix_market,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestMatrixMarket:
    def test_basic_integer_file(self, tmp_path):
        path = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 4\n2 2 9\n",
        )
        cm = read_matrix_market(path)
        assert cm.shape == (2, 2)
        assert entry_set(cm) == {(0, 0, 4), (1, 1, 9)}
        assert cm.feature_ids == ("f0", "f1")
        assert cm.cell_ids == ("c0", "c1")

    def test_real_entries_accepted_when_integral(self, tmp_path):
        path = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.0000000001\n",
        )
        assert entry_set(read_matrix_market(path)) == {(0, 1, 3)}

    def test_real_entries_rejected_when_fractional(self, tmp_path):
        path = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.5\n",
        )
        with pytest.raises(MatrixFormatError, match="line 3.*non-integral"):
            read_matrix_market(path)

    def test_negative_count_rejected_with_line(self, tmp_path):
        path = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 -3\n",
        )
        with pytest.raises(MatrixFormatError, match="line 3.*negative"):
            read_matrix_market(path)

    def test_duplicate_coordinate_rejected_with_line(self, tmp_path):
        path = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 2\n1 1 3\n",
        )
        with pytest.raises(MatrixFormatError, match="line 4.*duplicate"):
            read_matrix_market(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "1e19"])
    def test_unreadable_value_named_with_line(self, tmp_path, value):
        path = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n"
            f"1 1 2\n2 2 {value}\n",
        )
        with pytest.raises(MatrixFormatError, match=f"line 4: unreadable value '{value}'"):
            read_matrix_market(path)

    def test_largest_int64_count_accepted(self, tmp_path):
        # 2**63 - 1024 is the largest float64 below 2**63; one step up is 1e19's range
        path = write(
            tmp_path,
            "m.mtx",
            f"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 {2**63 - 1024}\n",
        )
        assert entry_set(read_matrix_market(path)) == {(0, 0, 2**63 - 1024)}

    # a count above rows x cells would have the line parser allocate for it
    @pytest.mark.parametrize("nnz", [-1, 5, 10**12])
    def test_impossible_entry_count_rejected_with_line(self, tmp_path, nnz):
        path = write(
            tmp_path,
            "m.mtx",
            f"%%MatrixMarket matrix coordinate integer general\n% c\n2 2 {nnz}\n1 1 3\n",
        )
        with pytest.raises(
            MatrixFormatError, match=f"line 3: {nnz} entries declared for a 2x2 matrix"
        ):
            read_matrix_market(path)

    def test_every_cell_filled_accepted(self, tmp_path):
        path = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 2 4\n1 1 1\n1 2 2\n2 1 3\n2 2 4\n",
        )
        assert read_matrix_market(path).to_dense().tolist() == [[1, 2], [3, 4]]

    def test_index_out_of_bounds(self, tmp_path):
        path = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate integer general\n2 2 1\n3 1 1\n",
        )
        with pytest.raises(MatrixFormatError, match="line 3.*outside"):
            read_matrix_market(path)

    def test_malformed_header(self, tmp_path):
        path = write(tmp_path, "m.mtx", "%%MatrixMarket matrix array real general\n")
        with pytest.raises(MatrixFormatError, match="line 1"):
            read_matrix_market(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate integer general\n"
            "% a comment\n3 2 1\n% another\n3 2 7\n",
        )
        assert entry_set(read_matrix_market(path)) == {(2, 1, 7)}

    def test_sidecar_ids_loaded(self, tmp_path):
        write(tmp_path, "m.features.txt", "GENE1\nGENE2\n")
        write(tmp_path, "m.cells.txt", "A\nB\n")
        path = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 5\n",
        )
        cm = read_matrix_market(path)
        assert cm.feature_ids == ("GENE1", "GENE2")
        assert cm.cell_ids == ("A", "B")

    def test_round_trip(self, tmp_path):
        cm = CountMatrix.from_dense(
            [[0, 3, 0], [7, 0, 1]], feature_ids=["x", "y"], cell_ids=["a", "b", "c"]
        )
        out = tmp_path / "rt.mtx"
        write_matrix_market(cm, out)
        again = read_matrix_market(out)
        assert entry_set(again) == entry_set(cm)
        assert again.feature_ids == cm.feature_ids
        assert again.cell_ids == cm.cell_ids


def matrix_market_text(counts):
    """The MatrixMarket text the writers stream, joined."""
    return "".join(core_matrix._matrix_market_pieces(counts))


def per_entry_matrix_market_text(counts):
    """The writer as a loop that indexes numpy scalars once per entry."""
    coo = counts.csr().tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [
        "%%MatrixMarket matrix coordinate integer general",
        f"{counts.n_features} {counts.n_cells} {counts.nnz}",
    ]
    for idx in order:
        lines.append(f"{coo.row[idx] + 1} {coo.col[idx] + 1} {coo.data[idx]}")
    return "\n".join(lines) + "\n"


class TestMatrixMarketText:
    # slices of 1 and 7 entries put slice boundaries inside and between rows
    @pytest.mark.parametrize("slice_size", [None, 7, 1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bytes_equal_per_entry_loop(self, monkeypatch, tmp_path, seed, slice_size):
        if slice_size is not None:
            monkeypatch.setattr(core_matrix, "_TEXT_SLICE", slice_size)
        rng = np.random.default_rng(seed)
        dense = rng.poisson(0.7, size=(40, 130)) * rng.integers(1, 10**6, size=(40, 130))
        dense[3] = 0  # an empty row
        dense[:, 7] = 0  # an empty column
        dense[5, 9] = 2**62  # a count beyond 32 bits
        # entries given in scrambled order, so the CSR's ordering is exercised
        rows, cols = np.nonzero(dense)
        perm = rng.permutation(rows.size)
        cm = CountMatrix(
            sp.coo_matrix(
                (dense[rows[perm], cols[perm]], (rows[perm], cols[perm])), shape=(40, 130)
            ),
            [f"f{i}" for i in range(40)],
            [f"c{j}" for j in range(130)],
        )
        text = matrix_market_text(cm)
        assert text.encode() == per_entry_matrix_market_text(cm).encode()
        # the writer streams the same slices to the file
        write_matrix_market(cm, tmp_path / "m.mtx")
        assert (tmp_path / "m.mtx").read_bytes() == text.encode()

    def test_empty_matrix(self, tmp_path):
        cm = CountMatrix.from_dense(np.zeros((2, 3), dtype=np.int64))
        assert matrix_market_text(cm) == per_entry_matrix_market_text(cm)
        assert matrix_market_text(cm).endswith("2 3 0\n")
        write_matrix_market(cm, tmp_path / "m.mtx")
        assert (tmp_path / "m.mtx").read_text() == matrix_market_text(cm)

    def test_submatrix_output(self):
        rng = np.random.default_rng(4)
        cm = CountMatrix.from_dense(rng.poisson(1.0, size=(30, 50)))
        sub = submatrix(cm, rng.random(30) < 0.6, rng.random(50) < 0.6)
        assert matrix_market_text(sub) == per_entry_matrix_market_text(sub)


class TestWriteMatrixMarketAtomic:
    """Each file of the set goes through write_atomic: temp file + rename."""

    def counts(self):
        return CountMatrix.from_dense(
            [[0, 3, 0], [7, 0, 1]], feature_ids=["x", "y"], cell_ids=["a", "b", "c"]
        )

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.mtx"
        write_matrix_market(self.counts(), path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def broken(counts):
            yield "%%MatrixMarket matrix coordinate integer general\n"
            raise RuntimeError("formatting failed")

        monkeypatch.setattr(core_matrix, "_matrix_market_pieces", broken)
        bigger = CountMatrix.from_dense(np.ones((4, 5), dtype=np.int64))
        with pytest.raises(RuntimeError, match="formatting failed"):
            write_matrix_market(bigger, path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_never_touches_umask(self, tmp_path, monkeypatch):
        def umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(core_matrix.os, "umask", umask)
        write_matrix_market(self.counts(), tmp_path / "m.mtx")
        assert read_matrix_market(tmp_path / "m.mtx").feature_ids == ("x", "y")


def format_reference(counts):
    """The MatrixMarket text by one ``"{} {} {}\\n".format`` per entry, walking
    the CSR row by row with Python ints."""
    csr = counts.csr()
    indptr, indices, data = csr.indptr.tolist(), csr.indices.tolist(), csr.data.tolist()
    body = "".join(
        "{} {} {}\n".format(row + 1, indices[k] + 1, data[k])
        for row in range(counts.n_features)
        for k in range(indptr[row], indptr[row + 1])
    )
    return (
        "%%MatrixMarket matrix coordinate integer general\n"
        f"{counts.n_features} {counts.n_cells} {counts.nnz}\n" + body
    )


def row_of(values):
    """A one-row matrix holding ``values`` in order."""
    values = np.asarray(values, dtype=np.int64)
    return CountMatrix._from_canonical(
        sp.csr_matrix(
            (values, np.arange(values.size, dtype=np.int32), [0, values.size]),
            shape=(1, values.size),
        ),
        ["g"],
        [f"c{j}" for j in range(values.size)],
    )


class TestMatrixMarketFormatter:
    """The array formatter against the per-entry format."""

    def test_values_crossing_digit_counts_in_one_slice(self):
        values = [v for k in range(1, 19) for v in (10**k - 1, 10**k)]
        values += [1, 9, 10, 11, 99, 100, 101, 5, 10**18 + 7]
        counts = row_of(values)
        assert counts.nnz < core_matrix._TEXT_SLICE
        assert matrix_market_text(counts) == format_reference(counts)

    @pytest.mark.parametrize("big", [2**53, 2**53 + 1, 2**63 - 1])
    def test_largest_counts(self, big):
        counts = row_of([1, big, 3, big - 1, 10])
        text = matrix_market_text(counts)
        assert text == format_reference(counts)
        assert f"1 2 {big}\n" in text

    @pytest.mark.parametrize("shape", [(1, 1), (9, 10), (10, 99), (100, 1000), (12345, 7)])
    def test_ids_of_one_and_n(self, shape):
        n, m = shape
        rows = [0, 0, n - 1, n - 1, n // 2]
        cols = [0, m - 1, 0, m - 1, m // 2]
        counts = CountMatrix(
            sp.coo_matrix((np.arange(1, 6), (rows, cols)), shape=shape),
            [f"f{i}" for i in range(n)],
            [f"c{j}" for j in range(m)],
        )
        text = matrix_market_text(counts)
        assert text == format_reference(counts)
        assert text.split("\n")[2].startswith("1 1 ")
        assert text.split("\n")[-2].startswith(f"{n} {m} ")

    @pytest.mark.parametrize("slice_size", [None, 7])
    def test_row_longer_than_a_slice(self, monkeypatch, slice_size):
        if slice_size is not None:
            monkeypatch.setattr(core_matrix, "_TEXT_SLICE", slice_size)
        width = 3 * core_matrix._TEXT_SLICE + 5
        rng = np.random.default_rng(8)
        dense = np.zeros((3, width), dtype=np.int64)
        dense[1] = rng.integers(1, 10**7, size=width)  # one row across 4 slices
        dense[0, -1] = dense[2, 0] = 4
        counts = CountMatrix.from_dense(dense)
        assert matrix_market_text(counts) == format_reference(counts)

    @pytest.mark.parametrize("slice_size", [1, 7, None])
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 25).flatmap(
            lambda n: st.integers(1, 25).flatmap(
                lambda m: st.tuples(
                    st.just((n, m)),
                    st.dictionaries(
                        st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                        st.one_of(st.integers(1, 12), st.integers(1, 2**63 - 1)),
                        max_size=60,
                    ),
                )
            )
        )
    )
    def test_random_matrices(self, slice_size, case):
        shape, entries = case
        keys = list(entries)
        counts = CountMatrix(
            sp.coo_matrix(
                (
                    np.array([entries[k] for k in keys], dtype=np.int64),
                    ([r for r, _ in keys], [c for _, c in keys]),
                ),
                shape=shape,
            ),
            [f"f{i}" for i in range(shape[0])],
            [f"c{j}" for j in range(shape[1])],
        )
        size = core_matrix._TEXT_SLICE if slice_size is None else slice_size
        with mock.patch.object(core_matrix, "_TEXT_SLICE", size):
            assert matrix_market_text(counts) == format_reference(counts)

    def test_writer_never_builds_coo(self, tmp_path, monkeypatch):
        """No whole-matrix COO: transient memory stays one slice."""

        def tocoo(self, *args, **kwargs):
            raise AssertionError("tocoo called")

        monkeypatch.setattr(sp.csr_matrix, "tocoo", tocoo)
        rng = np.random.default_rng(2)
        counts = CountMatrix.from_dense(rng.poisson(0.5, size=(20, 30)))
        write_matrix_market(counts, tmp_path / "m.mtx")
        monkeypatch.undo()
        assert (tmp_path / "m.mtx").read_text() == format_reference(counts)


class TestWriteMatrixMarketRefusals:
    """Output that read_matrix_market could not read back is refused before
    any file is made, and an existing file set is left as it was."""

    def refused(self, tmp_path, counts, match):
        path = tmp_path / "m.mtx"
        write_matrix_market(CountMatrix.from_dense([[1, 2]], ["x"], ["a", "b"]), path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match=match):
            write_matrix_market(counts, path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_zero_dimension(self, tmp_path, shape):
        counts = CountMatrix.from_dense(np.zeros(shape, dtype=np.int64))
        self.refused(tmp_path, counts, f"{shape[0]}x{shape[1]}")

    @pytest.mark.parametrize("kind", ["feature", "cell"])
    def test_empty_id(self, tmp_path, kind):
        ids = {"feature_ids": ["a", "b"], "cell_ids": ["c", "d"]}
        ids[f"{kind}_ids"][1] = ""
        counts = CountMatrix.from_dense([[1, 0], [0, 1]], **ids)
        self.refused(tmp_path, counts, f"{kind} id 2 \\(''\\)")

    @pytest.mark.parametrize("kind", ["feature", "cell"])
    @pytest.mark.parametrize(
        "bad", ["b\nc", "b\r", "\rb", "b\r\nc", "b\x0bc", "b\x0c", "b\x1cc", "b\x1d",
                "b\x1e", "b\x85c", "b\u2028", "b\u2029c", "\n"]
    )
    def test_id_with_line_boundary(self, tmp_path, kind, bad):
        ids = {"feature_ids": ["a", "z"], "cell_ids": ["c", "d"]}
        ids[f"{kind}_ids"][1] = bad
        counts = CountMatrix.from_dense([[1, 0], [0, 1]], **ids)
        self.refused(tmp_path, counts, f"{kind} id 2 ")

    def test_ids_without_line_boundary_read_back(self, tmp_path):
        ids = ["a b", "\tc\t", "d\x1f", "é", "x\u200by"]
        counts = CountMatrix.from_dense(np.eye(5, dtype=np.int64), ids, ids[::-1])
        write_matrix_market(counts, tmp_path / "m.mtx")
        again = read_matrix_market(tmp_path / "m.mtx")
        assert again.feature_ids == tuple(ids) and again.cell_ids == tuple(ids[::-1])

class TestDenseTsv:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "m.tsv", "id\tA\tB\ng1\t0\t1\ng2\t2\t0\n")
        cm = read_dense_tsv(path)
        assert entry_set(cm) == {(0, 1, 1), (1, 0, 2)}
        assert cm.feature_ids == ("g1", "g2")
        assert cm.cell_ids == ("A", "B")

    def test_header_without_corner(self, tmp_path):
        path = write(tmp_path, "m.tsv", "A\tB\ng1\t0\t1\n")
        cm = read_dense_tsv(path)
        assert cm.cell_ids == ("A", "B")

    def test_empty_body_rejected(self, tmp_path):
        path = write(tmp_path, "m.tsv", "id\tA\tB\n")
        with pytest.raises(MatrixFormatError, match="zero dimensions"):
            read_dense_tsv(path)

    def test_non_integer_token(self, tmp_path):
        path = write(tmp_path, "m.tsv", "id\tA\ng1\t1.5\n")
        with pytest.raises(MatrixFormatError, match="line 2.*non-integer"):
            read_dense_tsv(path)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "m.tsv", "id\tA\tB\ng1\t1\n")
        with pytest.raises(MatrixFormatError, match="ragged"):
            read_dense_tsv(path)

    def test_agrees_with_matrix_market(self, tmp_path):
        tsv = write(tmp_path, "m.tsv", "id\tc0\tc1\nf0\t0\t1\nf1\t2\t0\n")
        mtx = write(
            tmp_path,
            "m2.mtx",
            "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 2 1\n2 1 2\n",
        )
        a = read_dense_tsv(tsv)
        b = read_matrix_market(mtx)
        assert entry_set(a) == entry_set(b)
        assert a.feature_ids == b.feature_ids
        assert a.cell_ids == b.cell_ids


class TestDegreesAndSubmatrix:
    def test_degrees_simple(self):
        cm = CountMatrix.from_dense([[1, 2], [3, 4]])
        d = degrees(cm)
        assert d.row_degrees.tolist() == [3, 7]
        assert d.col_degrees.tolist() == [4, 6]
        assert d.total == 10

    def test_degrees_all_zero(self):
        cm = CountMatrix.from_dense([[0, 0], [0, 0]])
        d = degrees(cm)
        assert d.row_degrees.tolist() == [0, 0]
        assert d.col_degrees.tolist() == [0, 0]
        assert d.total == 0

    def test_degrees_diagonal(self):
        d = degrees(CountMatrix.from_dense([[4, 0], [0, 9]]))
        assert d.row_degrees.tolist() == [4, 9]
        assert d.col_degrees.tolist() == [4, 9]
        assert d.total == 13

    def test_submatrix_identity_masks(self):
        cm = CountMatrix.from_dense([[1, 0], [0, 2]])
        sub = submatrix(cm, [True, True], [True, True])
        assert entry_set(sub) == entry_set(cm)
        assert sub.feature_ids == cm.feature_ids

    def test_submatrix_all_true_masks_return_the_argument(self):
        cm = CountMatrix.from_dense([[1, 0], [0, 2]])
        assert submatrix(cm, [True, True], [True, True]) is cm
        assert submatrix(cm, [True, False], [True, True]) is not cm

    def test_submatrix_single_row(self):
        cm = CountMatrix.from_dense([[1, 0], [0, 2]])
        sub = submatrix(cm, [True, False], [True, True])
        assert sub.shape == (1, 2)
        assert entry_set(sub) == {(0, 0, 1)}

    def test_submatrix_empty_selection_rejected(self):
        cm = CountMatrix.from_dense([[1, 0], [0, 2]])
        with pytest.raises(ValueError, match="empty"):
            submatrix(cm, [True, True], [False, False])

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(
            st.lists(st.integers(min_value=0, max_value=5), min_size=4, max_size=4),
            min_size=3,
            max_size=6,
        ),
        fmask=st.lists(st.booleans(), min_size=3, max_size=6),
        cmask=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_submatrix_total_consistency(self, data, fmask, cmask):
        fmask = (fmask + [True] * len(data))[: len(data)]
        if not any(fmask):
            fmask[0] = True
        if not any(cmask):
            cmask[0] = True
        cm = CountMatrix.from_dense(np.array(data))
        sub = submatrix(cm, fmask, cmask)
        expected = sum(
            v for i, j, v in entry_set(cm) if fmask[i] and cmask[j]
        )
        assert degrees(sub).total == expected


    def test_submatrix_keeps_canonical_csr_uncopied_by_constructor(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            dense = rng.poisson(0.6, size=(rng.integers(2, 12), rng.integers(2, 12)))
            cm = CountMatrix.from_dense(dense)
            fmask = rng.random(cm.n_features) < 0.7
            cmask = rng.random(cm.n_cells) < 0.7
            fmask[0] = cmask[0] = True
            for masks in ((fmask, cmask), (fmask, np.ones_like(cmask)), (np.ones_like(fmask), cmask)):
                sub = submatrix(cm, *masks).csr()
                assert is_canonical(sub)
                assert np.array_equal(sub.toarray(), dense[np.ix_(*masks)])
                copied = CountMatrix(sub, range(sub.shape[0]), range(sub.shape[1])).csr()
                for got, want in zip(
                    (sub.indptr, sub.indices, sub.data),
                    (copied.indptr, copied.indices, copied.data),
                ):
                    assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_from_canonical_wraps_without_copy(self):
        csr = CountMatrix.from_dense([[1, 0], [0, 2]]).csr()
        wrapped = CountMatrix._from_canonical(csr, ["a", "b"], ["x", "y"])
        assert wrapped.csr() is csr
        assert wrapped.feature_ids == ("a", "b") and wrapped.cell_ids == ("x", "y")
        with pytest.raises(ValueError, match="feature ids are not unique"):
            CountMatrix._from_canonical(csr, ["a", "a"], ["x", "y"])
        with pytest.raises(ValueError, match="1 cell ids for 2 columns"):
            CountMatrix._from_canonical(csr, ["a", "b"], ["x"])


class TestRowBlocks:
    @pytest.mark.parametrize("block", [1, 2, 7, 1 << 20])
    @pytest.mark.parametrize("row_nnz", [
        [], [0], [0, 0, 0], [3, 0, 9, 1, 1, 1, 0, 12, 2], [7, 7, 7], [1] * 20,
    ])
    def test_blocks_tile_the_rows(self, monkeypatch, block, row_nnz):
        monkeypatch.setattr(core_matrix, "_ROW_BLOCK_ENTRIES", block)
        indptr = np.concatenate([[0], np.cumsum(row_nnz, dtype=np.int64)]).astype(np.int32)
        blocks = list(core_matrix._row_blocks(indptr))
        # consecutive, covering every row once, with the entry range of those rows
        rows = [row for first, stop, _, _ in blocks for row in range(first, stop)]
        assert rows == list(range(len(row_nnz)))
        for first, stop, lo, hi in blocks:
            assert first < stop and (lo, hi) == (indptr[first], indptr[stop])
            # within the block size, unless it is one longer row
            assert hi - lo <= block or stop == first + 1
            # and as long as the block size allows
            assert stop == len(row_nnz) or indptr[stop + 1] - lo > block

    def test_block_arrays_are_views(self):
        csr = CountMatrix.from_dense(np.arange(12).reshape(3, 4)).csr()
        [(first, stop, lo, hi)] = core_matrix._row_blocks(csr.indptr)
        assert (first, stop, lo, hi) == (0, 3, 0, 11)
        assert np.shares_memory(csr.indices[lo:hi], csr.indices)


def is_canonical(csr) -> bool:
    """Sorted column indices with no repeats in every row, positive int64
    data; checked on a fresh matrix, so no cached scipy flag answers."""
    fresh = sp.csr_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape)
    return (
        fresh.has_canonical_format
        and csr.data.dtype == np.int64
        and bool((csr.data > 0).all())
    )


class TestValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="not unique"):
            CountMatrix.from_dense([[1, 0], [0, 1]], feature_ids=["a", "a"])

    @pytest.mark.parametrize("bad", [0.5, 2.7, np.nan, np.inf, -np.inf, 2.0**63])
    def test_non_integral_counts_rejected(self, bad):
        # the int64 cast would truncate these (0.5 -> 0, 2.7 -> 2) or wrap them
        with pytest.raises(ValueError, match="counts must be finite integers"):
            CountMatrix.from_dense([[bad, 2.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="counts must be finite integers"):
            CountMatrix(sp.csr_matrix([[0.0, bad]]), ["f"], ["a", "b"])

    def test_integral_floats_accepted(self):
        cm = CountMatrix.from_dense([[3.0, 0.0], [1.0, 2.0**52]])
        assert cm.csr().dtype == np.int64
        assert entry_set(cm) == {(0, 0, 3), (1, 0, 1), (1, 1, 2**52)}
