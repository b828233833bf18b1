"""The dense TSV reader's chunked array pass against its line parser.

`read_dense_tsv` parses the body chunk by chunk with `np.loadtxt` and
hands any file that pass does not accept to the line parser.  The line
parser is the reference: forcing it (by making the array pass decline)
must give the same CSR arrays, ids and error messages as the public reader,
at any chunk size.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmmle import core_matrix
from gmmle.core_matrix import MatrixFormatError, read_dense_tsv
from gmmle.simulate import SbmConfig, sample_sbm
from test_mm_reader import block_counts, csr_bytes, traced_peak

# The default chunk size, one line (or blank lines joined to the next
# line) per chunk, and a few lines per chunk.
CHUNK_SIZES = [core_matrix._CHUNK_CHARS, 1, 16]


def outcome(path, chunk_chars=core_matrix._CHUNK_CHARS):
    """Everything the reader returns, or the type and message of its error."""
    with mock.patch.object(core_matrix, "_CHUNK_CHARS", chunk_chars):
        try:
            cm = read_dense_tsv(path)
        except ValueError as err:  # MatrixFormatError, or repeated ids
            return type(err).__name__, str(err)
    csr = cm.csr()
    return (
        csr.shape, csr.indptr.dtype, csr.indices.dtype, csr.data.dtype,
        csr.indptr.tolist(), csr.indices.tolist(), csr.data.tolist(),
        cm.feature_ids, cm.cell_ids,
    )


def line_parser_outcome(path):
    with mock.patch.object(core_matrix, "_parse_tsv_array", return_value=None):
        return outcome(path)


class LineParserCalls:
    """Counts the line parser's runs while the context is open."""

    def __enter__(self):
        self.calls = 0
        real = core_matrix._parse_tsv_lines

        def counted(path):
            self.calls += 1
            return real(path)

        self._patch = mock.patch.object(core_matrix, "_parse_tsv_lines", counted)
        self._patch.start()
        return self

    def __exit__(self, *exc):
        self._patch.stop()


def tsv_text(header, rows, newline="\n"):
    return "".join(line + newline for line in ["\t".join(header), *map("\t".join, rows)])


@st.composite
def valid_files(draw):
    """A TSV the array pass accepts: distinct ids, non-negative counts."""
    n_cells = draw(st.integers(1, 6))
    n_rows = draw(st.integers(1, 7))
    values = draw(st.lists(
        st.lists(st.one_of(st.integers(0, 30), st.integers(0, 2**63 - 1)),
                 min_size=n_cells, max_size=n_cells),
        min_size=n_rows, max_size=n_rows,
    ))
    corner = draw(st.sampled_from([["gene"], [""], []]))
    header = corner + [f"cell{j}" for j in range(n_cells)]
    rows = [[f"g{i}", *map(str, row)] for i, row in enumerate(values)]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = tsv_text(header, rows, newline)
    if draw(st.booleans()):
        text = text.replace(newline, newline + newline, 2)  # blank lines
    if draw(st.booleans()):
        text = text.rstrip(newline)  # no final newline
    return text


@settings(max_examples=150, deadline=None)
@given(text=valid_files(), chunk_chars=st.sampled_from(CHUNK_SIZES))
def test_array_pass_equals_line_parser_on_valid_files(tmp_path_factory, text, chunk_chars):
    path = tmp_path_factory.mktemp("valid") / "m.tsv"
    path.write_bytes(text.encode())
    with LineParserCalls() as counter:
        got = outcome(path, chunk_chars)
    assert counter.calls == 0
    assert not isinstance(got[0], str)
    assert got == line_parser_outcome(path)


UNUSUAL_FILES = {
    "corner-label": "id\tA\tB\ng1\t0\t1\ng2\t2\t0\n",
    "no-corner-label": "A\tB\ng1\t0\t1\ng2\t2\t0\n",
    "empty-corner-label": "\tA\tB\ng1\t0\t1\n",
    "blank-lines": "\n\nid\tA\tB\n\n  \n\t\t\ng1\t0\t1\n\n\ng2\t2\t0\n\n",
    "crlf": "id\tA\tB\r\ng1\t0\t1\r\ng2\t2\t0\r\n",
    "cr-only": "id\tA\tB\rg1\t0\t1\rg2\t2\t0\r",
    "no-final-newline": "id\tA\tB\ng1\t0\t1\ng2\t2\t0",
    "all-zero": "id\tA\tB\ng1\t0\t0\ng2\t0\t0\n",
    "single-column": "id\tA\ng1\t3\ng2\t0\n",
    "trailing-tab-every-row": "id\tA\tB\t\ng1\t0\t1\t\ng2\t2\t0\t\n",
    "trailing-tab-body-only": "id\tA\tB\ng1\t0\t1\t\ng2\t2\t0\t\n",
    "trailing-tab-one-row": "id\tA\tB\ng1\t0\t1\t\ng2\t2\t0\n",
    "ragged-short": "id\tA\tB\ng1\t1\ng2\t2\t0\n",
    "ragged-long": "id\tA\tB\ng1\t0\t1\ng2\t2\t0\t5\n",
    "ragged-last-row": "id\tA\tB\ng1\t0\t1\ng2\t2\t0\ng3\t4\n",
    "header-too-long": "x\tid\tA\tB\ng1\t0\t1\n",
    "header-too-short": "B\ng1\t0\t1\n",
    "header-only": "id\tA\tB\n",
    "empty-file": "",
    "blank-file": "\n \n\t\n",
    "no-data-columns": "id\ng1\ng2\n",
    "negative": "id\tA\tB\ng1\t0\t-1\n",
    "negative-zero": "id\tA\tB\ng1\t-0\t1\n",
    "plus-sign": "id\tA\tB\ng1\t+3\t1\n",
    "leading-zeros": "id\tA\tB\ng1\t007\t1\n",
    "spaces-around-token": "id\tA\tB\ng1\t 3 \t1\n",
    "nbsp-around-token": "id\tA\tB\ng1\t\xa03\t1\n",
    "unit-separator-in-token": "id\tA\tB\ng1\t\x1f3\t1\n",
    "empty-token": "id\tA\tB\ng1\t\t1\n",
    "float-token": "id\tA\tB\ng1\t3.0\t1\n",
    "fractional-token": "id\tA\tB\ng1\t2.5\t1\n",
    "exponent-token": "id\tA\tB\ng1\t1e1\t1\n",
    "underscore-digits": "id\tA\tB\ng1\t1_0\t1\n",
    "non-ascii-digits": "id\tA\tB\ng1\t٣\t1\n",
    "hash": "id\tA\tB\ng1\t#\t1\n",
    "nan": "id\tA\tB\ng1\tnan\t1\n",
    "int64-max": f"id\tA\tB\ng1\t{2**63 - 1}\t1\n",
    "int64-max-plus-one": f"id\tA\tB\ng1\t1\t{2**63}\n",
    "twenty-digits": "id\tA\tB\ng1\t99999999999999999999\t1\n",
    "form-feed-in-row": "id\tA\tB\ng1\t0\x0c\t1\n",
    "vertical-tab-in-id": "id\tA\tB\ng\x0b1\t0\t1\n",
    "line-separator-in-header": "id\tA\u2028\tB\ng1\t0\t1\n",
    "next-line-in-row": "id\tA\tB\ng1\t0\t1\x85\n",
    "paragraph-separator-in-header": "id\tA\u2029\tB\ng1\t0\t1\n",
    "paragraph-separator-in-id": "id\tA\tB\ng\u20291\t0\t1\n",
    "duplicate-feature-ids": "id\tA\tB\ng1\t0\t1\ng1\t2\t0\n",
    "duplicate-cell-ids": "id\tA\tA\ng1\t0\t1\n",
    "space-in-ids": "id\tcell A\tB\ngene 1\t0\t1\n",
    "quotes-in-ids": "id\t\"A\"\tB\n'g1'\t0\t1\n",
    "hash-in-id": "id\tA\tB\n#g1\t0\t1\n",
    "empty-feature-id": "id\tA\tB\n\t0\t1\n",
    "non-ascii-read-as-digit": "id\tA\tB\ng1\t3\u01fe\t1\n",
    "non-ascii-ids": "id\tcellé\tB\ngène\t0\t1\n",
    "blank-lines-before-bad-token": "id\tA\n\n\ng1\tx\n",
    "blank-lines-before-bad-header": "\n\nx\tid\tA\tB\ng1\t0\t1\n",
    "blank-line-before-ragged-row": "id\tA\tB\ng1\t0\t1\n\ng2\t2\n",
}


@pytest.mark.parametrize("chunk_chars", CHUNK_SIZES)
@pytest.mark.parametrize("text", list(UNUSUAL_FILES.values()), ids=list(UNUSUAL_FILES))
def test_unusual_file_same_outcome_as_line_parser(tmp_path, text, chunk_chars):
    path = tmp_path / "m.tsv"
    path.write_bytes(text.encode())
    assert outcome(path, chunk_chars) == line_parser_outcome(path)


def test_unusual_files_cover_both_outcomes(tmp_path):
    """Some cases read, others fail, so the comparison above checks both."""
    results = []
    for text in UNUSUAL_FILES.values():
        path = tmp_path / "m.tsv"
        path.write_bytes(text.encode())
        results.append(isinstance(outcome(path)[0], str))
    assert 10 <= sum(results) <= len(results) - 10


@pytest.mark.parametrize("chunk_chars", CHUNK_SIZES)
@pytest.mark.parametrize("text", [
    "gene\tcellé\tB\ngène\t0\t1\nγ2\t2\t0\n",
    "\ufeffgene\tA\tB\ng1\t0\t1\ng2\t2\t0\n",
], ids=["non-ascii-ids", "byte-order-mark"])
def test_non_ascii_ids_read_by_array_pass(tmp_path, text, chunk_chars):
    """Only the count fields must be plain ASCII: non-ASCII ids and a
    byte-order mark before the header keep the array pass."""
    path = tmp_path / "m.tsv"
    path.write_bytes(text.encode())
    with LineParserCalls() as counter:
        got = outcome(path, chunk_chars)
    assert counter.calls == 0
    assert not isinstance(got[0], str)
    assert got == line_parser_outcome(path)


# errors of the cases above that follow blank lines, numbered as in the file
LINE_ERRORS_AFTER_BLANKS = {
    "blank-lines-before-bad-token": "line 4: non-integer token 'x'",
    "blank-lines-before-bad-header": "line 3: header has 4 fields for 2 data columns",
    "blank-line-before-ragged-row": "line 4: ragged row (2 fields, expected 3)",
}


@pytest.mark.parametrize("chunk_chars", CHUNK_SIZES)
@pytest.mark.parametrize("name", list(LINE_ERRORS_AFTER_BLANKS))
def test_error_names_line_as_numbered_in_file(tmp_path, name, chunk_chars):
    path = tmp_path / "m.tsv"
    path.write_bytes(UNUSUAL_FILES[name].encode())
    message = LINE_ERRORS_AFTER_BLANKS[name]
    assert outcome(path, chunk_chars) == ("MatrixFormatError", f"{path} {message}")


TOKENS = [
    "0", "1", "2", "17", "00", "-1", "+1", "-0", "1_0", "3.0", "2.5", "1e0",
    "", " ", " 4", "4 ", "#", "nan", "٣", "\xa02", "\x0c", "\x1f1", "3\u01fe",
    str(2**53 + 1), str(2**63 - 1), str(2**63), str(2**64 + 5),
]


@settings(max_examples=300, deadline=None)
@given(
    header=st.lists(st.sampled_from(["id", "A", "B", "C", ""]), min_size=0, max_size=4),
    rows=st.lists(
        st.tuples(
            st.sampled_from(["g1", "g2", "g3", "", " ", "g 4"]),
            st.lists(st.sampled_from(TOKENS), min_size=0, max_size=4),
        ),
        max_size=5,
    ),
    blank=st.sampled_from(["", "\n", "  \n", "\t\n"]),
    trailing_tab=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    chunk_chars=st.sampled_from(CHUNK_SIZES),
)
def test_fuzzed_file_same_outcome_as_line_parser(
    tmp_path_factory, header, rows, blank, trailing_tab, newline, chunk_chars
):
    path = tmp_path_factory.mktemp("fuzz") / "m.tsv"
    tail = "\t" if trailing_tab else ""
    lines = ["\t".join(header)] + [
        "\t".join([fid, *tokens]) + tail + newline + blank for fid, tokens in rows
    ]
    path.write_bytes((lines[0] + newline + "".join(lines[1:])).encode())
    assert outcome(path, chunk_chars) == line_parser_outcome(path)


@pytest.mark.parametrize("token", [str(2**63), "99999999999999999999"])
def test_count_beyond_int64_names_its_line(tmp_path, token):
    path = tmp_path / "m.tsv"
    path.write_text(f"id\tA\tB\ng1\t0\t1\ng2\t{token}\t0\n")
    with pytest.raises(MatrixFormatError, match=rf"m\.tsv line 3: count {token} does not fit"):
        read_dense_tsv(path)


def write_dense_tsv(counts, path):
    with path.open("w") as handle:
        handle.write("gene\t" + "\t".join(counts.cell_ids) + "\n")
        for fid, row in zip(counts.feature_ids, counts.to_dense()):
            handle.write(fid + "\t" + "\t".join(map(str, row.tolist())) + "\n")


@pytest.mark.parametrize("chunk_chars", [core_matrix._CHUNK_CHARS, 1, 7])
def test_simulated_matrix_round_trip_equals_simulator_csr(tmp_path, chunk_chars):
    """The reader and the simulator build through one dense-rows builder:
    a simulated matrix written as a dense TSV reads back as the same CSR
    arrays, dtypes included."""
    rates = np.array([[5.0, 0.5, 0.0], [0.5, 4.0, 0.5], [0.0, 0.5, 6.0]])
    counts = sample_sbm(SbmConfig(rates, (4, 6, 3), (7, 5, 9), seed=2)).matrix
    path = tmp_path / "sim.tsv"
    write_dense_tsv(counts, path)
    got = outcome(path, chunk_chars)
    want = counts.csr()
    assert got[1:7] == (
        want.indptr.dtype, want.indices.dtype, want.data.dtype,
        want.indptr.tolist(), want.indices.tolist(), want.data.tolist(),
    )
    assert got[7:] == (counts.feature_ids, counts.cell_ids)


def test_read_peak_memory_bounded_by_csr_size(tmp_path):
    """The chunk blocks, joined once, plus one chunk; the line parser's
    Python lists peaked at 8.3x the CSR on this file."""
    counts = block_counts()
    path = tmp_path / "block.tsv"
    write_dense_tsv(counts, path)
    with LineParserCalls() as counter:
        again, peak = traced_peak(read_dense_tsv, path)
    assert counter.calls == 0
    assert np.array_equal(again.csr().indptr, counts.csr().indptr)
    assert np.array_equal(again.csr().indices, counts.csr().indices)
    assert np.array_equal(again.csr().data, counts.csr().data)
    assert peak <= 3 * csr_bytes(again)
