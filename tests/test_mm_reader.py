"""The MatrixMarket reader's array pass against its line parser.

`read_matrix_market` parses a body in one `np.loadtxt` pass and hands any
body that pass does not accept to the line parser.  The line parser is the
reference: forcing it (by making the array pass decline) must give the same
CSR arrays, ids and error messages as the public reader.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmmle import core_matrix
from gmmle.core_matrix import MatrixFormatError, read_matrix_market

HEADER = "%%MatrixMarket matrix coordinate integer general\n"


def outcome(path):
    """Everything the reader returns, or the message of its format error."""
    try:
        cm = read_matrix_market(path)
    except MatrixFormatError as err:
        return "error", str(err)
    csr = cm.csr()
    return (
        csr.shape, csr.indptr.dtype, csr.indices.dtype, csr.data.dtype,
        csr.indptr.tolist(), csr.indices.tolist(), csr.data.tolist(),
        cm.feature_ids, cm.cell_ids,
    )


def line_parser_outcome(path):
    with mock.patch.object(core_matrix, "_parse_mm_array", return_value=None):
        return outcome(path)


class LineParserCalls:
    """Counts the line parser's runs while the context is open."""

    def __enter__(self):
        self.calls = 0
        real = core_matrix._parse_mm_lines

        def counted(path):
            self.calls += 1
            return real(path)

        self._patch = mock.patch.object(core_matrix, "_parse_mm_lines", counted)
        self._patch.start()
        return self

    def __exit__(self, *exc):
        self._patch.stop()


@st.composite
def valid_files(draw):
    """A MatrixMarket file the array pass accepts, with its sidecar ids."""
    n_features = draw(st.integers(1, 6))
    n_cells = draw(st.integers(1, 7))
    coords = draw(st.lists(
        st.tuples(st.integers(0, n_features - 1), st.integers(0, n_cells - 1)),
        unique=True, max_size=n_features * n_cells,
    ))
    values = draw(st.lists(
        st.one_of(st.integers(0, 30), st.integers(0, 2**53)),
        min_size=len(coords), max_size=len(coords),
    ))
    field = draw(st.sampled_from(["integer", "real"]))
    sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    blank = draw(st.sampled_from(["", "\n", "   \n"]))
    lines = [f"{i + 1}{sep}{j + 1}{sep}{v}" for (i, j), v in zip(coords, values)]
    body = (blank + newline.join(lines) + newline) if lines else blank
    text = (
        f"%%MatrixMarket matrix coordinate {field} general{newline}"
        f"{n_features} {n_cells} {len(coords)}{newline}{body}"
    )
    ids = draw(st.booleans())
    return text, ids, n_features, n_cells


@settings(max_examples=150, deadline=None)
@given(spec=valid_files())
def test_array_pass_equals_line_parser_on_valid_files(tmp_path_factory, spec):
    text, ids, n_features, n_cells = spec
    tmp = tmp_path_factory.mktemp("valid")
    path = tmp / "m.mtx"
    path.write_bytes(text.encode())
    if ids:
        (tmp / "m.features.txt").write_text("".join(f"g{i}\n" for i in range(n_features)))
        (tmp / "m.cells.txt").write_text("".join(f"cell{j}\n" for j in range(n_cells)))
    with LineParserCalls() as counter:
        got = outcome(path)
    assert counter.calls == 0
    assert got[0] != "error"
    assert got == line_parser_outcome(path)


# Bodies after the header and a "3 4 2" size line.
UNUSUAL_BODIES = {
    "comment-lines": "% first\n1 1 5\n% between\n2 3 7\n%\n",
    "blank-lines": "\n1 1 5\n   \n\n2 3 7\n\n",
    "crlf": "1 1 5\r\n2 3 7\r\n",
    "tabs": "1\t1\t5\n2\t3\t7\n",
    "form-feed-separator": "1\x0c1 5\n2 3\x0c7\n",
    "plus-sign": "+1 1 +5\n2 +3 7\n",
    "underscore-digits": "1 1 1_0\n2 3 7\n",
    "leading-zeros": "01 001 05\n2 3 07\n",
    "negative-zero-value": "1 1 -0\n2 3 7\n",
    "float-in-integer-file": "1 1 3.0\n2 3 7\n",
    "fractional-value": "1 1 3.5\n2 3 7\n",
    "float-index": "1.0 1 3\n2 3 7\n",
    "exponent-value": "1 1 1e1\n2 3 7\n",
    "non-ascii-digits": "١ 1 5\n2 3 7\n",
    "fullwidth-digit-value": "1 1 ５\n2 3 7\n",
    "too-many-entries": "1 1 5\n2 3 7\n3 4 1\n",
    "too-few-entries": "1 1 5\n",
    "no-entries": "",
    "ragged-row": "1 1 5\n2 3\n",
    "four-fields": "1 1 5 6\n2 3 7\n",
    "trailing-hash-comment": "1 1 5 # c\n2 3 7\n",
    "glued-hash-comment": "1 1 5#c\n2 3 7\n",
    "duplicate": "2 3 5\n2 3 7\n",
    "row-out-of-range": "4 1 5\n2 3 7\n",
    "col-out-of-range": "1 5 5\n2 3 7\n",
    "zero-index": "0 1 5\n2 3 7\n",
    "index-beyond-int64": f"{2**63} 1 5\n2 3 7\n",
    "negative-value": "1 1 -5\n2 3 7\n",
    "value-2**53": f"1 1 {2**53}\n2 3 7\n",
    "value-2**53+1": f"1 1 {2**53 + 1}\n2 3 7\n",
    "value-int64-max": f"1 1 {2**63 - 1}\n2 3 7\n",
    "value-nan": "1 1 nan\n2 3 7\n",
    "value-inf": "1 1 inf\n2 3 7\n",
    "value-1e19": "1 1 1e19\n2 3 7\n",
    "zero-value": "1 1 0\n2 3 7\n",
    "no-final-newline": "1 1 5\n2 3 7",
}


@pytest.mark.parametrize("field", ["integer", "real"])
@pytest.mark.parametrize("body", list(UNUSUAL_BODIES.values()), ids=list(UNUSUAL_BODIES))
def test_unusual_body_same_outcome_as_line_parser(tmp_path, field, body):
    path = tmp_path / "m.mtx"
    path.write_bytes(
        f"%%MatrixMarket matrix coordinate {field} general\n3 4 2\n{body}".encode()
    )
    assert outcome(path) == line_parser_outcome(path)


def test_unusual_bodies_cover_both_outcomes(tmp_path):
    """Some cases read, others fail, so the comparison above checks both."""
    results = []
    for body in UNUSUAL_BODIES.values():
        path = tmp_path / "m.mtx"
        path.write_bytes(f"{HEADER}3 4 2\n{body}".encode())
        results.append(outcome(path)[0] == "error")
    assert 5 <= sum(results) <= len(results) - 5


TOKENS = [
    "1", "2", "3", "0", "00", "-1", "+1", "-0", "1_0", "3.0", "2.5", "1e0",
    "%", "#", "nan", "1e19", "٣", str(2**53 + 1), str(2**62 + 1), str(2**63 - 1), str(2**63),
]


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.sampled_from(TOKENS), min_size=0, max_size=4), max_size=5
    ),
    sep=st.sampled_from([" ", "\t", "\x0c", " \t"]),
    newline=st.sampled_from(["\n", "\r\n"]),
    field=st.sampled_from(["integer", "real"]),
    nnz=st.integers(0, 5),
)
def test_fuzzed_body_same_outcome_as_line_parser(
    tmp_path_factory, rows, sep, newline, field, nnz
):
    path = tmp_path_factory.mktemp("fuzz") / "m.mtx"
    body = "".join(sep.join(tokens) + newline for tokens in rows)
    path.write_bytes(
        f"%%MatrixMarket matrix coordinate {field} general{newline}"
        f"3 3 {nnz}{newline}{body}".encode()
    )
    assert outcome(path) == line_parser_outcome(path)


def test_array_pass_serves_plain_file_and_line_parser_comments(tmp_path):
    plain = tmp_path / "plain.mtx"
    plain.write_text(f"{HEADER}3 4 2\n1 1 5\n2 3 7\n")
    commented = tmp_path / "commented.mtx"
    commented.write_text(f"{HEADER}3 4 2\n1 1 5\n% note\n2 3 7\n")
    with LineParserCalls() as counter:
        plain_result = outcome(plain)
    assert counter.calls == 0
    with LineParserCalls() as counter:
        commented_result = outcome(commented)
    assert counter.calls == 1
    assert plain_result == commented_result


def test_error_names_line_after_array_pass_declines(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(f"{HEADER}% c\n3 4 3\n1 1 5\n\n2 3 7\n2 3 1\n")
    with pytest.raises(MatrixFormatError, match=r"line 7: duplicate coordinate \(2, 3\)"):
        read_matrix_market(path)


def test_entry_count_the_file_cannot_hold_rejected(tmp_path):
    """Refused from the size line, before either parser sizes its arrays
    by it (10**12 entries would be 7.28 TiB of int64)."""
    path = tmp_path / "m.mtx"
    path.write_text(f"{HEADER}100000000 100000000 1000000000000\n1 1 1\n")
    message = (
        f"{path} line 2: 1000000000000 entries declared, more than a file of "
        f"{path.stat().st_size} bytes can hold"
    )
    assert outcome(path) == ("error", message)
    assert line_parser_outcome(path) == ("error", message)


# every coordinate single-digit, 5 characters and a line break per entry
# but the last: the densest body a valid file can have
PACKED_ENTRIES = [f"{i} {j} {(i * j) % 9 + 1}" for i in range(1, 10) for j in range(1, 10)]


def test_tightest_packed_file_reads(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(f"{HEADER}9 9 81\n" + "\n".join(PACKED_ENTRIES))
    assert outcome(path) == line_parser_outcome(path)
    assert read_matrix_market(path).nnz == 81


def test_entry_count_bound_is_one_entry_per_six_bytes(tmp_path):
    path = tmp_path / "m.mtx"

    def declare(nnz):  # two-digit counts, so the file size stays the same
        path.write_text(f"{HEADER}99 99 {nnz}\n" + "\n".join(PACKED_ENTRIES))
        return path.stat().st_size

    most = (declare(10) + 1) // 6
    declare(most)
    assert outcome(path) == ("error", f"{path}: declared {most} entries but found 81")
    size = declare(most + 1)
    assert outcome(path) == (
        "error",
        f"{path} line 2: {most + 1} entries declared, more than a file of {size} bytes can hold",
    )


def test_simulated_matrix_round_trip(tmp_path):
    """A written matrix reads back through the array pass unchanged."""
    rng = np.random.default_rng(11)
    dense = rng.poisson(0.8, size=(60, 90))
    cm = core_matrix.CountMatrix.from_dense(dense)
    path = tmp_path / "sim.mtx"
    core_matrix.write_matrix_market(cm, path)
    with LineParserCalls() as counter:
        again = read_matrix_market(path)
    assert counter.calls == 0
    assert np.array_equal(again.to_dense(), dense)
    assert again.feature_ids == cm.feature_ids and again.cell_ids == cm.cell_ids


@pytest.mark.parametrize("big", [2**53 + 1, 2**62 + 1, 2**63 - 1])
@pytest.mark.parametrize("comment", [False, True])
def test_written_int64_counts_read_back_exactly(tmp_path, big, comment):
    """Counts beyond 2**53, where a float64 would round them, read back as
    written by the array pass and, with a comment line in the body, by the
    line parser."""
    dense = np.array([[big, 0, 1], [0, big - 1, 2**53]], dtype=np.int64)
    path = tmp_path / "big.mtx"
    core_matrix.write_matrix_market(core_matrix.CountMatrix.from_dense(dense), path)
    if comment:
        header, size, *entries = path.read_text().splitlines(keepends=True)
        path.write_text("".join([header, size, "% a comment\n", *entries]))
    with LineParserCalls() as counter:
        again = read_matrix_market(path)
    assert counter.calls == int(comment)
    assert again.csr().data.tolist() == dense[dense > 0].tolist()
    assert np.array_equal(again.to_dense(), dense)


def block_counts(n_features=300, n_cells=2500, n_blocks=5, seed=5):
    """Poisson counts at rate 5 inside diagonal blocks and 0.5 elsewhere:
    ≈385k nonzeros at the default shape."""
    rng = np.random.default_rng(seed)
    gene_block = np.arange(n_features) * n_blocks // n_features
    cell_block = np.arange(n_cells) * n_blocks // n_cells
    rates = np.where(gene_block[:, None] == cell_block[None, :], 5.0, 0.5)
    return core_matrix.CountMatrix.from_dense(rng.poisson(rates))


def traced_peak(read, path):
    """(result, tracemalloc peak in bytes) of one read."""
    tracemalloc.start()
    try:
        result = read(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def csr_bytes(counts):
    csr = counts.csr()
    return csr.indptr.nbytes + csr.indices.nbytes + csr.data.nbytes


def test_read_peak_memory_bounded_by_csr_size(tmp_path):
    """The chunked array pass holds the CSR it builds plus one chunk; the
    whole-body table it replaced peaked at 5.75x the CSR on this file."""
    counts = block_counts()
    path = tmp_path / "block.mtx"
    core_matrix.write_matrix_market(counts, path)
    with LineParserCalls() as counter:
        again, peak = traced_peak(read_matrix_market, path)
    assert counter.calls == 0
    assert 370_000 < again.nnz < 400_000
    assert peak <= 3 * csr_bytes(again)


@pytest.mark.parametrize("char", ["\u01fe", "\u04ff", "\u0903", "\xa0", "\u0663"])
@pytest.mark.parametrize("template", ["1 1 3{}\n2 3 7\n", "1 {}1 3\n2 3 7\n", "1 1 3\n2 3 7\n%{}\n"])
def test_non_ascii_body_same_outcome_as_line_parser(tmp_path, char, template):
    """np.loadtxt reads some non-ASCII characters as digits ("3\u01fe" as
    492), so a body with any non-ASCII character goes to the line parser."""
    path = tmp_path / "m.mtx"
    path.write_bytes(f"{HEADER}3 4 2\n{template.format(char)}".encode())
    with LineParserCalls() as counter:
        got = outcome(path)
    assert counter.calls == 1
    assert got == line_parser_outcome(path)
