"""The dense TSV line parser, the reference that `read_dense_tsv` falls
back to on any file its array pass declines.

Each error names its line, numbered as `str.splitlines` of the whole text
numbers them, and a file with several faults reports the first in file
order.  The parser adds each row to the `_DenseRows` builder as it reads
it, so it holds no per-entry list.
"""

import pytest

from gmmle import core_matrix
from gmmle.core_matrix import MatrixFormatError, read_dense_tsv
from test_mm_reader import block_counts, csr_bytes, traced_peak
from test_tsv_reader import LineParserCalls, write_dense_tsv


@pytest.mark.parametrize("text, message", [
    ("", ": zero dimensions (header or body missing)"),
    ("id\tA\n\n \n", ": zero dimensions (header or body missing)"),
    ("id\tA\ng1\n", ": zero dimensions (no data columns)"),
    ("\n\nid\tA\tB\tC\ng1\t1\n", " line 3: header has 4 fields for 1 data columns"),
    ("A\tB\ng1\t1\t2\ng2\t1\n", " line 3: ragged row (2 fields, expected 3)"),
    ("A\tB\ng1\t1\tx\n", " line 2: non-integer token 'x'"),
    ("A\tB\ng1\t0\t-1\n", " line 2: negative count -1"),
    (f"A\tB\ng1\t0\t{2**63}\n", f" line 2: count {2**63} does not fit in int64"),
    # within a row the first bad token decides, whatever its fault
    ("A\tB\ng1\t-1\tx\n", " line 2: negative count -1"),
    ("A\tB\ng1\tx\t-1\n", " line 2: non-integer token 'x'"),
    (f"A\tB\ng1\t{2**63}\t-1\n", f" line 2: count {2**63} does not fit in int64"),
    # and across rows the first faulty row
    ("A\tB\ng1\tx\t1\ng2\t1\n", " line 2: non-integer token 'x'"),
    ("A\tB\ng1\t1\t2\ng2\t1\ng3\tx\t1\n", " line 3: ragged row (2 fields, expected 3)"),
    # every line boundary of str.splitlines counts, blank lines included
    ("A\tB\x0bg1\t1\t2\r\n\ng2\t1\tx\n", " line 4: non-integer token 'x'"),
    ("A\tB\x85g1\t1\t2\u2028g2\t-3\t1\rg3\t1\n", " line 3: negative count -3"),
])
def test_error_names_first_fault_and_its_line(tmp_path, text, message):
    path = tmp_path / "m.tsv"
    path.write_bytes(text.encode())
    with LineParserCalls() as counter:
        with pytest.raises(MatrixFormatError) as err:
            read_dense_tsv(path)
    assert counter.calls == 1
    assert str(err.value) == f"{path}{message}"


def test_peak_memory_bounded_by_csr_size(tmp_path):
    """Rows go to the builder as they are read; the per-entry Python
    lists the parser once collected peaked at 8x the CSR on this file."""
    counts = block_counts()
    path = tmp_path / "block.tsv"
    write_dense_tsv(counts, path)
    (csr, feature_ids, cell_ids), peak = traced_peak(core_matrix._parse_tsv_lines, path)
    want = counts.csr()
    assert (csr.indptr == want.indptr).all() and (csr.indices == want.indices).all()
    assert (csr.data == want.data).all()
    assert (tuple(feature_ids), tuple(cell_ids)) == (counts.feature_ids, counts.cell_ids)
    assert peak <= 3 * csr_bytes(counts)
