"""The MatrixMarket reader when every file spans many chunks.

The oracle tests of `test_mm_reader` run again here with the chunk size
cut to a few characters, so chunk boundaries fall between almost every
pair of lines.  The cases below pin the chunk loop's own paths: the direct
CSR build for strictly row-major entries, the general path for any other
order, and the fallbacks decided in a later chunk.
"""

from unittest import mock

import numpy as np
import pytest

from gmmle import core_matrix
from gmmle.core_matrix import read_matrix_market
from test_mm_reader import (  # noqa: F401  (collected again under tiny chunks)
    LineParserCalls,
    line_parser_outcome,
    outcome,
    test_array_pass_equals_line_parser_on_valid_files,
    test_array_pass_serves_plain_file_and_line_parser_comments,
    test_error_names_line_after_array_pass_declines,
    test_fuzzed_body_same_outcome_as_line_parser,
    test_simulated_matrix_round_trip,
    test_unusual_bodies_cover_both_outcomes,
    test_unusual_body_same_outcome_as_line_parser,
)


# Module-scoped, so the hypothesis tests above may run under it.  At 1
# character a chunk is one line, or blank lines joined to the next line; at
# 7 a chunk can hold several blank lines and nothing else.
@pytest.fixture(autouse=True, scope="module", params=[1, 7], ids=lambda h: f"chunk{h}")
def tiny_chunks(request):
    with mock.patch.object(core_matrix, "_CHUNK_CHARS", request.param):
        yield request.param


class Spy:
    """Records the first argument of each call of a core_matrix function
    while the context is open."""

    def __init__(self, name):
        self.name = name
        self.args = []

    @property
    def calls(self):
        return len(self.args)

    def __enter__(self):
        real = getattr(core_matrix, self.name)

        def counted(*args, **kwargs):
            self.args.append(args[0])
            return real(*args, **kwargs)

        self._patch = mock.patch.object(core_matrix, self.name, counted)
        self._patch.start()
        return self

    def __exit__(self, *exc):
        self._patch.stop()


def mm_file(tmp_path, size_line, body, field="integer"):
    path = tmp_path / "m.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate {field} general\n{size_line}\n{body}")
    return path


def paths_taken(path):
    """(outcome, duplicate checks run, line parser runs) of one read."""
    with Spy("_first_duplicate") as dup, LineParserCalls() as lines:
        got = outcome(path)
    return got, dup.calls, lines.calls


def test_row_major_file_takes_direct_path(tmp_path):
    path = mm_file(tmp_path, "3 4 4", "1 2 5\n1 4 1\n2 1 7\n3 3 2\n")
    got, dup_checks, line_runs = paths_taken(path)
    assert (dup_checks, line_runs) == (0, 0)
    assert got == line_parser_outcome(path)
    assert got[4:7] == ([0, 2, 3, 4], [1, 3, 0, 2], [5, 1, 7, 2])


def test_column_major_file_takes_general_path(tmp_path):
    path = mm_file(tmp_path, "3 4 4", "2 1 7\n1 2 5\n3 3 2\n1 4 1\n")
    got, dup_checks, line_runs = paths_taken(path)
    assert (dup_checks, line_runs) == (1, 0)
    assert got == line_parser_outcome(path)
    assert got[4:7] == ([0, 2, 3, 4], [1, 3, 0, 2], [5, 1, 7, 2])


def test_order_broken_in_a_later_chunk(tmp_path):
    """Rows of the in-order prefix are rebuilt from its per-row counts."""
    path = mm_file(tmp_path, "3 4 5", "1 1 5\n1 3 2\n2 2 4\n3 4 1\n1 2 9\n")
    got, dup_checks, line_runs = paths_taken(path)
    assert (dup_checks, line_runs) == (1, 0)
    assert got == line_parser_outcome(path)
    assert got[4:7] == ([0, 3, 4, 5], [0, 1, 2, 1, 3], [5, 9, 2, 4, 1])


@pytest.mark.parametrize("body, line", [
    ("1 1 5\n2 2 3\n1 1 4\n", 5),  # repeats an entry of the in-order prefix
    ("1 1 5\n1 1 0\n", 4),         # equal neighbours are not strictly increasing
])
def test_duplicate_found_after_order_breaks(tmp_path, body, line):
    path = mm_file(tmp_path, f"2 2 {body.count(chr(10))}", body)
    got, dup_checks, line_runs = paths_taken(path)
    assert (dup_checks, line_runs) == (2, 1)  # the array pass's, then the line parser's
    assert got == ("error", f"{path} line {line}: duplicate coordinate (1, 1)")


def test_explicit_zeros_in_row_major_file(tmp_path):
    path = mm_file(tmp_path, "3 4 6", "1 1 0\n1 2 5\n2 3 0\n2 4 0\n3 1 2\n3 4 0\n")
    got, dup_checks, line_runs = paths_taken(path)
    assert (dup_checks, line_runs) == (0, 0)
    assert got == line_parser_outcome(path)
    assert got[4:7] == ([0, 1, 1, 2], [1, 0], [5, 2])


def test_chunk_of_blank_lines_only(tmp_path):
    path = mm_file(tmp_path, "3 4 2", "1 1 5\n\n   \n\n\t\n\n2 3 7\n\n\n")
    got, _, line_runs = paths_taken(path)
    assert line_runs == 0
    assert got == line_parser_outcome(path)


def test_bad_token_in_last_chunk(tmp_path):
    body = "".join(f"{i} {j} 1\n" for i in range(1, 4) for j in range(1, 5))
    path = mm_file(tmp_path, "4 4 13", body + "4 4 x\n")
    with Spy("_load_chunk") as chunks, LineParserCalls() as lines:
        got = outcome(path)
    assert "4 4 x" in chunks.args[-1]  # the array pass read up to it
    assert lines.calls == 1
    assert got == ("error", f"{path} line 15: unreadable value 'x'")


def test_too_many_entries_detected_mid_stream(tmp_path):
    body = "".join(f"1 {j} 1\n" for j in range(1, 11))
    path = mm_file(tmp_path, "3 10 2", body)
    with Spy("_load_chunk") as chunks, LineParserCalls() as lines:
        got = outcome(path)
    assert "1 3 1" in chunks.args[-1]  # it stopped at the third entry's chunk
    assert lines.calls == 1
    assert got == ("error", f"{path} line 5: more entries than declared (2)")


def test_direct_path_csr_is_canonical(tmp_path):
    rng = np.random.default_rng(3)
    dense = rng.poisson(0.7, size=(40, 30))
    path = tmp_path / "sim.mtx"
    core_matrix.write_matrix_market(core_matrix.CountMatrix.from_dense(dense), path)
    csr = read_matrix_market(path).csr()
    assert csr.has_canonical_format
    assert csr.data.dtype == np.int64 and (csr.data > 0).all()
    assert np.array_equal(csr.toarray(), dense)
