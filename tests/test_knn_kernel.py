"""The shared exact-kNN kernel and the two graphs built on it.

The kernel must equal a brute-force direct-difference oracle exactly, in
indices and distance bytes, however its Gram blocks are cut.  The
Gram-ranked kernel it replaced is kept here as the neighbour-set reference:
its distances carry the Gram expansion's rounding, so it is compared by
neighbour sets and a relative distance bound.
"""

import math

import numpy as np
import pytest

from gmmle import community, core_matrix, features, spectral, simulate
from gmmle.community import CellGraph, exact_knn, knn_graph
from gmmle.layout import fuzzy_graph
from gmmle.rng import CounterRng


def reference_knn(points, k):
    """Brute-force oracle: for each point, the squared differences to every
    point summed one column after another, the point itself excluded, and
    the k smallest taken in (distance, index) order: every point up to the
    k-th smallest value, in index order, sorted stably by value."""
    n, d = points.shape
    idx = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    for i in range(n):
        row = np.zeros(n)
        for col in range(d):
            row = row + (points[:, col] - points[i, col]) ** 2
        row[i] = np.inf
        near = np.flatnonzero(row <= np.partition(row, k - 1)[k - 1])
        order = near[np.argsort(row[near], kind="stable")[:k]]
        idx[i] = order
        dist[i] = np.sqrt(row[order])
    return idx, dist


def gram_knn(coords, k):
    """The Gram-ranked kernel that exact_knn replaced, as it was."""
    points = np.asarray(coords, dtype=np.float64)
    n = points.shape[0]
    sq_norms = (points**2).sum(axis=1)
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k))
    chunk = max(1, min(n, 1_000_000 // n))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        rows = np.arange(stop - start)
        block = points[start:stop]
        dist_sq = sq_norms[start:stop, None] - 2.0 * (block @ points.T) + sq_norms[None, :]
        np.maximum(dist_sq, 0.0, out=dist_sq)
        dist_sq[rows, start + rows] = np.inf
        part = np.argpartition(dist_sq, k, axis=1)[:, : k + 1]
        part_sq = np.take_along_axis(dist_sq, part, axis=1)
        nearest, nearest_sq = part[:, :k], part_sq[:, :k]
        for local in np.flatnonzero(~(nearest_sq.max(axis=1) < part_sq[:, k])):
            nearest[local] = np.argsort(dist_sq[local], kind="stable")[:k]
            nearest_sq[local] = dist_sq[local, nearest[local]]
        order = np.lexsort((nearest, nearest_sq), axis=1)
        indices[start:stop] = np.take_along_axis(nearest, order, axis=1)
        distances[start:stop] = np.sqrt(np.take_along_axis(nearest_sq, order, axis=1))
    return indices, distances


def reference_knn_graph(points, k):
    idx, _ = reference_knn(points, k)
    pairs = set()
    for i, row in enumerate(idx):
        for j in row:
            pairs.add((min(i, int(j)), max(i, int(j))))
    arr = np.array(sorted(pairs), dtype=np.int64)
    return CellGraph(points.shape[0], arr[:, 0], arr[:, 1], np.ones(arr.shape[0]))


def reference_sigma(distances, target):
    """Scalar bisection: 64 iterations or absolute tolerance 1e-5."""
    lo, hi = 0.0, math.inf
    mid = 1.0
    for _ in range(64):
        total = float(np.exp(-distances / mid).sum())
        if abs(total - target) < 1e-5:
            break
        if total > target:
            hi = mid
            mid = (lo + hi) / 2.0
        else:
            lo = mid
            mid = mid * 2.0 if math.isinf(hi) else (lo + hi) / 2.0
    return mid


def reference_fuzzy_graph(points, n_neighbors):
    """Per-row sigma, then the fuzzy union over a dict of directed weights."""
    n = points.shape[0]
    idx, dist = reference_knn(points, n_neighbors)
    rho = dist[:, 0]
    target = math.log2(n_neighbors)
    directed = {}
    for i in range(n):
        shifted = np.maximum(dist[i] - rho[i], 0.0)
        sigma = reference_sigma(shifted, target)
        weights = np.exp(-shifted / sigma)
        weights[shifted <= 0.0] = 1.0
        for j, w in zip(idx[i], weights):
            directed[(i, int(j))] = float(w)
    merged = {}
    for (i, j), w_ij in directed.items():
        key = (min(i, j), max(i, j))
        if key not in merged:
            w_ji = directed.get((j, i), 0.0)
            merged[key] = w_ij + w_ji - w_ij * w_ji
    pairs = np.array(sorted(merged), dtype=np.int64)
    weights = np.array([merged[tuple(p)] for p in pairs])
    return CellGraph(n, pairs[:, 0], pairs[:, 1], weights)


def blobs():
    # 1200 points span 12 Gram blocks of the kernel
    rng = CounterRng(5)
    centers = np.array([[0.0, 0, 0, 0], [6, 0, 0, 0], [0, 6, 0, 0], [0, 0, 6, 6]])
    return np.vstack([c + rng.normal((300, 4)) for c in centers])


def duplicated():
    # every point five times, so each row's k-th distance ties; 1050 points
    # span 9 Gram blocks
    return np.repeat(CounterRng(11).normal((210, 3)), 5, axis=0)


def lattice():
    return np.array([[x, y] for x in range(12) for y in range(12)], dtype=float)


def all_zero():
    return np.zeros((30, 2))


def line():
    # d = 1 with ties on both sides of most points and repeated values
    return (np.arange(90) % 37 // 2).astype(float)[:, None]


def far_from_origin():
    # close neighbours far from the origin, where a Gram form of the
    # uncentred points rounds worst
    return 1e4 + CounterRng(3).normal((400, 3)) * 1e-3


def crowded():
    # 200 copies of one point among 200 others, shuffled: far more tied
    # points than candidates, so which of them a source returns is arbitrary
    rng = CounterRng(8)
    return np.vstack([np.zeros((200, 2)), rng.normal((200, 2))])[rng.permutation(400)]


FIXTURES = {"blobs": blobs, "duplicated": duplicated, "lattice": lattice, "all_zero": all_zero}
# inputs only the oracle comparison covers
MORE_FIXTURES = {"line": line, "far_from_origin": far_from_origin, "crowded": crowded}


def bench_shaped():
    """2500 x 4 spectral embedding of a 300 x 2500 five-block Poisson draw,
    top 200 features, the shape of the benchmark's input."""
    rates = np.where(np.eye(5, dtype=bool), 5.0, 0.5)
    sample = simulate.sample_sbm(simulate.SbmConfig(rates, (60,) * 5, (500,) * 5, seed=7))
    counts = sample.matrix
    mask = features.select_top_k(features.dispersion_scores(counts), 200)
    counts = core_matrix.submatrix(counts, mask, np.ones(counts.n_cells, dtype=bool))
    return spectral.embed(spectral.normalized_laplacian(counts), spectral.EmbedPolicy()).coords


@pytest.fixture
def gram_calls(monkeypatch):
    """The shapes of the points exact_knn passes to its Gram candidate
    source, one per call."""
    calls = []
    original = community._gram_candidates

    def spy(*args):
        calls.append(args[0].shape)
        return original(*args)

    monkeypatch.setattr(community, "_gram_candidates", spy)
    return calls


@pytest.fixture
def scanned_rows(monkeypatch):
    """Rows exact_knn ranks by a scan of all points."""
    rows = []
    original = community._sq_distances

    def spy(columns, row, cols):
        if np.ndim(row) == 0:
            rows.append(int(row))
        return original(columns, row, cols)

    monkeypatch.setattr(community, "_sq_distances", spy)
    return rows


def assert_same_search(got, want):
    assert np.array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()


def assert_same_graph(got, want):
    assert got.n == want.n
    assert got.n_edges == want.n_edges
    assert np.array_equal(got.edges_i, want.edges_i)
    assert np.array_equal(got.edges_j, want.edges_j)
    assert np.array_equal(got.weights, want.weights)


def k_values(points):
    n = points.shape[0]
    # k = n - 1 (the complete graph) only where the reference stays cheap
    return [1, 5, 15, 20] + ([n - 1] if n <= 200 else [])


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_kernel_matches_reference(name):
    points = FIXTURES[name]()
    for k in k_values(points):
        idx, dist = exact_knn(points, k)
        want_idx, want_dist = reference_knn(points, k)
        assert np.array_equal(idx, want_idx), k
        assert dist.tobytes() == want_dist.tobytes(), k


@pytest.mark.parametrize("name", sorted(FIXTURES) + sorted(MORE_FIXTURES))
def test_matches_oracle_bytes(name, gram_calls):
    points = {**FIXTURES, **MORE_FIXTURES}[name]()
    n = points.shape[0]
    for k in (1, 5, 20, n - 1):
        assert_same_search(exact_knn(points, k), reference_knn(points, k))
    # k = n - 1 makes every point a candidate, which needs no Gram block
    assert len(gram_calls) == 3


@pytest.mark.parametrize("name", ["blobs", "duplicated", "lattice"])
def test_bytes_independent_of_block_size(name, monkeypatch):
    points = FIXTURES[name]()
    n = points.shape[0]
    want = exact_knn(points, 20)
    # one row per block, 7 rows (prime, leaving a partial last block), all rows
    for rows in (1, 7, n):
        monkeypatch.setattr(community, "_BLOCK_ENTRIES", rows * n)
        assert_same_search(exact_knn(points, 20), want)


@pytest.mark.parametrize("make", [far_from_origin, blobs, bench_shaped],
                         ids=["far_from_origin", "blobs", "bench_shaped"])
def test_untied_rows_need_no_scan(make, scanned_rows):
    # the Gram rounding bound follows the spread of the points, not their
    # distance from the origin, so rows without near-ties are settled by
    # their candidates alone
    exact_knn(make(), 20)
    assert scanned_rows == []


@pytest.mark.parametrize("make", [blobs, bench_shaped], ids=["blobs", "bench_shaped"])
def test_same_neighbour_sets_as_gram_kernel(make):
    # bound fixed before the first run; measured 1.1e-11 on the benchmark
    # input and at most 1.4e-8 at 50k cells
    rel_bound = 1e-9
    points = make()
    idx, dist = exact_knn(points, 20)
    old_idx, old_dist = gram_knn(points, 20)
    assert all(set(a) == set(b) for a, b in zip(idx.tolist(), old_idx.tolist()))
    assert np.all(np.abs(dist - old_dist) <= rel_bound * dist)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_rejected_before_any_candidate(bad, gram_calls):
    points = CounterRng(2).normal((50, 3))
    points[7, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        exact_knn(points, 5)
    assert gram_calls == []


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_search_sliced_to_fewer_neighbours_equals_search_at_that_count(name):
    # the pipeline searches once at K and slices for each graph
    points = FIXTURES[name]()
    ks = k_values(points)
    big_idx, big_dist = exact_knn(points, max(ks))
    for k in range(1, max(ks) + 1):
        idx, dist = exact_knn(points, k)
        assert np.array_equal(big_idx[:, :k], idx), k
        assert np.array_equal(big_dist[:, :k], dist), k


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_knn_graph_matches_reference(name):
    points = FIXTURES[name]()
    for k in k_values(points):
        idx, _ = exact_knn(points, k)
        assert_same_graph(knn_graph(idx), reference_knn_graph(points, k))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fuzzy_graph_matches_reference(name):
    points = FIXTURES[name]()
    for k in k_values(points):
        assert_same_graph(
            fuzzy_graph(*exact_knn(points, k)), reference_fuzzy_graph(points, k)
        )

