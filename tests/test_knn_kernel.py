"""The shared exact-kNN kernel and the two graphs built on it, checked bit for
bit against the per-row reference implementations they replaced."""

import math

import numpy as np
import pytest

from gmmle.community import CellGraph, exact_knn, knn_graph
from gmmle.layout import fuzzy_graph
from gmmle.rng import CounterRng


def reference_knn(points, k):
    """Per-row lexsort over chunked Gram-block distances, ties broken by index."""
    n = points.shape[0]
    sq_norms = (points**2).sum(axis=1)
    idx = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    chunk = max(1, min(n, 2_000_000 // max(n, 1)))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = points[start:stop]
        dist_sq = sq_norms[start:stop, None] - 2.0 * (block @ points.T) + sq_norms[None, :]
        np.maximum(dist_sq, 0.0, out=dist_sq)
        for local in range(stop - start):
            i = start + local
            row = dist_sq[local]
            row[i] = np.inf
            order = np.lexsort((np.arange(n), row))[:k]
            idx[i] = order
            dist[i] = np.sqrt(row[order])
    return idx, dist


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
    # 1200 points span two distance blocks of the kernel
    rng = CounterRng(5)
    centers = np.array([[0.0, 0, 0, 0], [6, 0, 0, 0], [0, 6, 0, 0], [0, 0, 6, 6]])
    return np.vstack([c + rng.normal((300, 4)) for c in centers])


def duplicated():
    # every point five times, so each row's k-th distance ties; 1050 points
    # span two distance blocks
    return np.repeat(CounterRng(11).normal((210, 3)), 5, axis=0)


def lattice():
    return np.array([[x, y] for x in range(12) for y in range(12)], dtype=float)


def all_zero():
    return np.zeros((30, 2))


FIXTURES = {"blobs": blobs, "duplicated": duplicated, "lattice": lattice, "all_zero": all_zero}


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
        assert np.array_equal(dist, want_dist), k


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

