import math

import numpy as np
import pytest
from scipy.optimize import curve_fit

from gmmle.community import CellGraph, _symmetrized, exact_knn
from gmmle.layout import (
    CURVE_A,
    CURVE_B,
    LayoutParams,
    attractive_gradient,
    fuzzy_graph,
    optimize_layout,
    repulsive_push,
)
from gmmle.rng import CounterRng


def three_clusters(seed=0, per_cluster=67, n_total=200, dim=3, sep=8.0):
    rng = CounterRng(seed)
    centers = np.array(
        [[0.0] * dim, [sep] + [0.0] * (dim - 1), [0.0, sep] + [0.0] * (dim - 2)]
    )
    points = np.vstack([c + rng.normal((per_cluster, dim)) for c in centers])
    return points[:n_total]


class TestFuzzyGraph:
    def test_union_formula_values(self):
        # points 0 and 1 list each other; point 2 lists 0, which does not
        # list it back
        indices = np.array([[1], [0], [0]])
        for weights, want in (
            ([0.5, 0.5, 1.0], {(0, 1): 0.75, (0, 2): 1.0}),
            ([0.0, 0.0, 0.25], {(0, 1): 0.0, (0, 2): 0.25}),
            ([1.0, 0.0, 0.0], {(0, 1): 1.0, (0, 2): 0.0}),
        ):
            graph = _symmetrized(indices, np.array(weights)[:, None])
            pairs = zip(graph.edges_i.tolist(), graph.edges_j.tolist())
            assert dict(zip(pairs, graph.weights.tolist())) == want

    def test_nearest_neighbor_weight_is_one(self):
        rng = CounterRng(3)
        points = rng.normal((30, 2))
        graph = fuzzy_graph(*exact_knn(points, 5))
        # for every point, the edge to its nearest neighbor must carry the
        # fuzzy union of 1 with something, i.e. exactly 1
        dist = ((points[:, None] - points[None]) ** 2).sum(axis=2)
        np.fill_diagonal(dist, np.inf)
        nearest = dist.argmin(axis=1)
        weight_of = {
            (i, j): w
            for i, j, w in zip(graph.edges_i, graph.edges_j, graph.weights)
        }
        for i, j in enumerate(nearest):
            key = (min(i, int(j)), max(i, int(j)))
            assert weight_of[key] == pytest.approx(1.0)

    def test_sigma_matches_independent_bisection_oracle(self):
        # evenly spaced 1-D points, 4 neighbors.  An endpoint sees neighbor
        # distances 1,2,3,4 (shifted by rho=1 -> 0,1,2,3), whose weight-sum
        # equation has a proper root that any correct root-finder must hit.
        from gmmle.layout import _calibrate_sigma

        target = math.log2(4)
        shifted = np.array([0.0, 1.0, 2.0, 3.0])

        def weight_sum(sigma):
            return float(np.exp(-shifted / sigma).sum())

        lo, hi = 1e-9, 1e3
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if weight_sum(mid) > target:
                hi = mid
            else:
                lo = mid
        oracle_sigma = 0.5 * (lo + hi)
        assert weight_sum(oracle_sigma) == pytest.approx(target, abs=1e-9)

        (got,) = _calibrate_sigma(shifted[None, :], target)
        assert got == pytest.approx(oracle_sigma, abs=1e-4)

    def test_sigma_degenerate_interior_meets_tolerance(self):
        # an interior point of the same lattice sees shifted distances
        # 0,0,1,1: the weight sum tends to the target only as sigma -> 0,
        # so the defining property is the stopping tolerance itself
        from gmmle.layout import _calibrate_sigma

        target = math.log2(4)
        shifted = np.array([0.0, 0.0, 1.0, 1.0])
        (sigma,) = _calibrate_sigma(shifted[None, :], target)
        assert float(np.exp(-shifted / sigma).sum()) == pytest.approx(
            target, abs=1e-5
        )

    def test_identical_points_all_weights_one(self):
        points = np.zeros((6, 2))
        graph = fuzzy_graph(*exact_knn(points, 3))
        assert (graph.weights == 1.0).all()

    def test_rejects_bad_neighbor_count(self):
        with pytest.raises(ValueError):
            exact_knn(np.zeros((4, 2)), 4)


class TestGradients:
    def test_attractive_gradient_matches_finite_differences(self):
        rng = CounterRng(7)
        a, b = 1.577, 0.8951
        for _ in range(20):
            head = rng.normal(2) * 3.0
            tail = rng.normal(2) * 3.0
            if ((head - tail) ** 2).sum() < 1e-4:
                continue
            grad = attractive_gradient(head, tail, a, b)
            eps = 1e-6
            fd = np.empty(2)
            for axis in range(2):
                plus = head.copy()
                minus = head.copy()
                plus[axis] += eps
                minus[axis] -= eps

                def objective(point):
                    d_sq = ((point - tail) ** 2).sum()
                    return math.log1p(a * d_sq**b)

                fd[axis] = (objective(plus) - objective(minus)) / (2 * eps)
            assert np.allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_gradient_magnitude_depends_only_on_distance(self):
        a, b = 1.577, 0.8951
        head = np.array([0.75, -1.25])
        tail = np.array([-0.5, 2.0])
        base_attract = np.linalg.norm(attractive_gradient(head, tail, a, b))
        base_repulse = np.linalg.norm(repulsive_push(head, tail, a, b))
        # power-of-two translations and axis swaps are exact in floats
        for shift in (np.array([4.0, -8.0]), np.array([0.5, 1024.0])):
            assert np.linalg.norm(
                attractive_gradient(head + shift, tail + shift, a, b)
            ) == base_attract
            assert np.linalg.norm(
                repulsive_push(head + shift, tail + shift, a, b)
            ) == base_repulse
        swapped = np.linalg.norm(
            attractive_gradient(head[::-1], tail[::-1], a, b)
        )
        assert swapped == base_attract

    def test_coincident_points(self):
        assert np.all(attractive_gradient([1.0, 1.0], [1.0, 1.0], 1.577, 0.8951) == 0)
        push = repulsive_push([1.0, 1.0], [1.0, 1.0], 1.577, 0.8951)
        assert np.all(push == 0)  # direction undefined; SGD handles the kick


def test_curve_constants_match_fit_oracle():
    # independent least-squares fit of 1/(1 + a x^(2b)) to the min_dist=0.1
    # membership target over [0, 3]
    min_dist, spread = 0.1, 1.0
    xv = np.linspace(0.0, 3.0 * spread, 300)
    yv = np.where(xv < min_dist, 1.0, np.exp(-(xv - min_dist) / spread))
    (a_fit, b_fit), _ = curve_fit(lambda x, a, b: 1.0 / (1.0 + a * x ** (2.0 * b)), xv, yv)
    assert CURVE_A == pytest.approx(a_fit, abs=1e-3)
    assert CURVE_B == pytest.approx(b_fit, abs=1e-3)


class TestLayoutParams:
    @pytest.mark.parametrize("field, value", [
        ("epochs", 0),
        ("epochs", -5),
        ("negative_samples", -1),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            LayoutParams(**{field: value})

    def test_smallest_valid_values_accepted(self):
        params = LayoutParams(epochs=1, negative_samples=0)
        assert params.negative_samples == 0


class TestOptimizeLayout:
    def run_layout(self, points, seed=0, n_neighbors=15):
        graph = fuzzy_graph(*exact_knn(points, min(n_neighbors, points.shape[0] - 1)))
        return optimize_layout(graph, points[:, :2], LayoutParams(), seed=seed)

    def test_two_blobs_stay_separated(self):
        rng = CounterRng(11)
        blob_a = rng.normal((10, 3)) * 0.05
        blob_b = rng.normal((10, 3)) * 0.05 + np.array([4.0, 0.0, 0.0])
        points = np.vstack([blob_a, blob_b])
        layout = self.run_layout(points, seed=1, n_neighbors=5)
        a, b = layout.coords[:10], layout.coords[10:]
        centroid_gap = np.linalg.norm(a.mean(axis=0) - b.mean(axis=0))
        radius = np.concatenate(
            [
                np.linalg.norm(a - a.mean(axis=0), axis=1),
                np.linalg.norm(b - b.mean(axis=0), axis=1),
            ]
        ).mean()
        assert centroid_gap > 5.0 * radius

    def test_bitwise_deterministic(self):
        points = three_clusters(seed=13)
        first = self.run_layout(points, seed=7)
        second = self.run_layout(points, seed=7)
        assert np.array_equal(first.coords, second.coords)

    def test_init_memory_order_does_not_matter(self):
        # the pipeline passes the first two columns of a Fortran-ordered
        # embedding; C-ordered and column-strided copies give the same bytes
        points = three_clusters(seed=19, per_cluster=20, n_total=60)
        graph = fuzzy_graph(*exact_knn(points, 10))
        wide = np.zeros((points.shape[0], 4))
        wide[:, ::2] = points[:, :2]
        inits = {
            "c": np.ascontiguousarray(points[:, :2]),
            "fortran": np.asfortranarray(points)[:, :2],
            "strided": wide[:, ::2],
        }
        assert inits["fortran"].flags.f_contiguous
        assert not (inits["strided"].flags.c_contiguous or inits["strided"].flags.f_contiguous)
        results = {}
        for name, init in inits.items():
            before = init.copy()
            results[name] = optimize_layout(graph, init, LayoutParams(epochs=20), seed=5).coords
            assert init.tobytes() == before.tobytes()
        for coords in results.values():
            assert coords.shape == (points.shape[0], 2) and coords.dtype == np.float64
            assert coords.flags.c_contiguous
            assert coords.tobytes() == results["c"].tobytes()

    def test_neighbourhood_preservation_beats_chance(self):
        points = three_clusters(seed=17)
        n = points.shape[0]
        layout = self.run_layout(points, seed=3)

        def knn_sets(data, k):
            dist = ((data[:, None] - data[None]) ** 2).sum(axis=2)
            np.fill_diagonal(dist, np.inf)
            order = np.argsort(dist, axis=1)
            return [set(row[:k].tolist()) for row in order]

        high = knn_sets(points, 15)
        low = knn_sets(layout.coords, 5)
        overlap = np.mean([len(h & l) / 5.0 for h, l in zip(high, low)])
        baseline = 15.0 / (n - 1)
        assert overlap >= 5.0 * baseline

    def test_coords_finite_on_fixtures(self):
        for seed in (0, 1):
            points = three_clusters(seed=seed, per_cluster=30, n_total=90)
            layout = self.run_layout(points, seed=seed)
            assert np.isfinite(layout.coords).all()

    def test_empty_graph_returns_init(self):
        graph = CellGraph(3, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
        init = np.arange(6.0).reshape(3, 2)
        layout = optimize_layout(graph, init, seed=0)
        assert np.array_equal(layout.coords, init)

    def test_all_zero_weight_graph_returns_init(self):
        graph = CellGraph(3, np.array([0, 1]), np.array([1, 2]), np.zeros(2))
        init = np.arange(6.0).reshape(3, 2)
        layout = optimize_layout(graph, init, seed=0)
        assert np.array_equal(layout.coords, init)
        assert layout.edge_visits == 0

    def test_init_shape_checked(self):
        graph = fuzzy_graph(*exact_knn(np.arange(10.0)[:, None], 3))
        with pytest.raises(ValueError):
            optimize_layout(graph, np.zeros((10, 3)))
