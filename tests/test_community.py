import itertools

import numpy as np
import pytest

from gmmle.community import (
    CellGraph,
    _community_sums,
    exact_knn,
    knn_graph,
    louvain,
    louvain_trace,
    modularity,
)
from gmmle.layout import fuzzy_graph
from gmmle.mixture import ClusterLabels
from gmmle.rng import CounterRng


def graph_from_edges(n, edges, weights=None):
    if not edges:
        return CellGraph(n, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    arr = np.array([(min(a, b), max(a, b)) for a, b in edges], dtype=np.int64)
    w = np.ones(len(edges)) if weights is None else np.asarray(weights, float)
    return CellGraph(n, arr[:, 0], arr[:, 1], w)


def modularity_bruteforce(graph, labels):
    """Literal double-sum over the dense symmetric adjacency."""
    adj = np.zeros((graph.n, graph.n))
    for a, b, w in zip(graph.edges_i, graph.edges_j, graph.weights):
        adj[a, b] += w
        adj[b, a] += w
    deg = adj.sum(axis=1)
    total = deg.sum()
    q = 0.0
    for i in range(graph.n):
        for j in range(graph.n):
            if labels[i] == labels[j]:
                q += adj[i, j] - deg[i] * deg[j] / total
    return q / total


def set_partitions(items):
    """All partitions of a list (restricted-growth enumeration)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i, subset in enumerate(smaller):
            yield smaller[:i] + [[first] + subset] + smaller[i + 1:]
        yield [[first]] + smaller


def best_partition_bruteforce(graph):
    best_q = -np.inf
    for parts in set_partitions(list(range(graph.n))):
        labels = np.empty(graph.n, dtype=int)
        for c, members in enumerate(parts):
            labels[members] = c
        q = modularity_bruteforce(graph, labels)
        if q > best_q:
            best_q = q
    return best_q


TRIANGLES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
TWO_EDGES = [(0, 1), (2, 3)]


class TestModularity:
    def test_single_cluster_is_zero(self):
        for edges, n in [(TWO_EDGES, 4), (TRIANGLES, 6)]:
            graph = graph_from_edges(n, edges)
            labels = ClusterLabels(np.zeros(n, dtype=int), 1)
            assert abs(modularity(graph, labels)) < 1e-12

    def test_two_disjoint_edges_correct_split(self):
        graph = graph_from_edges(4, TWO_EDGES)
        labels = ClusterLabels(np.array([0, 0, 1, 1]), 2)
        assert modularity(graph, labels) == pytest.approx(0.5, abs=1e-12)
        assert modularity_bruteforce(graph, labels.labels) == pytest.approx(0.5, abs=1e-12)

    def test_two_disjoint_edges_crossed_split(self):
        graph = graph_from_edges(4, TWO_EDGES)
        labels = ClusterLabels(np.array([0, 1, 0, 1]), 2)
        assert modularity(graph, labels) == pytest.approx(-0.5, abs=1e-12)

    def test_triangles_correct_split(self):
        graph = graph_from_edges(6, TRIANGLES)
        labels = ClusterLabels(np.array([0, 0, 0, 1, 1, 1]), 2)
        assert modularity(graph, labels) == pytest.approx(0.5, abs=1e-12)

    def test_matches_bruteforce_on_random_graphs(self):
        rng = CounterRng(3)
        for trial in range(5):
            n = 7
            edges = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.4
            ]
            if not edges:
                continue
            weights = [1.0 + 2.0 * rng.random() for _ in edges]
            graph = graph_from_edges(n, edges, weights)
            labels = rng.integers(3, n)
            got = modularity(graph, ClusterLabels(labels, 3))
            want = modularity_bruteforce(graph, labels)
            assert got == pytest.approx(want, abs=1e-12)

    def test_label_alphabet_invariance(self):
        graph = graph_from_edges(6, TRIANGLES)
        a = ClusterLabels(np.array([0, 0, 0, 1, 1, 1]), 2)
        b = ClusterLabels(np.array([1, 1, 1, 0, 0, 0]), 2)
        assert modularity(graph, a) == modularity(graph, b)

    def test_weight_scaling_invariance(self):
        rng = CounterRng(5)
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        weights = [1.0 + rng.random() for _ in edges]
        labels = ClusterLabels(np.array([0, 0, 1, 1]), 2)
        base = modularity(graph_from_edges(4, edges, weights), labels)
        scaled = modularity(
            graph_from_edges(4, edges, [7.5 * w for w in weights]), labels
        )
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_zero_weight_graph_rejected(self):
        graph = graph_from_edges(3, [])
        with pytest.raises(ValueError):
            modularity(graph, ClusterLabels(np.zeros(3, dtype=int), 1))

    def test_sums_equal_add_at_form(self):
        # same terms added in the same order from 0.0: equal bit for bit
        rng = CounterRng(9)
        n, m = 40, 300
        a = rng.integers(n, m)
        b = rng.integers(n, m)
        keep = a != b  # duplicate pairs stay in
        graph = CellGraph(
            n, np.minimum(a, b)[keep], np.maximum(a, b)[keep],
            rng.random(int(keep.sum())) * 3.0,
        )
        labels = rng.integers(4, n)
        deg = np.zeros(n)
        np.add.at(deg, graph.edges_i, graph.weights)
        np.add.at(deg, graph.edges_j, graph.weights)
        assert graph.degree_vector().tobytes() == deg.tobytes()
        same = labels[graph.edges_i] == labels[graph.edges_j]
        internal = np.zeros(4)
        np.add.at(internal, labels[graph.edges_i[same]], graph.weights[same])
        comm_degree = np.zeros(4)
        np.add.at(comm_degree, labels, deg)
        got_internal, got_comm_degree, _ = _community_sums(graph, labels)
        assert got_internal.tobytes() == internal.tobytes()
        assert got_comm_degree.tobytes() == comm_degree.tobytes()


class TestLouvain:
    def test_two_triangles_found_optimal(self):
        graph = graph_from_edges(6, TRIANGLES)
        labels = louvain(graph, seed=0)
        assert labels.n_clusters == 2
        assert labels.labels[0] == labels.labels[1] == labels.labels[2]
        assert labels.labels[3] == labels.labels[4] == labels.labels[5]
        q = modularity(graph, labels)
        assert q == pytest.approx(0.5, abs=1e-12)
        assert q == pytest.approx(best_partition_bruteforce(graph), abs=1e-12)

    def test_complete_graph_single_community(self):
        edges = list(itertools.combinations(range(5), 2))
        graph = graph_from_edges(5, edges)
        labels = louvain(graph, seed=1)
        assert labels.n_clusters == 1
        assert modularity(graph, labels) == pytest.approx(0.0, abs=1e-12)
        assert best_partition_bruteforce(graph) == pytest.approx(0.0, abs=1e-12)

    def test_beats_singletons(self):
        rng = CounterRng(9)
        for trial in range(4):
            n = 8
            edges = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.45
            ]
            if not edges:
                continue
            graph = graph_from_edges(n, edges)
            found = louvain(graph, seed=trial)
            singletons = ClusterLabels(np.arange(n), n)
            assert modularity(graph, found) >= modularity(graph, singletons) - 1e-12

    def test_near_optimal_on_small_graphs(self):
        rng = CounterRng(17)
        for trial in range(4):
            n = 7
            edges = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.5
            ]
            if len(edges) < 2:
                continue
            graph = graph_from_edges(n, edges)
            best = best_partition_bruteforce(graph)
            found = modularity(graph, louvain(graph, seed=trial))
            if best > 0:
                assert found >= 0.95 * best - 1e-12
            else:
                assert found >= best - 1e-12

    def test_incremental_q_matches_recomputation_each_level(self):
        rng = CounterRng(23)
        # clustered random graph: two noisy cliques plus sparse cross edges
        edges = []
        for group in ([0, 1, 2, 3, 4], [5, 6, 7, 8, 9]):
            for a, b in itertools.combinations(group, 2):
                if rng.random() < 0.9:
                    edges.append((a, b))
        for a in range(5):
            for b in range(5, 10):
                if rng.random() < 0.08:
                    edges.append((a, b))
        graph = graph_from_edges(10, edges)
        result = louvain_trace(graph, seed=3)
        assert len(result.level_modularity) >= 1
        # incrementally maintained Q must match a from-scratch recomputation
        # on the flat labels at every level end
        for q_inc, flat in zip(result.level_modularity, result.level_labels):
            recomputed = modularity(
                graph, ClusterLabels(flat, int(flat.max()) + 1)
            )
            assert q_inc == pytest.approx(recomputed, abs=1e-10)
        # and Q never decreases across levels
        assert all(
            b >= a - 1e-10
            for a, b in zip(result.level_modularity, result.level_modularity[1:])
        )
        assert result.level_modularity[-1] == pytest.approx(
            modularity(graph, result.labels), abs=1e-10
        )

        # on real-valued weights too, each level's Q is modularity's own
        # value, bit for bit at resolution 1, and at resolution 0.5 the same
        # sums with the expected share halved
        rng = CounterRng(3)
        centers = 6.0 * rng.normal((5, 4))
        points = np.vstack([c + rng.normal((100, 4)) for c in centers])
        fuzzy = fuzzy_graph(*exact_knn(points, 15))
        result = louvain_trace(fuzzy, seed=3)
        assert len(result.level_modularity) >= 2
        for q, flat in zip(result.level_modularity, result.level_labels):
            assert type(q) is float
            assert q == modularity(fuzzy, ClusterLabels(flat, int(flat.max()) + 1))
        result = louvain_trace(fuzzy, seed=3, resolution=0.5)
        assert len(result.level_modularity) >= 2
        for q, flat in zip(result.level_modularity, result.level_labels):
            internal, comm_degree, total_weight = _community_sums(fuzzy, flat)
            observed = 2.0 * internal.sum() / total_weight
            expected = float((comm_degree**2).sum()) / (total_weight * total_weight)
            assert q == observed - 0.5 * expected

    def test_deterministic(self):
        graph = graph_from_edges(6, TRIANGLES + [(2, 3)])
        a = louvain(graph, seed=5)
        b = louvain(graph, seed=5)
        assert np.array_equal(a.labels, b.labels)

    def test_resolution_extremes(self):
        graph = graph_from_edges(6, TRIANGLES + [(2, 3)])
        coarse = louvain(graph, seed=0, resolution=0.1)
        fine = louvain(graph, seed=0, resolution=8.0)
        assert coarse.n_clusters <= fine.n_clusters


class TestKnnGraph:
    def test_three_collinear_points(self):
        coords = np.array([[0.0], [1.0], [2.0]])
        graph = knn_graph(exact_knn(coords, 1)[0])
        edges = set(zip(graph.edges_i.tolist(), graph.edges_j.tolist()))
        assert edges == {(0, 1), (1, 2)}

    def test_complete_when_k_is_n_minus_1(self):
        rng = CounterRng(29)
        coords = rng.normal((6, 2))
        graph = knn_graph(exact_knn(coords, 5)[0])
        assert graph.n_edges == 15

    def test_duplicate_points_tie_break_by_index(self):
        coords = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
        graph = knn_graph(exact_knn(coords, 1)[0])
        edges = set(zip(graph.edges_i.tolist(), graph.edges_j.tolist()))
        # p1 and p2 prefer the lowest-index duplicate p0; p0 prefers p1;
        # p3 ties across all three and takes p0
        assert edges == {(0, 1), (0, 2), (0, 3)}
        assert (graph.edges_i < graph.edges_j).all()

    def test_k_out_of_range(self):
        coords = np.zeros((3, 2))
        with pytest.raises(ValueError):
            exact_knn(coords, 3)
        with pytest.raises(ValueError):
            exact_knn(coords, 0)
        with pytest.raises(ValueError, match="n x d"):
            exact_knn(np.zeros(3), 1)

    def test_unit_weights(self):
        rng = CounterRng(31)
        graph = knn_graph(exact_knn(rng.normal((10, 3)), 3)[0])
        assert (graph.weights == 1.0).all()
