"""Louvain over sparse level adjacencies, checked against a list-of-dicts
level graph: same labels and per-level labels, the same node visits, and
the same per-level modularity.  The kernel takes each level's Q from the
sums ``modularity`` uses, over the flat labels; the reference keeps its Q
through per-move bookkeeping, as an independent oracle.

The reference runs the same queue schedule as the kernel; the sweep
schedule the kernel used before it is kept as ``sweep_one_level``, to show
that the queue visits fewer nodes and that the change of schedule changes
labels.  A brute-force oracle checks, on every fixture, that no single
node move strictly improves modularity at the end of any level.

The modularity is bit for bit equal where every partial sum of edge weights
is exact (unit or dyadic weights, as the pipeline's kNN graph has).  On
general real weights the two add the same terms in another order, so there
it agrees to rounding only."""

from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp

from gmmle.community import CellGraph, exact_knn, knn_graph, louvain, louvain_trace
from gmmle.layout import fuzzy_graph
from gmmle.rng import CounterRng

# A move "strictly improves" Q when Q after it exceeds Q before by more than
# this.  Fixed before the oracle first ran: on the unit-weight blob graph
# every change of Q is a multiple of 1/W^2 ~ 2.3e-10, and on the small
# fuzzy graphs rounding of a from-scratch Q stays near 1e-15.
OPTIMALITY_TOL = 1e-12


class ReferenceLevelGraph:
    """Aggregated adjacency with self-loops, in matrix convention:
    self_loops[c] equals the full double-sum of internal weight."""

    def __init__(self, n, adj, self_loops):
        self.n = n
        self.adj = adj  # list[dict[int, float]], no self entries
        self.self_loops = self_loops

    @classmethod
    def from_cell_graph(cls, graph):
        adj = [dict() for _ in range(graph.n)]
        for a, b, w in zip(graph.edges_i, graph.edges_j, graph.weights):
            a, b, w = int(a), int(b), float(w)
            adj[a][b] = adj[a].get(b, 0.0) + w
            adj[b][a] = adj[b].get(a, 0.0) + w
        return cls(graph.n, adj, np.zeros(graph.n))

    def degrees(self):
        deg = np.array([sum(nbrs.values()) for nbrs in self.adj])
        return deg + self.self_loops

    def aggregate(self, labels):
        n_comms = labels.max() + 1
        self_loops = np.zeros(n_comms)
        adj = [dict() for _ in range(n_comms)]
        for node, nbrs in enumerate(self.adj):
            a = labels[node]
            self_loops[a] += self.self_loops[node]
            for other, w in nbrs.items():
                b = labels[other]
                if a == b:
                    self_loops[a] += w  # both orientations visited -> 2w total
                elif node < other:
                    adj[a][b] = adj[a].get(b, 0.0) + w
                    adj[b][a] = adj[b].get(a, 0.0) + w
        return ReferenceLevelGraph(n_comms, adj, self_loops)


class ReferenceMoves:
    """Move-phase state of one level; ``visit`` is the single-node move
    both schedules make."""

    def __init__(self, level, resolution):
        self.level = level
        self.resolution = resolution
        self.degree = level.degrees()
        self.total_weight = float(self.degree.sum())
        self.community = np.arange(level.n)
        self.comm_degree = self.degree.copy()
        self.internal = level.self_loops.copy()
        self.visits = 0

    def visit(self, node):
        """Move ``node`` to its best community; True if it left home."""
        self.visits += 1
        community, comm_degree, internal = self.community, self.comm_degree, self.internal
        total_weight, resolution = self.total_weight, self.resolution
        home = int(community[node])
        k_node = self.degree[node]
        self_node = self.level.self_loops[node]
        link = {}
        for other, w in self.level.adj[node].items():
            link[int(community[other])] = link.get(int(community[other]), 0.0) + w

        comm_degree[home] -= k_node
        internal[home] -= 2.0 * link.get(home, 0.0) + self_node

        def gain(comm):
            return (
                2.0 * link.get(comm, 0.0) / total_weight
                - 2.0 * resolution * comm_degree[comm] * k_node
                / (total_weight * total_weight)
            )

        best_comm, best_gain = home, gain(home)
        for comm in sorted(link):
            g = gain(comm)
            if g > best_gain:
                best_comm, best_gain = comm, g

        comm_degree[best_comm] += k_node
        internal[best_comm] += 2.0 * link.get(best_comm, 0.0) + self_node
        if best_comm == home:
            return False
        community[node] = best_comm
        return True

    def result(self, moved_any):
        total_weight = self.total_weight
        q_incremental = float(
            self.internal.sum() / total_weight
            - self.resolution * (self.comm_degree**2).sum() / (total_weight * total_weight)
        )
        _, renumbered = np.unique(self.community, return_inverse=True)
        return renumbered, moved_any, q_incremental, self.visits


def sweep_one_level(level, rng, resolution):
    """The former schedule: full passes in the seeded order until one
    moves nothing."""
    moves = ReferenceMoves(level, resolution)
    order = rng.permutation(level.n)
    moved_any = False
    for _ in range(200):
        moved_this_pass = False
        for node in order:
            if moves.visit(int(node)):
                moved_this_pass = True
                moved_any = True
        if not moved_this_pass:
            break
    return moves.result(moved_any)


def queue_one_level(level, rng, resolution):
    """The kernel's schedule: a FIFO seeded with the seeded order; a moved
    node's neighbours outside its new community join it in ascending id
    unless already waiting; when it runs dry, one full sweep in the seeded
    order, whose moves enqueue the same way; the level ends after a sweep
    that moved nothing."""
    moves = ReferenceMoves(level, resolution)
    order = [int(node) for node in rng.permutation(level.n)]
    queue = deque(order)
    waiting = set(order)

    def visit(node):
        if not moves.visit(node):
            return False
        for other in sorted(level.adj[node]):
            if other not in waiting and moves.community[other] != moves.community[node]:
                waiting.add(other)
                queue.append(other)
        return True

    moved_any = False
    for _ in range(200):
        while queue:
            node = queue.popleft()
            waiting.discard(node)
            moved_any |= visit(node)
        if not any([visit(node) for node in order]):
            break
        moved_any = True
    return moves.result(moved_any)


def reference_louvain_trace(graph, seed=0, resolution=1.0, one_level=queue_one_level):
    """Returns (flat labels, n_clusters, level modularity, level labels,
    level visits)."""
    if graph.n_edges == 0:
        return np.arange(graph.n), graph.n, (), (), ()
    level = ReferenceLevelGraph.from_cell_graph(graph)
    rng = CounterRng(seed)
    flat = np.arange(graph.n)
    trace = []
    level_labels = []
    level_visits = []
    while True:
        labels, moved, q_incremental, visits = one_level(level, rng, resolution)
        level_visits.append(visits)
        if not moved:
            break
        flat = labels[flat]
        trace.append(q_incremental)
        level_labels.append(flat.copy())
        if labels.max() + 1 == level.n:
            break
        level = level.aggregate(labels)

    _, flat = np.unique(flat, return_inverse=True)
    first_seen = {}
    remap = np.empty(int(flat.max()) + 1, dtype=np.int64)
    next_id = 0
    for lab in flat:
        if int(lab) not in first_seen:
            first_seen[int(lab)] = next_id
            remap[int(lab)] = next_id
            next_id += 1
    return remap[flat], next_id, tuple(trace), tuple(level_labels), tuple(level_visits)


def flat_modularity(graph, labels, resolution):
    """Q at ``resolution`` of flat node labels, from scratch."""
    degree = graph.degree_vector()
    total_weight = degree.sum()
    same = labels[graph.edges_i] == labels[graph.edges_j]
    observed = 2.0 * graph.weights[same].sum() / total_weight
    comm_degree = np.bincount(labels, degree)
    return observed - resolution * (comm_degree**2).sum() / (total_weight * total_weight)


def assert_no_improving_move(graph, groups, partition, resolution):
    """No group of nodes (a node of the level graph) moved whole into a
    community of ``partition`` that it has an edge into raises Q by more
    than OPTIMALITY_TOL.

    Those are the moves Louvain makes.  A move into a community without
    such an edge, or into a new empty one, is not a Louvain move, and at
    resolution < 1 one can raise Q (seen on the fuzzy fixtures, under the
    former sweep schedule too).
    """
    upper = sp.csr_matrix(
        (np.ones(graph.n_edges), (graph.edges_i, graph.edges_j)), shape=(graph.n, graph.n)
    )
    adjacency = (upper + upper.T).tocsr()
    q_before = flat_modularity(graph, partition, resolution)
    for group in np.unique(groups):
        members = np.flatnonzero(groups == group)
        home = partition[members[0]]
        assert (partition[members] == home).all()
        for target in set(partition[adjacency[members].indices].tolist()):
            if target == home:
                continue
            moved = partition.copy()
            moved[members] = target
            gain = flat_modularity(graph, moved, resolution) - q_before
            assert gain <= OPTIMALITY_TOL, (group, home, target, gain)


def assert_locally_optimal(graph, result, resolution):
    """The brute-force oracle at the end of every level, including a last
    move phase that moved nothing."""
    groups = np.arange(graph.n)
    ends = list(result.level_labels)
    if len(result.level_visits) > len(result.level_labels):
        ends.append(ends[-1] if ends else groups)
    for partition in ends:
        assert_no_improving_move(graph, groups, partition, resolution)
        groups = partition


def assert_matches_reference(graph, seed=0, resolution=1.0, exact=True):
    got = louvain_trace(graph, seed=seed, resolution=resolution)
    labels, n_clusters, trace, level_labels, level_visits = reference_louvain_trace(
        graph, seed, resolution
    )
    assert np.array_equal(got.labels.labels, labels)
    assert got.labels.n_clusters == n_clusters
    if exact:
        assert got.level_modularity == trace
    else:
        assert got.level_modularity == pytest.approx(trace, rel=1e-12, abs=0.0)
    assert len(got.level_labels) == len(level_labels)
    for mine, theirs in zip(got.level_labels, level_labels):
        assert np.array_equal(mine, theirs)
    assert got.level_visits == level_visits
    assert_locally_optimal(graph, got, resolution)
    return got


def four_blobs(n, seed):
    rng = CounterRng(seed)
    centers = np.array([[0.0, 0, 0, 0], [4, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 4]])
    return np.vstack([c + rng.normal((n // 4, 4)) for c in centers])


@pytest.fixture(scope="module")
def blob_knn_graph():
    return knn_graph(exact_knn(four_blobs(2500, seed=7), 20)[0])


@pytest.mark.parametrize("resolution", [0.5, 1.0])
def test_blob_knn_graph_matches_reference(blob_knn_graph, resolution):
    result = assert_matches_reference(blob_knn_graph, seed=7, resolution=resolution)
    assert len(result.level_modularity) >= 2


@pytest.fixture(scope="module")
def blob_sweep_results(blob_knn_graph):
    return {
        resolution: reference_louvain_trace(
            blob_knn_graph, 7, resolution, one_level=sweep_one_level
        )
        for resolution in (0.5, 1.0)
    }


def test_queue_visits_fewer_nodes_than_sweeps(blob_knn_graph, blob_sweep_results):
    for resolution, sweep in blob_sweep_results.items():
        queue = louvain_trace(blob_knn_graph, seed=7, resolution=resolution)
        assert queue.level_visits[0] < sweep[4][0]


def test_schedule_change_changes_labels(blob_knn_graph, blob_sweep_results):
    # the queue and the former sweeps reach different local optima here,
    # so the schedule is not a no-op
    differs = [
        not np.array_equal(louvain(blob_knn_graph, seed=7, resolution=resolution).labels,
                           sweep[0])
        for resolution, sweep in blob_sweep_results.items()
    ]
    assert any(differs)


@pytest.mark.parametrize("resolution", [float("nan"), float("inf"), 0.0, -1.0])
def test_bad_resolution_rejected(blob_knn_graph, resolution):
    with pytest.raises(ValueError, match="resolution must be finite and > 0"):
        louvain(blob_knn_graph, seed=7, resolution=resolution)


@pytest.mark.parametrize("seed", range(12))
def test_weighted_fuzzy_graphs_match_reference(seed):
    rng = CounterRng(100 + seed)
    n = 20 + 10 * (seed % 4)
    points = rng.normal((n, 3))
    graph = fuzzy_graph(*exact_knn(points, 4 + seed % 5))
    for resolution in (0.5, 1.0, 2.0):
        assert_matches_reference(graph, seed=seed, resolution=resolution, exact=False)


def test_duplicate_stored_edges_match_reference():
    # pairs (0,1), (1,2), (2,3), (3,4) and (5,6) are stored twice in an
    # unsorted edge list; the copies' weights sum (dyadic, so exactly)
    edges_i = np.array([0, 0, 1, 1, 2, 3, 3, 4, 5, 0, 2, 3, 5, 0])
    edges_j = np.array([1, 1, 2, 2, 3, 4, 4, 5, 6, 2, 3, 5, 6, 6])
    weights = np.array([0.5, 0.25, 1.5, 0.75, 0.125, 2.0, 0.375, 1.0,
                        0.625, 0.875, 0.25, 0.0625, 0.5, 0.75])
    graph = CellGraph(7, edges_i, edges_j, weights)
    for seed in range(5):
        for resolution in (0.5, 1.0):
            assert_matches_reference(graph, seed=seed, resolution=resolution)


def test_isolated_nodes_and_two_components_match_reference():
    # two triangles joined internally, nodes 6, 7 and 11 isolated
    pairs = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5),
             (8, 9), (8, 10), (9, 10)]
    edges = np.array(pairs)
    graph = CellGraph(12, edges[:, 0], edges[:, 1], np.ones(len(pairs)))
    for seed in range(5):
        result = assert_matches_reference(graph, seed=seed)
        labels = result.labels.labels
        assert len({labels[6], labels[7], labels[11]}) == 3


def test_zero_weight_edges_are_dropped():
    # the replaced kernel let a zero-weight edge make a neighbour's community
    # a move candidate; that changes its labels on a few of these graphs
    rng = CounterRng(3)
    n = 12
    all_pairs = np.array([(a, b) for a in range(n) for b in range(a + 1, n)])
    old_rule_differs = 0
    for trial in range(450):
        pairs = all_pairs[rng.random(all_pairs.shape[0]) < 0.4]
        weights = rng.random(pairs.shape[0])
        weights[rng.random(pairs.shape[0]) < 0.3] = 0.0
        graph = CellGraph(n, pairs[:, 0], pairs[:, 1], weights)
        nonzero = weights > 0
        pruned = CellGraph(n, pairs[nonzero, 0], pairs[nonzero, 1], weights[nonzero])
        got, traced = louvain(graph, seed=trial), louvain_trace(pruned, seed=trial)
        want = traced.labels
        assert np.array_equal(got.labels, want.labels)
        assert got.n_clusters == want.n_clusters
        assert_locally_optimal(pruned, traced, 1.0)
        old_rule_differs += not np.array_equal(
            reference_louvain_trace(graph, trial)[0], want.labels
        )
    assert old_rule_differs >= 1


def test_all_zero_weights_give_singletons():
    graph = CellGraph(4, np.array([0, 1]), np.array([1, 2]), np.zeros(2))
    labels = louvain(graph)
    assert np.array_equal(labels.labels, np.arange(4))
    assert labels.n_clusters == 4
