"""Cell-cell graphs, the modularity statistic, and Louvain clustering.

Every cell graph starts from one exact k-nearest-neighbour search,
``exact_knn``.  The distance is the direct one: squared coordinate
differences summed in column order.  Candidates come from bounded-memory
Gram blocks; a row whose candidates cannot be shown to hold its k nearest,
rounding included, is ranked by a scan of all points.  The result is the
same bit for bit whatever the block size.

Modularity of a labeling C over a weighted symmetric graph is

    Q(C) = (1/W) * sum_ij (A_ij - D_i * D_j / W) * [label(i) == label(j)]

with A the symmetric adjacency (both orientations of every stored edge),
D_i its row sums and W the grand total, so each undirected edge counts
twice and diagonal expected-weight terms are included.  Louvain greedily
maximizes Q by single-node moves followed by graph aggregation.  A level's
moves revisit only nodes whose neighbourhood changed, from a work queue,
and a full sweep that moves nothing closes the level (fast local moving,
V. A. Traag, arXiv:1503.01322).  It is a baseline to compare against
likelihood-based clustering, not a replica of any particular toolchain.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._checks import require_int, require_labels
from .mixture import ClusterLabels
from .rng import CounterRng


@dataclass(frozen=True)
class CellGraph:
    """Undirected weighted graph; each edge stored once with i < j."""

    n: int
    edges_i: np.ndarray
    edges_j: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        i = np.asarray(self.edges_i, dtype=np.int64)
        j = np.asarray(self.edges_j, dtype=np.int64)
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "edges_i", i)
        object.__setattr__(self, "edges_j", j)
        object.__setattr__(self, "weights", w)
        if not (i.shape == j.shape == w.shape):
            raise ValueError("edge arrays must have equal length")
        if i.size:
            if (i >= j).any():
                raise ValueError("edges must satisfy i < j (no self-loops)")
            if i.min() < 0 or j.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if not np.isfinite(w).all() or (w < 0).any():
                raise ValueError("weights must be finite and non-negative")

    @property
    def n_edges(self) -> int:
        return self.edges_i.size

    def degree_vector(self) -> np.ndarray:
        """Weighted degrees D_i (each stored edge contributes to both ends)."""
        return np.bincount(
            np.concatenate((self.edges_i, self.edges_j)),
            np.concatenate((self.weights, self.weights)),
            minlength=self.n,
        )


# float64 entries of the one Gram block buffer (1 MB), and of the blocks
# the candidates are ranked in
_BLOCK_ENTRIES = 1 << 17
# candidates each row takes beyond k + 1, so that ties and near-ties at the
# k-th distance rarely send a row to the full scan
_MARGIN = 8


def _sq_distances(columns: np.ndarray, rows, cols) -> np.ndarray:
    """Squared Euclidean distances between the points ``rows`` and ``cols``
    (broadcasting index arrays): the squared coordinate differences summed
    in column order.  ``columns`` is the d x n transpose of the points.
    Every distance ``exact_knn`` returns and ranks by is made here."""
    total = np.zeros(np.broadcast_shapes(np.shape(rows), np.shape(cols)))
    for column in columns:
        diff = column[rows] - column[cols]
        total += diff * diff
    return total


def _gram_candidates(points: np.ndarray, n_cand: int, tol: float):
    """Each row's ``n_cand`` smallest Gram-form squared distances
    |c_i|^2 + |c_j|^2 - 2 c_i.c_j (the point itself may be among them),
    and for each row a lower bound on the true squared distance of every
    point left out.

    c are the points centred on their mean: that leaves each difference
    as it was, up to one rounding per coordinate, and keeps the norms, and
    so the rounding, small for points far from the origin.  In any
    summation order the Gram form is then off the true value by at most
    (d + 4) u (|c_i| + |c_j|)^2, u the unit roundoff, which the slack
    bounds with room to spare.  Rows go through one block buffer, so no
    rows x n array outlives its block.
    """
    n = points.shape[0]
    points = points - points.mean(axis=0)
    sq = np.einsum("ij,ij->i", points, points)
    slack = 2.0 * tol * (sq + sq.max())
    rows_per_block = max(1, min(n, _BLOCK_ENTRIES // n))
    buf = np.empty((rows_per_block, n))
    cand = np.empty((n, n_cand), dtype=np.int64)
    lower = np.empty(n)
    for start in range(0, n, rows_per_block):
        stop = min(start + rows_per_block, n)
        block = buf[: stop - start]
        np.matmul(points[start:stop], points.T, out=block)
        block *= -2.0
        block += sq[start:stop, None]
        block += sq
        # the n_cand smallest land in columns :n_cand; the one in column
        # n_cand is the smallest value of any point left out
        part = np.argpartition(block, n_cand, axis=1)
        cand[start:stop] = part[:, :n_cand]
        lower[start:stop] = np.take_along_axis(block, part[:, n_cand : n_cand + 1], axis=1)[:, 0]
        del part
    return cand, lower - slack


def exact_knn(coords, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact Euclidean k nearest neighbours of every row of ``coords``.

    ``coords`` is n x d with finite entries and 1 <= k < n.  Returns
    (indices, distances), both n x k, each row ordered by distance, then
    index; a point is never its own neighbour.  Every distance is the
    square root of the squared coordinate differences summed in column
    order, so the first m columns of a search at k equal a search at
    m <= k, bit for bit: one search serves every graph built on the same
    points.

    Candidates, k + 1 + a margin per row, come from Gram blocks and are
    ranked by the distances above.  A row is kept only if its k-th
    distance lies strictly below what any point outside its candidates
    could reach, rounding included; any other row (ties at the k-th
    distance, duplicates) is ranked by a scan of all points.  So the
    result does not depend on the block size.
    """
    require_int(k, "k")
    points = np.asarray(coords, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("coordinates must be n x d")
    n, d = points.shape
    if not (1 <= k < n):
        raise ValueError(f"k={k} outside [1, {n - 1}]")
    if not np.isfinite(points).all():
        raise ValueError("coordinates must be finite")

    # bounds the relative rounding of a d-term sum of squares, (d + 2) u,
    # with room to spare
    tol = 4.0 * (d + 4) * np.finfo(np.float64).eps
    n_cand = min(n, k + 1 + _MARGIN)
    if n_cand == n:
        cand, lower = np.broadcast_to(np.arange(n), (n, n)), np.full(n, np.inf)
    else:
        cand, lower = _gram_candidates(points, n_cand, tol)

    columns = np.ascontiguousarray(points.T)
    indices = np.empty((n, k), dtype=np.int64)
    sq = np.empty((n, k))
    # ranked in blocks of rows too, so that the temporaries of the ranking
    # stay near the block buffer's size
    rows_per_block = max(1, _BLOCK_ENTRIES // n_cand)
    for start in range(0, n, rows_per_block):
        stop = min(start + rows_per_block, n)
        rows = np.arange(start, stop)[:, None]
        block = cand[start:stop]
        block_sq = _sq_distances(columns, rows, block)
        block_sq[block == rows] = np.inf  # a point is never its own neighbour
        order = np.lexsort((block, block_sq), axis=1)[:, :k]
        indices[start:stop] = np.take_along_axis(block, order, axis=1)
        sq[start:stop] = np.take_along_axis(block_sq, order, axis=1)
    everyone = np.arange(n)
    for i in np.flatnonzero(~(sq[:, -1] < lower * (1.0 - tol))):
        row = _sq_distances(columns, i, everyone)
        row[i] = np.inf
        indices[i] = np.argsort(row, kind="stable")[:k]
        sq[i] = row[indices[i]]
    return indices, np.sqrt(sq)


def _symmetrized(indices: np.ndarray, weights: np.ndarray) -> CellGraph:
    """Undirected graph of the edges i -> indices[i, c], weights[i, c].

    Pairs are coded min * n + max and grouped by a stable sort.  A pair
    listed from both ends merges as a + b - a*b, exactly commutative in
    IEEE; one listed once keeps w, since w + 0 - w*0 == w.
    """
    n, k = indices.shape
    heads = np.repeat(np.arange(n), k)
    tails = indices.ravel()
    codes = np.minimum(heads, tails) * n + np.maximum(heads, tails)
    order = np.argsort(codes, kind="stable")
    codes, directed = codes[order], weights.ravel()[order]
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    first = directed[starts]
    second = np.zeros_like(first)
    both = np.flatnonzero(np.diff(np.r_[starts, codes.size]) == 2)
    second[both] = directed[starts[both] + 1]
    pairs = codes[starts]
    return CellGraph(n, pairs // n, pairs % n, first + second - first * second)


def knn_graph(indices: np.ndarray) -> CellGraph:
    """k-nearest-neighbour graph from ``exact_knn`` indices (n x k),
    symmetrized by union; edges carry unit weight."""
    return _symmetrized(indices, np.ones(indices.shape))


def _community_sums(graph: CellGraph, labels: np.ndarray):
    """(within-community stored-edge weight, community degree totals, W)."""
    deg = graph.degree_vector()
    total_weight = float(deg.sum())  # = 2 * sum of stored weights
    n_comms = labels.max() + 1
    same = labels[graph.edges_i] == labels[graph.edges_j]
    internal = np.bincount(
        labels[graph.edges_i[same]], graph.weights[same], minlength=n_comms
    )
    comm_degree = np.bincount(labels, deg, minlength=n_comms)
    return internal, comm_degree, total_weight


def _modularity(graph: CellGraph, labels: np.ndarray, resolution: float) -> float:
    """Observed share minus ``resolution`` times the expected share."""
    internal, comm_degree, total_weight = _community_sums(graph, labels)
    if total_weight <= 0.0:
        raise ValueError("graph has no edge weight")
    observed = 2.0 * internal.sum() / total_weight
    expected = resolution * float((comm_degree**2).sum()) / (total_weight * total_weight)
    return observed - expected


def modularity(graph: CellGraph, labels: ClusterLabels) -> float:
    """Observed-minus-expected within-cluster weight share; a raw label
    array is taken by the rule of ``ClusterLabels``."""
    lab = labels.labels if isinstance(labels, ClusterLabels) else require_labels(labels)
    if lab.size != graph.n:
        raise ValueError(f"{lab.size} labels for {graph.n} nodes")
    return _modularity(graph, lab, 1.0)


@dataclass(frozen=True)
class LouvainResult:
    labels: ClusterLabels
    level_modularity: tuple[float, ...]  # Q at the run's resolution per level
    level_labels: tuple[np.ndarray, ...] = ()  # flat labels at each level end
    # node visits of every move phase run, including a last one that moved
    # nothing
    level_visits: tuple[int, ...] = ()


def _adjacency(graph: CellGraph) -> sp.csr_matrix:
    """Level-0 symmetric adjacency; duplicate stored edges are summed and
    zero weights dropped."""
    upper = sp.csr_matrix(
        (graph.weights, (graph.edges_i, graph.edges_j)), shape=(graph.n, graph.n)
    )
    return (upper + upper.T).tocsr()


def _one_level(adj: sp.csr_matrix, rng: CounterRng, resolution: float):
    """Single-node move phase over a symmetric level adjacency.

    The diagonal holds the self-loops in matrix convention: adj[c, c] is the
    full double-sum of weight inside c.  Each visit moves a node to the
    neighbouring community of strictly largest modularity gain, or leaves
    it home.

    Visits follow a work queue (Traag's fast local moving,
    arXiv:1503.01322).  The queue starts as the seeded permutation; after a
    node moves, its neighbours outside its new community that are not yet
    queued join the back, in ascending id (the rows are sorted once per
    level, so the storage order of an aggregated adjacency cannot change the
    schedule).  When the queue runs dry, one full sweep in the seeded order
    follows, its moves enqueuing neighbours the same way.  A move changes
    the degree totals of two communities and so the gains of nodes that are
    not its neighbours; the closing sweep is what guarantees that the level
    ends with no strict single-node gain left: it ends after a sweep that
    moved nothing (or after 200 rounds of queue plus sweep).

    A visit reads and updates only the community of each node and the
    degree total of each community.  Returns (labels, visits): the
    communities renumbered to consecutive ids, and the node visits made.
    """
    n = adj.shape[0]
    adj.sort_indices()
    degree = np.asarray(adj.sum(axis=1)).ravel()
    total_weight = float(degree.sum())
    two_res = 2.0 * resolution
    ww = total_weight * total_weight
    # the move loop is scalar code: plain lists index faster than arrays
    indptr, indices, weights = adj.indptr.tolist(), adj.indices.tolist(), adj.data.tolist()
    degree_of = degree.tolist()
    community = list(range(n))
    comm_degree = degree.tolist()
    order = rng.permutation(n).tolist()
    queue = deque(order)
    queued = [True] * n

    def visit(node: int) -> bool:
        """Move ``node`` to its best community; True if it left home."""
        home = community[node]
        k_node = degree_of[node]
        start, stop = indptr[node], indptr[node + 1]
        link = {}
        for other, weight in zip(indices[start:stop], weights[start:stop]):
            if other != node:
                comm = community[other]
                link[comm] = link.get(comm, 0.0) + weight

        comm_degree[home] -= k_node

        # gain of joining community c, relative to staying isolated; strict
        # improvement only, so an exact tie keeps the home community (no
        # churn) or the smallest-id earlier candidate
        best_comm = home
        best_gain = (
            2.0 * link.get(home, 0.0) / total_weight
            - two_res * comm_degree[home] * k_node / ww
        )
        for comm in sorted(link):
            gain = 2.0 * link[comm] / total_weight - two_res * comm_degree[comm] * k_node / ww
            if gain > best_gain:
                best_comm, best_gain = comm, gain

        comm_degree[best_comm] += k_node
        if best_comm == home:
            return False
        community[node] = best_comm
        for other in indices[start:stop]:
            if not queued[other] and community[other] != best_comm:
                queued[other] = True
                queue.append(other)
        return True

    visits = 0
    # the round cap is a safety valve; strict-improvement moves terminate
    # long before
    for _ in range(200):
        while queue:
            node = queue.popleft()
            queued[node] = False
            visit(node)
            visits += 1
        moved_in_sweep = False
        for node in order:
            moved_in_sweep |= visit(node)
        visits += n
        if not moved_in_sweep:
            break

    # renumber to consecutive ids in sorted order of the surviving ids
    _, renumbered = np.unique(community, return_inverse=True)
    return renumbered, visits


def louvain_trace(graph: CellGraph, seed: int = 0, resolution: float = 1.0) -> LouvainResult:
    """Louvain with per-level flat modularity and node visits recorded.

    ``resolution`` must be finite and > 0.  Each level's move phase follows
    the work queue described in ``_one_level``.  The levels stop at the first
    move phase that moves no node, which leaves each node a community of its own.
    A level's Q is ``modularity`` of the flat labels at its end, with the
    expected share scaled by ``resolution``.
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be finite and > 0, got {resolution!r}")
    adj = _adjacency(graph)
    if adj.nnz == 0:
        return LouvainResult(ClusterLabels(np.arange(graph.n), graph.n), (), ())
    rng = CounterRng(seed)
    flat = np.arange(graph.n)
    trace = []
    level_labels = []
    level_visits = []
    while True:
        labels, visits = _one_level(adj, rng, resolution)
        level_visits.append(visits)
        # a move joins a non-empty community and the first one empties a
        # singleton, so the count stays at n exactly when no node moved
        n_comms = labels.max() + 1
        if n_comms == adj.shape[0]:
            break
        flat = labels[flat]
        trace.append(float(_modularity(graph, flat, resolution)))
        level_labels.append(flat.copy())
        # P: node-to-community indicator; P^T A P sums weight between and
        # within communities (the diagonal collects both orientations)
        members = sp.csr_matrix(
            (np.ones(labels.size), (np.arange(labels.size), labels)),
            shape=(labels.size, n_comms),
        )
        adj = (members.T @ adj @ members).tocsr()

    # final relabel by first occurrence over node order
    _, first, flat = np.unique(flat, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return LouvainResult(
        ClusterLabels(rank[flat], first.size),
        tuple(trace),
        tuple(level_labels),
        tuple(level_visits),
    )


def louvain(graph: CellGraph, seed: int = 0, resolution: float = 1.0) -> ClusterLabels:
    """Greedy two-phase modularity maximization; deterministic given seed.

    Each level moves single nodes, from a work queue closed by full sweeps
    (see ``_one_level``), until no move strictly raises modularity, then
    aggregates every community into one node.

    Zero-weight edges are dropped before the first move phase, so they never
    make a neighbour's community a move candidate: the result equals that of
    the same graph without them.
    """
    return louvain_trace(graph, seed, resolution).labels
