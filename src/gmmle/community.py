"""Cell-cell graphs, the modularity statistic, and Louvain clustering.

Modularity of a labeling C over a weighted symmetric graph is

    Q(C) = (1/W) * sum_ij (A_ij - D_i * D_j / W) * [label(i) == label(j)]

with A the symmetric adjacency (both orientations of every stored edge),
D_i its row sums and W the grand total, so each undirected edge counts
twice and diagonal expected-weight terms are included.  Louvain greedily
maximizes Q by single-node moves followed by graph aggregation; it is a
baseline to compare against likelihood-based clustering, not a replica of
any particular toolchain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


def exact_knn(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact Euclidean k nearest neighbours of every row of ``points``.

    ``points`` is a validated float n x d array and 1 <= k < n.  Returns
    (indices, distances), both n x k, each row ordered by distance, then
    index; a point is never its own neighbour.
    """
    n = points.shape[0]
    sq_norms = (points**2).sum(axis=1)
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k))
    # rows per block: the squared distances and argpartition's index array
    # together stay within 16 MB
    chunk = max(1, min(n, 1_000_000 // n))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        rows = np.arange(stop - start)
        block = points[start:stop]
        dist_sq = sq_norms[start:stop, None] - 2.0 * (block @ points.T) + sq_norms[None, :]
        np.maximum(dist_sq, 0.0, out=dist_sq)
        dist_sq[rows, start + rows] = np.inf  # exclude self
        # the k smallest land in columns :k, the (k+1)-th smallest in column k
        part = np.argpartition(dist_sq, k, axis=1)[:, : k + 1]
        part_sq = np.take_along_axis(dist_sq, part, axis=1)
        nearest, nearest_sq = part[:, :k], part_sq[:, :k]
        # a row whose k-th distance ties the next one has no unique k nearest;
        # the index tie-break needs a stable sort of the whole row
        for local in np.flatnonzero(~(nearest_sq.max(axis=1) < part_sq[:, k])):
            nearest[local] = np.argsort(dist_sq[local], kind="stable")[:k]
            nearest_sq[local] = dist_sq[local, nearest[local]]
        order = np.lexsort((nearest, nearest_sq), axis=1)
        indices[start:stop] = np.take_along_axis(nearest, order, axis=1)
        distances[start:stop] = np.sqrt(np.take_along_axis(nearest_sq, order, axis=1))
    return indices, distances


def knn_graph(coords, k: int) -> CellGraph:
    """Exact Euclidean k-nearest-neighbour graph, symmetrized by union.

    Distance ties break by index; edges carry unit weight.
    """
    points = np.asarray(coords, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("coordinates must be n x d")
    n = points.shape[0]
    if not (1 <= k < n):
        raise ValueError(f"k={k} outside [1, {n - 1}]")

    indices, _ = exact_knn(points, k)
    heads = np.repeat(np.arange(n), k)
    tails = indices.ravel()
    # each undirected pair encoded as i * n + j with i < j, sorted and
    # deduplicated (a sort plus neighbour mask; plain np.unique hashes)
    codes = np.sort(np.minimum(heads, tails) * n + np.maximum(heads, tails))
    codes = codes[np.r_[True, codes[1:] != codes[:-1]]]
    return CellGraph(n, codes // n, codes % n, np.ones(codes.size))


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


def modularity(graph: CellGraph, labels: ClusterLabels) -> float:
    """Observed-minus-expected within-cluster weight share."""
    lab = labels.labels if isinstance(labels, ClusterLabels) else np.asarray(labels)
    if lab.size != graph.n:
        raise ValueError(f"{lab.size} labels for {graph.n} nodes")
    internal, comm_degree, total_weight = _community_sums(graph, lab)
    if total_weight <= 0.0:
        raise ValueError("graph has no edge weight")
    observed = 2.0 * internal.sum() / total_weight
    expected = float((comm_degree**2).sum()) / (total_weight * total_weight)
    return observed - expected


@dataclass(frozen=True)
class LouvainResult:
    labels: ClusterLabels
    level_modularity: tuple[float, ...]  # incrementally maintained Q per level
    level_labels: tuple[np.ndarray, ...] = ()  # flat labels at each level end


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
    full double-sum of weight inside c.  Returns (labels, moved_any,
    q_incremental) where q_incremental is the level's modularity maintained
    through per-move bookkeeping; aggregation preserves Q, so at resolution 1
    this must equal modularity() of the composed flat labels up to rounding
    (asserted by the test suite).
    """
    n = adj.shape[0]
    degree = np.asarray(adj.sum(axis=1)).ravel()
    self_loops = adj.diagonal()
    total_weight = float(degree.sum())
    # the move loop is scalar code: plain lists index faster than arrays
    indptr, indices, weights = adj.indptr.tolist(), adj.indices.tolist(), adj.data.tolist()
    degree_of, self_of = degree.tolist(), self_loops.tolist()
    community = list(range(n))
    comm_degree = degree.tolist()
    # internal[c]: full double-sum of weight inside c, incl. self-loops
    internal = self_loops.tolist()
    order = rng.permutation(n).tolist()

    moved_any = False
    # pass cap is a safety valve; strict-improvement moves terminate long before
    for _ in range(200):
        moved_this_pass = False
        for node in order:
            home = community[node]
            k_node = degree_of[node]
            self_node = self_of[node]
            link = {}
            for pos in range(indptr[node], indptr[node + 1]):
                other = indices[pos]
                if other != node:
                    comm = community[other]
                    link[comm] = link.get(comm, 0.0) + weights[pos]

            comm_degree[home] -= k_node
            internal[home] -= 2.0 * link.get(home, 0.0) + self_node

            # gain of joining community c, relative to staying isolated
            def gain(comm: int) -> float:
                return (
                    2.0 * link.get(comm, 0.0) / total_weight
                    - 2.0 * resolution * comm_degree[comm] * k_node
                    / (total_weight * total_weight)
                )

            # strict improvement only, so an exact tie keeps the home
            # community (no churn) or the smallest-id earlier candidate
            best_comm, best_gain = home, gain(home)
            for comm in sorted(link):
                g = gain(comm)
                if g > best_gain:
                    best_comm, best_gain = comm, g

            comm_degree[best_comm] += k_node
            internal[best_comm] += 2.0 * link.get(best_comm, 0.0) + self_node
            if best_comm != home:
                community[node] = best_comm
                moved_this_pass = True
                moved_any = True
        if not moved_this_pass:
            break

    q_incremental = float(
        np.array(internal).sum() / total_weight
        - resolution * (np.array(comm_degree) ** 2).sum() / (total_weight * total_weight)
    )
    # renumber to consecutive ids in sorted order of the surviving ids
    _, renumbered = np.unique(community, return_inverse=True)
    return renumbered, moved_any, q_incremental


def louvain_trace(graph: CellGraph, seed: int = 0, resolution: float = 1.0) -> LouvainResult:
    """Louvain with per-level flat modularity recorded."""
    adj = _adjacency(graph)
    if adj.nnz == 0:
        return LouvainResult(ClusterLabels(np.arange(graph.n), graph.n), (), ())
    rng = CounterRng(seed)
    flat = np.arange(graph.n)
    trace = []
    level_labels = []
    while True:
        labels, moved, q_incremental = _one_level(adj, rng, resolution)
        if not moved:
            break
        flat = labels[flat]
        trace.append(q_incremental)
        level_labels.append(flat.copy())
        n_comms = labels.max() + 1
        if n_comms == adj.shape[0]:
            break
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
    return LouvainResult(ClusterLabels(rank[flat], first.size), tuple(trace), tuple(level_labels))


def louvain(graph: CellGraph, seed: int = 0, resolution: float = 1.0) -> ClusterLabels:
    """Greedy two-phase modularity maximization; deterministic given seed.

    Zero-weight edges are dropped before the first move phase, so they never
    make a neighbour's community a move candidate: the result equals that of
    the same graph without them.
    """
    return louvain_trace(graph, seed, resolution).labels
