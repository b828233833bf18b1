"""Nonlinear 2-D layout of embedded cells (UMAP-style optimization).

A fuzzy neighborhood graph is built from exact k-nearest-neighbor
distances (``community.exact_knn``, the search behind the kNN graph too):
each point's weights decay as exp(-(d - rho)/sigma) with rho the distance
to its nearest neighbor and sigma calibrated per point so the weight sum
hits log2(k); directed weights merge by the fuzzy union a + b - a*b.  The
layout then descends a cross-entropy-style objective by per-edge
stochastic updates: attraction follows the gradient of
log(1 + a*d^(2b)) along due edges, repulsion pushes each endpoint away from
sampled background points.  Updates are applied in deterministic batches
per epoch with a linearly decaying step, so a fixed seed reproduces the
layout bit for bit.

Each batch is scattered in order: a point's new coordinate is its old one
plus that batch's updates to it, added one at a time in edge order, the
same additions ``np.add.at`` makes.  A scatter that summed in another
order would change the layout in its last bits.

The curve constants a=1.577, b=0.8951 are the least-squares fit of
1/(1 + a*x^(2b)) to the min_dist=0.1 membership target; min_dist is not a
setting, since only a and b enter the layout.  The test suite re-derives
them with an independent curve-fit oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .community import CellGraph, exact_knn
from .rng import CounterRng

GRADIENT_CLIP = 4.0
REPULSION_FLOOR = 0.001


class LayoutDivergedError(RuntimeError):
    """A coordinate became non-finite (step-size pathology)."""


@dataclass(frozen=True)
class LayoutParams:
    n_neighbors: int = 15
    epochs: int = 200
    negative_samples: int = 5
    a: float = 1.577
    b: float = 0.8951
    initial_alpha: float = 1.0

    def __post_init__(self):
        for name, valid, rule in (
            ("n_neighbors", self.n_neighbors >= 1, ">= 1"),
            ("epochs", self.epochs >= 1, ">= 1"),
            ("negative_samples", self.negative_samples >= 0, ">= 0"),
            ("initial_alpha",
             math.isfinite(self.initial_alpha) and self.initial_alpha > 0,
             "finite and > 0"),
        ):
            if not valid:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class Layout2D:
    coords: np.ndarray  # n x 2
    edge_visits: int  # due edges summed over all epochs


def _calibrate_sigma(distances: np.ndarray, target: float) -> np.ndarray:
    """Per-row binary search for sigma with sum_j exp(-d_ij/sigma_i) == target.

    ``distances`` (n x k) are already shifted by rho (clamped at 0).  Each
    row stops after 64 iterations or at absolute tolerance 1e-5; a row
    saturates harmlessly when its target is unreachable (e.g. every
    distance equal to rho).
    """
    n = distances.shape[0]
    lo, hi, mid = np.zeros(n), np.full(n, np.inf), np.ones(n)
    active = np.arange(n)
    for _ in range(64):
        total = np.exp(-distances[active] / mid[active, None]).sum(axis=1)
        searching = ~(np.abs(total - target) < 1e-5)
        active, total = active[searching], total[searching]
        if active.size == 0:
            break
        above = total > target
        hi[active] = np.where(above, mid[active], hi[active])
        lo[active] = np.where(above, lo[active], mid[active])
        mid[active] = np.where(
            np.isinf(hi[active]), mid[active] * 2.0, (lo[active] + hi[active]) / 2.0
        )
    return mid


def fuzzy_graph(coords, n_neighbors: int) -> CellGraph:
    """Weighted neighborhood graph with fuzzy-union symmetrization."""
    points = np.asarray(coords, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("coordinates must be n x d")
    n = points.shape[0]
    if not (1 <= n_neighbors < n):
        raise ValueError(f"n_neighbors={n_neighbors} outside [1, {n - 1}]")

    indices, distances = exact_knn(points, n_neighbors)
    shifted = np.maximum(distances - distances[:, :1], 0.0)
    sigma = _calibrate_sigma(shifted, math.log2(n_neighbors))
    weights = np.exp(-shifted / sigma[:, None])
    weights[shifted <= 0.0] = 1.0  # nearest neighbors always weight 1

    heads = np.repeat(np.arange(n), n_neighbors)
    tails = indices.ravel()
    weights = weights.ravel()
    directed = sp.csr_matrix((weights, (heads, tails)), shape=(n, n))
    # weight of the reverse edge j -> i, 0 where j does not list i
    reverse = np.asarray(directed[tails, heads]).ravel()
    merged = fuzzy_union(weights, reverse)
    codes, first = np.unique(
        np.minimum(heads, tails) * n + np.maximum(heads, tails), return_index=True
    )
    return CellGraph(n, codes // n, codes % n, merged[first])


def fuzzy_union(a: float, b: float) -> float:
    """Symmetrization of two directed memberships: a + b - a*b."""
    return a + b - a * b


def _norm_sq(delta: np.ndarray) -> np.ndarray:
    """x*x + y*y over the last axis: the sum a length-2 reduction forms,
    without the per-call cost of one."""
    x, y = delta[..., 0], delta[..., 1]
    return x * x + y * y


def attractive_gradient(head, tail, a: float, b: float) -> np.ndarray:
    """Gradient with respect to ``head`` of log(1 + a * d^(2b)).

    ``head`` and ``tail`` are single points or matching m x 2 arrays of
    pairs.  Points away from ``tail``; descent steps move the pair together.
    Zero at coincident points (the objective is flat-bottomed there for
    the b < 1 regime used here).
    """
    delta = np.asarray(head, dtype=np.float64) - np.asarray(tail, dtype=np.float64)
    dist_sq = _norm_sq(delta)
    grad = np.zeros_like(delta)
    moving = dist_sq > 0.0
    d_sq = dist_sq[moving]
    coeff = 2.0 * a * b * d_sq ** (b - 1.0) / (1.0 + a * d_sq**b)
    grad[moving] = coeff[:, None] * delta[moving]
    return grad


def repulsive_push(head, tail, a: float, b: float) -> np.ndarray:
    """Displacement applied to ``head`` to repel it from ``tail``.

    ``head`` and ``tail`` are single points or matching m x 2 arrays of
    pairs.  Derived from the negative-sample term of the layout objective
    with a 0.001 squared-distance floor; magnitude depends only on the
    distance.
    """
    delta = np.asarray(head, dtype=np.float64) - np.asarray(tail, dtype=np.float64)
    dist_sq = _norm_sq(delta)
    coeff = 2.0 * b / ((REPULSION_FLOOR + dist_sq) * (1.0 + a * dist_sq**b))
    return coeff[..., None] * delta


def _clip(values: np.ndarray) -> np.ndarray:
    return np.clip(values, -GRADIENT_CLIP, GRADIENT_CLIP)


def _scatter_add(coords: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """In place ``coords[index[e]] += values[e]`` in order of e, bit for bit
    as ``np.add.at``.

    Per axis, one ``np.bincount`` whose first n weights are the coordinates:
    each point's sum is its coordinate, then its updates in index order.
    The count starts from +0.0, but -0.0 is the additive identity, so a
    point whose every term is -0.0 is set back to -0.0.
    """
    n = coords.shape[0]
    bins = np.concatenate((np.arange(n), index))
    for axis in range(coords.shape[1]):
        terms = np.concatenate((coords[:, axis], values[:, axis]))
        total = np.bincount(bins, terms, minlength=n)
        if (total == 0.0).any():
            signed = bins[(terms != 0.0) | ~np.signbit(terms)]
            total[np.bincount(signed, minlength=n) == 0] = -0.0
        coords[:, axis] = total


def optimize_layout(
    graph: CellGraph,
    init,
    params: LayoutParams | None = None,
    seed: int = 0,
) -> Layout2D:
    """Stochastic per-edge layout optimization.

    ``init`` (n x 2, typically the first two embedding coordinates) is
    rescaled to max-abs 10 so the step schedule is independent of the
    embedding's scale.  Edge e is revisited every max_weight/weight_e
    epochs; each visit attracts both endpoints along the gradient of
    log(1 + a*d^(2b)) and repels each endpoint from ``negative_samples``
    uniformly sampled points.  Per-component updates are clipped to +/-4
    and scaled by a learning rate decaying linearly from initial_alpha
    to 0.  Deterministic for a fixed seed.
    """
    params = params or LayoutParams()
    coords = np.array(init, dtype=np.float64, copy=True)
    if coords.ndim != 2 or coords.shape != (graph.n, 2):
        raise ValueError(f"init must be {graph.n} x 2")
    if not np.isfinite(coords).all():
        raise ValueError("init contains non-finite coordinates")
    if graph.n_edges == 0:
        return Layout2D(coords, 0)

    scale = np.abs(coords).max()
    if scale > 0:
        coords *= 10.0 / scale

    n = graph.n
    a, b = params.a, params.b
    heads = graph.edges_i
    tails = graph.edges_j
    weights = graph.weights
    positive = weights > 0
    heads, tails, weights = heads[positive], tails[positive], weights[positive]
    epochs_per_sample = weights.max() / weights
    next_due = epochs_per_sample.copy()
    rng = CounterRng(seed)
    n_neg = params.negative_samples

    edge_visits = 0
    for epoch in range(params.epochs):
        alpha = params.initial_alpha * (1.0 - epoch / params.epochs)
        due = next_due <= epoch
        if due.any():
            h = heads[due]
            t = tails[due]
            edge_visits += h.size
            attract = _clip(attractive_gradient(
                coords.take(h, axis=0), coords.take(t, axis=0), a, b
            ))
            # descend: pull the pair together from both ends
            _scatter_add(coords, np.concatenate((h, t)),
                         np.concatenate((-alpha * attract, alpha * attract)))

            for side in (h, t):
                anchors = np.repeat(side, n_neg)
                others = rng.integers(n, anchors.size)
                anchor_xy = coords.take(anchors, axis=0)
                other_xy = coords.take(others, axis=0)
                push = _clip(repulsive_push(anchor_xy, other_xy, a, b))
                coincident = (
                    (anchor_xy[:, 0] == other_xy[:, 0])
                    & (anchor_xy[:, 1] == other_xy[:, 1])
                    & (anchors != others)
                )
                push[coincident] = GRADIENT_CLIP  # arbitrary fixed kick apart
                push[anchors == others] = 0.0
                _scatter_add(coords, anchors, alpha * push)

            next_due[due] += epochs_per_sample[due]

    if not np.isfinite(coords).all():
        raise LayoutDivergedError("layout diverged: non-finite coordinate")
    return Layout2D(coords, edge_visits)


def layout_to_tsv(layout: Layout2D, cell_ids) -> str:
    lines = ["cell_id\tx\ty"]
    for cid, (x, y) in zip(cell_ids, layout.coords):
        lines.append(f"{cid}\t{x:.12g}\t{y:.12g}")
    return "\n".join(lines) + "\n"
