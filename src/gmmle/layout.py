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

The epoch runs on the complex view ``z`` of the C-ordered n x 2
coordinates: point i is ``x_i + 1j*y_i``.  A batch gathers each endpoint
once and forms offsets by one complex subtraction; the forces come from
the code the public ``attractive_gradient`` and ``repulsive_push`` wrap,
run on the offsets' real and imaginary parts, so each formula exists once.
Clipping and the step act on the interleaved float64 view (a complex
multiply's ``b*0`` terms could flip a signed zero), and each endpoint is
scattered by one ``np.add.at`` on ``z`` in edge order.  Complex arithmetic
is IEEE arithmetic per component, so each coordinate gets the same
additions in the same order as in the n x 2 reference loop in
``tests/test_layout_kernel.py``: the layout is the same bit for bit.  The
negative-sample pushes run in blocks of whole due edges, at most
``_PUSH_BLOCK`` pairs (one edge's samples when ``negative_samples``
exceeds that).  A block of 8192 pairs holds 128 KB in each complex pair
array; larger temporaries pass glibc's mmap threshold and are faulted in
again on every block (see ``_PUSH_BLOCK``).

The curve constants CURVE_A = 1.577 and CURVE_B = 0.8951 are the
least-squares fit of 1/(1 + a*x^(2b)) to the min_dist=0.1 membership
target; min_dist is not a setting, since only a and b enter the layout.
The test suite re-derives them with an independent curve-fit oracle.  The
step starts at INITIAL_ALPHA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import require_int
from .community import CellGraph, _symmetrized
from .rng import CounterRng

GRADIENT_CLIP = 4.0
REPULSION_FLOOR = 0.001
CURVE_A = 1.577
CURVE_B = 0.8951
INITIAL_ALPHA = 1.0
# Most sample pairs per block of one side's negative-sample pushes.  The
# layout alone at the benchmark's shape (2500 points, 24820 edges, 200
# epochs, fresh process) took ~110k extra minor faults and +0.11-0.15 s of
# system time at 16384 pairs, ~310k and +0.32-0.35 s at 65536: temporaries
# past glibc's 128 KB mmap threshold are faulted in again on every block.
_PUSH_BLOCK = 8192


class LayoutDivergedError(RuntimeError):
    """A coordinate became non-finite (step-size pathology)."""


@dataclass(frozen=True)
class LayoutParams:
    """Optimization settings; the neighbourhood size is fixed by the graph."""

    epochs: int = 200
    negative_samples: int = 5

    def __post_init__(self):
        require_int(self.epochs, "epochs", low=1)
        require_int(self.negative_samples, "negative_samples", low=0)


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


def fuzzy_graph(indices: np.ndarray, distances: np.ndarray) -> CellGraph:
    """Weighted neighborhood graph from ``exact_knn`` output (both n x k),
    symmetrized by the fuzzy union a + b - a*b."""
    shifted = np.maximum(distances - distances[:, :1], 0.0)
    sigma = _calibrate_sigma(shifted, math.log2(indices.shape[1]))
    weights = np.exp(-shifted / sigma[:, None])
    weights[shifted <= 0.0] = 1.0  # nearest neighbors always weight 1
    return _symmetrized(indices, weights)


def _attraction(dx: np.ndarray, dy: np.ndarray, a: float, b: float):
    """Components of the gradient of log(1 + a * d^(2b)) for pair offsets
    ``(dx, dy)``, one pair per element; exactly +0.0 where the points
    coincide."""
    dist_sq = dx * dx + dy * dy
    # np.power, not **: on a single pair's numpy scalar ** rounds through a
    # scalar pow that can differ by an ulp from the array loop of the epoch.
    # Coincident pairs divide by zero here; np.where discards their values.
    moving = dist_sq > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff = 2.0 * a * b * np.power(dist_sq, b - 1.0) / (1.0 + a * np.power(dist_sq, b))
        return np.where(moving, coeff * dx, 0.0), np.where(moving, coeff * dy, 0.0)


def _push(dx: np.ndarray, dy: np.ndarray, a: float, b: float):
    """Components of the repulsion for pair offsets ``(dx, dy)``, written
    over ``dx`` and ``dy``.

    The coefficient 2b / ((REPULSION_FLOOR + d^2) * (1 + a * d^(2b))) is
    built in place, one step per operation of the formula; IEEE addition
    and multiplication commute exactly, so its bits are the formula's.
    The power is ``np.power``, as in ``_attraction``, so one pair rounds as
    it does in a batch.
    """
    dist_sq = dx * dx
    dist_sq += dy * dy
    curve = np.power(dist_sq, b)
    curve *= a
    curve += 1.0
    dist_sq += REPULSION_FLOOR
    dist_sq *= curve
    coeff = 2.0 * b / dist_sq
    dx *= coeff
    dy *= coeff
    return dx, dy


def _pairwise(force, head, tail, a: float, b: float) -> np.ndarray:
    """``force`` on points or matching m x 2 arrays, stacked back to that shape."""
    delta = np.asarray(head, dtype=np.float64) - np.asarray(tail, dtype=np.float64)
    return np.stack(force(delta[..., 0], delta[..., 1], a, b), axis=-1)


def attractive_gradient(head, tail, a: float, b: float) -> np.ndarray:
    """Gradient with respect to ``head`` of log(1 + a * d^(2b)).

    ``head`` and ``tail`` are single points or matching m x 2 arrays of
    pairs.  Points away from ``tail``; descent steps move the pair together.
    Zero at coincident points (the objective is flat-bottomed there for
    the b < 1 regime used here).  The layout epoch runs the same
    per-component code (``_attraction``).
    """
    return _pairwise(_attraction, head, tail, a, b)


def repulsive_push(head, tail, a: float, b: float) -> np.ndarray:
    """Displacement applied to ``head`` to repel it from ``tail``.

    ``head`` and ``tail`` are single points or matching m x 2 arrays of
    pairs.  Derived from the negative-sample term of the layout objective
    with a 0.001 squared-distance floor; magnitude depends only on the
    distance.  The layout epoch runs the same per-component code
    (``_push``).
    """
    return _pairwise(_push, head, tail, a, b)


def _clip(values: np.ndarray) -> np.ndarray:
    """Clip complex ``values`` per component in place; returns the float view."""
    flat = values.view(np.float64)
    np.clip(flat, -GRADIENT_CLIP, GRADIENT_CLIP, out=flat)
    return flat


def _repel(z, side, n_neg: int, rng: CounterRng, alpha: float, a: float, b: float) -> None:
    """Push each point of ``side`` away from ``n_neg`` uniformly drawn
    points, in place on the complex coordinates ``z``.

    The due edges run in blocks of ``max(1, _PUSH_BLOCK // n_neg)`` whole
    edges: each block draws its samples, computes its pushes from the
    coordinates as they were before this side's first push, and scatters
    them.  So the draws, the pushes and the order of the additions are
    those of one pass over all pairs, with no pair-length temporaries.
    """
    if n_neg == 0:
        return
    before = z.copy()
    step = max(1, _PUSH_BLOCK // n_neg)
    for lo in range(0, side.size, step):
        anchors = np.repeat(side[lo:lo + step], n_neg)
        others = rng.integers(z.size, anchors.size)
        za, zo = before.take(anchors), before.take(others)
        push = za - zo
        _push(push.real, push.imag, a, b)
        flat = _clip(push)
        # arbitrary fixed kick apart; a self-sample keeps its push, which
        # is +0.0 since x - x is +0.0 for finite x
        push[(za == zo) & (anchors != others)] = complex(GRADIENT_CLIP, GRADIENT_CLIP)
        flat *= alpha
        np.add.at(z, anchors, push)


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
    and scaled by a learning rate decaying linearly from INITIAL_ALPHA
    to 0.  Deterministic for a fixed seed.  Edges of weight 0 are never
    due; a graph with no positive weight returns ``init`` unchanged.

    A sampled point equal to its anchor (but not the anchor itself) gets a
    fixed kick apart; the anchor sampling itself gets no push.
    """
    params = params or LayoutParams()
    rng = CounterRng(seed)
    # C order, so that each row is one complex element of the view below
    coords = np.array(init, dtype=np.float64, copy=True, order="C")
    if coords.ndim != 2 or coords.shape != (graph.n, 2):
        raise ValueError(f"init must be {graph.n} x 2")
    if not np.isfinite(coords).all():
        raise ValueError("init contains non-finite coordinates")
    positive = graph.weights > 0
    if not positive.any():
        return Layout2D(coords, 0)

    scale = np.abs(coords).max()
    if scale > 0:
        coords *= 10.0 / scale

    a, b = CURVE_A, CURVE_B
    heads = graph.edges_i[positive]
    tails = graph.edges_j[positive]
    weights = graph.weights[positive]
    epochs_per_sample = weights.max() / weights
    next_due = epochs_per_sample.copy()
    n_neg = params.negative_samples
    z = coords.view(np.complex128)[:, 0]  # x + 1j*y; the epoch writes coords

    edge_visits = 0
    for epoch in range(params.epochs):
        alpha = INITIAL_ALPHA * (1.0 - epoch / params.epochs)
        due = np.flatnonzero(next_due <= epoch)
        if due.size:
            h = heads.take(due)
            t = tails.take(due)
            edge_visits += h.size
            grad = z.take(h) - z.take(t)
            grad.real, grad.imag = _attraction(grad.real, grad.imag, a, b)
            flat = _clip(grad)
            # descend: pull the pair together from both ends
            np.add.at(z, h, (-alpha * flat).view(np.complex128))
            flat *= alpha
            np.add.at(z, t, grad)

            for side in (h, t):
                _repel(z, side, n_neg, rng, alpha, a, b)

            next_due[due] += epochs_per_sample.take(due)

    if not np.isfinite(coords).all():
        raise LayoutDivergedError("layout diverged: non-finite coordinate")
    return Layout2D(coords, edge_visits)

