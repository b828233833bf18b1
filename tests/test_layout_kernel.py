"""The layout's epoch loop, checked byte for byte against the ``np.add.at``
loop it replaced: same coordinates (``tobytes``, so the sign of every zero
counts too) and the same gradient helpers."""

import numpy as np
import pytest

from gmmle import layout
from gmmle.community import CellGraph, exact_knn
from gmmle.layout import (
    CURVE_A,
    CURVE_B,
    GRADIENT_CLIP,
    INITIAL_ALPHA,
    REPULSION_FLOOR,
    LayoutParams,
    attractive_gradient,
    fuzzy_graph,
    optimize_layout,
    repulsive_push,
)
from gmmle.rng import CounterRng


def reference_attractive_gradient(head, tail, a, b):
    delta = np.asarray(head, dtype=np.float64) - np.asarray(tail, dtype=np.float64)
    dist_sq = (delta * delta).sum(axis=-1)
    grad = np.zeros_like(delta)
    moving = dist_sq > 0.0
    d_sq = dist_sq[moving]
    coeff = 2.0 * a * b * d_sq ** (b - 1.0) / (1.0 + a * d_sq**b)
    grad[moving] = coeff[:, None] * delta[moving]
    return grad


def reference_repulsive_push(head, tail, a, b):
    delta = np.asarray(head, dtype=np.float64) - np.asarray(tail, dtype=np.float64)
    dist_sq = (delta * delta).sum(axis=-1)
    coeff = 2.0 * b / ((REPULSION_FLOOR + dist_sq) * (1.0 + a * dist_sq**b))
    return coeff[..., None] * delta


def reference_optimize_layout(graph, init, params, seed):
    """The per-epoch loop with ``np.add.at`` scatters and fancy-index gathers."""

    def clip(values):
        return np.clip(values, -GRADIENT_CLIP, GRADIENT_CLIP)

    coords = np.array(init, dtype=np.float64, copy=True)
    scale = np.abs(coords).max()
    if scale > 0:
        coords *= 10.0 / scale
    n = graph.n
    a, b = CURVE_A, CURVE_B
    positive = graph.weights > 0
    heads = graph.edges_i[positive]
    tails = graph.edges_j[positive]
    weights = graph.weights[positive]
    epochs_per_sample = weights.max() / weights
    next_due = epochs_per_sample.copy()
    rng = CounterRng(seed)
    n_neg = params.negative_samples
    edge_visits = kicks = self_samples = coincident_edges = 0
    for epoch in range(params.epochs):
        alpha = INITIAL_ALPHA * (1.0 - epoch / params.epochs)
        due = next_due <= epoch
        if due.any():
            h = heads[due]
            t = tails[due]
            edge_visits += h.size
            coincident_edges += int((coords[h] == coords[t]).all(axis=1).sum())
            attract = clip(reference_attractive_gradient(coords[h], coords[t], a, b))
            np.add.at(coords, h, -alpha * attract)
            np.add.at(coords, t, alpha * attract)
            for side in (h, t):
                anchors = np.repeat(side, n_neg)
                others = rng.integers(n, anchors.size)
                anchor_xy, other_xy = coords[anchors], coords[others]
                push = clip(reference_repulsive_push(anchor_xy, other_xy, a, b))
                coincident = (anchor_xy == other_xy).all(axis=1) & (anchors != others)
                push[coincident] = GRADIENT_CLIP
                push[anchors == others] = 0.0
                kicks += int(coincident.sum())
                self_samples += int((anchors == others).sum())
                np.add.at(coords, anchors, alpha * push)
            next_due[due] += epochs_per_sample[due]
    return coords, edge_visits, kicks, self_samples, coincident_edges


def blobs_4d():
    rng = CounterRng(5)
    centers = 6.0 * rng.normal((5, 4))
    return np.vstack([c + rng.normal((500, 4)) for c in centers])


def duplicated_points():
    base = CounterRng(8).normal((20, 3))
    return np.repeat(base, 3, axis=0)  # every point three times


def lattice_12x12():
    xs, ys = np.meshgrid(np.arange(12.0), np.arange(12.0))
    return np.column_stack([xs.ravel(), ys.ravel()])


def signed_zero_line():
    """Distinct y, x exactly 0.0 or -0.0: x stays zero and only its sign
    moves.  Any +0.0 update turns a -0.0 into +0.0, so within a few epochs
    every x is +0.0; the fixture runs two."""
    n = 40
    x = np.where(np.arange(n) % 3 == 0, -0.0, 0.0)
    return np.column_stack([x, np.linspace(-1.0, 1.0, n)])


# (points, n_neighbors, epochs); the blobs run fewer epochs to keep the
# reference loop cheap
FIXTURES = {
    "blobs_4d": (blobs_4d, 15, 25),
    "duplicated": (duplicated_points, 5, 200),
    "lattice": (lattice_12x12, 8, 200),
    "signed_zero": (signed_zero_line, 5, 2),
}


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("negative_samples", [0, 5])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_layout_matches_add_at_reference(name, negative_samples, seed):
    make, n_neighbors, epochs = FIXTURES[name]
    points = make()
    graph = fuzzy_graph(*exact_knn(points, n_neighbors))
    params = LayoutParams(epochs=epochs, negative_samples=negative_samples)
    init = points[:, :2]
    expected, visits, kicks, self_samples, coincident_edges = reference_optimize_layout(
        graph, init, params, seed
    )
    got = optimize_layout(graph, init, params, seed=seed)
    assert got.coords.tobytes() == expected.tobytes()
    assert got.edge_visits == visits
    # the fixtures reach the branches they are there for
    if name == "duplicated" and negative_samples:
        assert kicks > 0 and self_samples > 0
    if name == "duplicated":
        assert coincident_edges > 0  # due edges with zero attraction
    if name == "signed_zero":
        x = expected[:, 0]
        assert (x == 0.0).all() and np.signbit(x).any() and not np.signbit(x).all()


# Blocks of 1 and 7 pairs end inside an edge's run of samples (5 or 3 per
# edge).  The default block is one block per side on these small fixtures;
# on blobs_4d above it splits each side into many.
@pytest.mark.parametrize("push_block", [1, 7, layout._PUSH_BLOCK])
@pytest.mark.parametrize("negative_samples", [3, 5])
@pytest.mark.parametrize("name", ["duplicated", "lattice", "signed_zero"])
def test_push_blocks_match_add_at_reference(monkeypatch, name, negative_samples, push_block):
    monkeypatch.setattr(layout, "_PUSH_BLOCK", push_block)
    make, n_neighbors, epochs = FIXTURES[name]
    points = make()
    graph = fuzzy_graph(*exact_knn(points, n_neighbors))
    params = LayoutParams(epochs=min(epochs, 10), negative_samples=negative_samples)
    init = points[:, :2]
    expected, visits, *_ = reference_optimize_layout(graph, init, params, seed=1)
    got = optimize_layout(graph, init, params, seed=1)
    assert got.coords.tobytes() == expected.tobytes()
    assert got.edge_visits == visits


def test_edge_visits_counts_due_edges():
    # equal weights: every edge is first due at epoch 1, then every epoch
    graph = CellGraph(3, np.array([0, 1]), np.array([1, 2]), np.ones(2))
    init = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    layout = optimize_layout(graph, init, LayoutParams(epochs=7), seed=0)
    assert layout.edge_visits == 2 * 6


def gradient_inputs():
    rng = CounterRng(21)
    heads = rng.normal((500, 2)) * np.array([1.0, 1e-3])
    tails = rng.normal((500, 2))
    tails[:50] = heads[:50]  # coincident pairs
    tails[50:60, 0] = heads[50:60, 0]  # one shared axis
    heads[60:70] = np.array([0.0, -0.0])
    tails[60:70] = np.array([-0.0, 0.0])
    return heads, tails


@pytest.mark.parametrize(
    "helper, reference",
    [
        (attractive_gradient, reference_attractive_gradient),
        (repulsive_push, reference_repulsive_push),
    ],
)
def test_gradient_helpers_match_reduction_formula(helper, reference):
    a, b = CURVE_A, CURVE_B
    heads, tails = gradient_inputs()
    got = helper(heads, tails, a, b)
    assert got.tobytes() == reference(heads, tails, a, b).tobytes()
    for head, tail in zip(heads[::20], tails[::20]):
        single = np.asarray(helper(head, tail, a, b))
        assert single.shape == (2,)
        assert single.tobytes() == np.asarray(reference(head, tail, a, b)).tobytes()


def test_single_pair_push_equals_its_batch_row():
    """One pair rounds as in a batch: ``np.power`` on a numpy scalar takes
    the array loop, where a scalar ``**`` could differ in the last bit."""
    rng = CounterRng(5)
    heads, tails = rng.normal((2000, 2)), rng.normal((2000, 2))
    batch = repulsive_push(heads, tails, CURVE_A, CURVE_B)
    for head, tail, row in zip(heads, tails, batch):
        assert repulsive_push(head, tail, CURVE_A, CURVE_B).tobytes() == row.tobytes()
