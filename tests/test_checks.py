"""Count arguments of the public entry points must be integers: a float, a
string or a bool is refused by name before any work, not deep inside with a
TypeError or silently truncated.  Labels follow the same rule, and the
mixture entry points refuse non-finite coordinates as ``exact_knn`` does."""

import numpy as np
import pytest

from gmmle.community import CellGraph, exact_knn, modularity
from gmmle.features import select_top_k
from gmmle.mixture import ClusterLabels, fit_gmm, fit_kmeans, select_k

POINTS = np.array(
    [[0.0, 0.1], [0.2, 0.0], [0.1, 0.2], [5.0, 5.1], [5.2, 5.0], [5.1, 5.2]]
)
SCORES = np.rec.fromarrays(
    [np.full(3, 2.0), np.full(3, 4.0), np.array([2.0, 1.5, 3.0]), np.full(3, 0.5)],
    names=["m", "variance", "score", "phi_hat"],
)
CALLS = {
    "exact_knn": ("k", lambda value: exact_knn(POINTS, value)),
    "fit_kmeans": ("n_clusters", lambda value: fit_kmeans(POINTS, value)),
    "fit_gmm": ("n_components", lambda value: fit_gmm(POINTS, value)),
    "select_top_k": ("k", lambda value: select_top_k(SCORES, value)),
    "select_k": ("k_values", lambda value: select_k(POINTS, (value,))),
}


@pytest.mark.parametrize("value", [2.5, 2.0, "2", True], ids=["2.5", "2.0", "str", "bool"])
@pytest.mark.parametrize("call", sorted(CALLS))
def test_non_integer_count_rejected_by_name(call, value):
    name, run = CALLS[call]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        run(value)


@pytest.mark.parametrize("call", sorted(CALLS))
def test_numpy_integer_accepted(call):
    _, run = CALLS[call]
    run(np.int64(2))


def test_select_k_takes_an_array_of_k_values():
    """An array of K values used to fail on its truth value before any fit."""
    by_array = select_k(POINTS, np.array([1, 2]))
    by_tuple = select_k(POINTS, (1, 2))
    assert by_array.diagnostics == by_tuple.diagnostics
    assert all(type(row.n_clusters) is int for row in by_array.diagnostics)


BAD_LABELS = {
    "fractional": (np.array([0.5, 0.0, 1.7, 1.0]), "labels must be finite integers, got 0.5"),
    "negative": (np.array([-1, 0, 1, 1]), "labels must be non-negative, got -1"),
    "nan": (np.array([0.0, np.nan, 1.0, 1.0]), "labels must be finite integers, got nan"),
    "inf": (np.array([0.0, 1.0, np.inf, 1.0]), "labels must be finite integers, got inf"),
    "2-d": (np.array([[0, 0], [1, 1]]), r"labels must be 1-D, got shape \(2, 2\)"),
    "strings": (np.array(["0", "0", "1", "1"]), "labels must be integers, got dtype <U1"),
}


@pytest.mark.parametrize("case", sorted(BAD_LABELS))
def test_cluster_labels_refuses_what_the_cast_would_change(case):
    labels, message = BAD_LABELS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        ClusterLabels(labels, 2)


def test_cluster_labels_takes_integral_floats_and_numpy_integers():
    labels = ClusterLabels(np.array([0.0, 1.0, 1.0]), np.int64(2))
    assert labels.labels.dtype == np.int64 and labels.labels.tolist() == [0, 1, 1]
    assert type(labels.n_clusters) is int
    assert ClusterLabels(np.array([1, 0], dtype=np.uint8), 2).labels.tolist() == [1, 0]


def test_cluster_labels_count_must_be_an_integer():
    with pytest.raises(ValueError, match="^n_clusters must be an integer, got 2.0$"):
        ClusterLabels(np.array([0, 1]), 2.0)


# two disjoint edges, (0, 1) and (2, 3)
GRAPH = CellGraph(4, np.array([0, 2]), np.array([1, 3]), np.ones(2))


@pytest.mark.parametrize(
    "labels, message",
    [
        (np.array([-1, -1, 0, 0]), "labels must be non-negative, got -1"),
        (np.array([0.5, 0.0, 1.0, 1.0]), "labels must be finite integers, got 0.5"),
        (np.array([[0, 0], [1, 1]]), r"labels must be 1-D, got shape \(2, 2\)"),
    ],
    ids=["negative", "fractional", "2-d"],
)
def test_modularity_refuses_raw_labels_by_name(labels, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        modularity(GRAPH, labels)


def test_modularity_takes_raw_labels_as_cluster_labels():
    raw = np.array([0.0, 0.0, 1.0, 1.0])
    assert modularity(GRAPH, raw) == modularity(GRAPH, ClusterLabels(raw, 2)) == 0.5


MIXTURE_CALLS = {
    "fit_kmeans": lambda points: fit_kmeans(points, 2),
    "fit_gmm": lambda points: fit_gmm(points, 2),
    "select_k": lambda points: select_k(points, (1, 2)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", sorted(MIXTURE_CALLS))
def test_mixture_refuses_non_finite_coordinates(call, value):
    points = POINTS.copy()
    points[3, 1] = value
    with pytest.raises(ValueError, match="^coordinates must be finite$"):
        MIXTURE_CALLS[call](points)
