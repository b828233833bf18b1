"""Integer arguments of the public entry points (counts, sizes, bounds,
seeds and integer config fields) must be integers: a float, a string or a
bool is refused by name before any work, not deep inside with a TypeError
or silently truncated.  Labels follow the same rule, and the
mixture entry points refuse non-finite coordinates as ``exact_knn`` does."""

import numpy as np
import pytest
import scipy.sparse as sp

from gmmle import mixture
from gmmle._checks import require_labels
from gmmle.community import CellGraph, exact_knn, louvain, modularity
from gmmle.core_matrix import CountMatrix
from gmmle.features import select_top_k
from gmmle.layout import LayoutParams, optimize_layout
from gmmle.mixture import ClusterLabels, fit_gmm, fit_kmeans, select_k
from gmmle.qc import QcConfig
from gmmle.rng import CounterRng
from gmmle.simulate import SbmConfig
from gmmle.spectral import EmbedPolicy, normalized_laplacian, truncated_svd
from gmmle.validate import gate_cells

POINTS = np.array(
    [[0.0, 0.1], [0.2, 0.0], [0.1, 0.2], [5.0, 5.1], [5.2, 5.0], [5.1, 5.2]]
)
SCORES = np.rec.fromarrays(
    [np.full(3, 2.0), np.full(3, 4.0), np.array([2.0, 1.5, 3.0]), np.full(3, 0.5)],
    names=["m", "variance", "score", "phi_hat"],
)
# two disjoint edges, (0, 1) and (2, 3)
GRAPH = CellGraph(4, np.array([0, 2]), np.array([1, 3]), np.ones(2))
LAPLACIAN = normalized_laplacian(CountMatrix.from_dense([[3, 1, 2], [1, 4, 1], [2, 2, 5]]))
GATED = CountMatrix.from_dense([[1, 2], [3, 0]])


def _sbm(**fields):
    settings = {"rates": np.ones((1, 1)), "gene_block_sizes": (2,), "cell_block_sizes": (3,)}
    return SbmConfig(**{**settings, **fields})


# the name a refusal gives and a call that takes the value 2: the counts, and
# the sizes, bounds, seeds and integer config fields, which once truncated a
# float, took a bool as 0 or 1 or failed later with an unnamed TypeError
CALLS = {
    "exact_knn": ("k", lambda value: exact_knn(POINTS, value)),
    "fit_kmeans": ("n_clusters", lambda value: fit_kmeans(POINTS, value)),
    "fit_gmm": ("n_components", lambda value: fit_gmm(POINTS, value)),
    "select_top_k": ("k", lambda value: select_top_k(SCORES, value)),
    "select_k": ("k_values", lambda value: select_k(POINTS, (value,))),
    "truncated_svd-max_iter": ("max_iter", lambda v: truncated_svd(LAPLACIAN, 1, max_iter=v)),
    "truncated_svd-seed": ("seed", lambda v: truncated_svd(LAPLACIAN, 1, seed=v)),
    "EmbedPolicy-seed": ("seed", lambda v: EmbedPolicy(seed=v)),
    "LayoutParams-epochs": ("epochs", lambda v: LayoutParams(epochs=v)),
    "LayoutParams-negative_samples": (
        "negative_samples", lambda v: LayoutParams(negative_samples=v)
    ),
    "optimize_layout-seed": (
        "seed", lambda v: optimize_layout(GRAPH, POINTS[:4], LayoutParams(epochs=2), seed=v)
    ),
    "louvain-seed": ("seed", lambda v: louvain(GRAPH, seed=v)),
    "QcConfig-min_cells_per_feature": (
        "min_cells_per_feature", lambda v: QcConfig(min_cells_per_feature=v)
    ),
    "QcConfig-min_features_per_cell": (
        "min_features_per_cell", lambda v: QcConfig(min_features_per_cell=v)
    ),
    "gate_cells-min_pos": ("min_pos", lambda v: gate_cells(GATED, [0, 1], ["f0"], [], min_pos=v)),
    "gate_cells-max_neg": ("max_neg", lambda v: gate_cells(GATED, [0, 1], [], ["f1"], max_neg=v)),
    "CounterRng-seed": ("seed", lambda v: CounterRng(v)),
    "CounterRng.integers-bound": ("bound", lambda v: CounterRng(0).integers(v, 8)),
    "fit_kmeans-seed": ("seed", lambda v: fit_kmeans(POINTS, 2, seed=v)),
    "fit_gmm-seed": ("seed", lambda v: fit_gmm(POINTS, 2, seed=v)),
    "select_k-seed": ("seed", lambda v: select_k(POINTS, (2,), seed=v)),
    "SbmConfig-gene_block_sizes": ("gene_block_sizes", lambda v: _sbm(gene_block_sizes=(v,))),
    "SbmConfig-cell_block_sizes": ("cell_block_sizes", lambda v: _sbm(cell_block_sizes=(v,))),
    "SbmConfig-seed": ("seed", lambda v: _sbm(seed=v)),
    "SbmConfig-cell_total": ("cell_total", lambda v: _sbm(mode="multinomial", cell_total=v)),
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


def test_numpy_integer_seed_gives_the_plain_int_stream():
    assert CounterRng(np.int64(2)).uint64(4).tolist() == CounterRng(2).uint64(4).tolist()
    assert CounterRng(np.uint64(2)).uint64(4).tolist() == CounterRng(2).uint64(4).tolist()


@pytest.mark.parametrize("run, message", [
    (lambda: select_top_k(SCORES, 0), "k must be >= 1, got 0"),
    (lambda: QcConfig(min_features_per_cell=-1), "min_features_per_cell must be >= 0, got -1"),
    (lambda: CounterRng(0).integers(0, 4), "bound must be >= 1, got 0"),
    (lambda: _sbm(mode="multinomial", cell_total=-1), "cell_total must be >= 0, got -1"),
    (lambda: select_k(POINTS, (0, 2)), r"k_values=0 outside \[1, 6\]"),
], ids=["select_top_k", "QcConfig", "integers", "cell_total", "select_k"])
def test_out_of_range_message_names_value_and_bound(run, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run()


def test_select_k_refuses_k_above_n_before_any_fit(monkeypatch):
    """K = 2 and 3 were fitted before K = 7 failed, as ``n_components``."""
    fits = []

    def spy(*args, **kwargs):
        fits.append(args)
        return real_fit(*args, **kwargs)

    real_fit = mixture.fit_gmm
    monkeypatch.setattr(mixture, "fit_gmm", spy)
    with pytest.raises(ValueError, match=r"^k_values=7 outside \[1, 6\]$"):
        select_k(POINTS, [2, 3, 7])
    assert fits == []


# the exact integer, not the float repr 9.223372036854776e+18
ABOVE_INT64 = r"must be at most 2\*\*63 - 1, got 9223372036854775808$"


def test_unsigned_counts_above_int64_refused_by_name():
    """The int64 cast wrapped 2**63 to a negative count."""
    matrix = sp.csr_matrix(np.array([[2**63, 1]], dtype=np.uint64))
    with pytest.raises(ValueError, match=f"^counts {ABOVE_INT64}"):
        CountMatrix(matrix, ["f"], ["a", "b"])


def test_unsigned_labels_above_int64_refused_by_name():
    with pytest.raises(ValueError, match=f"^labels {ABOVE_INT64}"):
        require_labels(np.array([2**63, 0], dtype=np.uint64))
    assert require_labels(np.array([2**63 - 1, 0], dtype=np.uint64)).tolist() == [2**63 - 1, 0]
