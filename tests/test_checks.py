"""Count arguments of the public entry points must be integers: a float, a
string or a bool is refused by name before any work, not deep inside with a
TypeError or silently truncated."""

import numpy as np
import pytest

from gmmle.community import exact_knn
from gmmle.features import select_top_k
from gmmle.mixture import fit_gmm, fit_kmeans, select_k

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
