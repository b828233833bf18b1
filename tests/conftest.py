import math
import sys
from pathlib import Path

import numpy as np

# Allow running the suite from a fresh checkout without installing.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_report_header(config):
    """Name the package under test: this checkout's ``src`` comes first on
    the path whatever PYTHONPATH says, so run the suite inside the checkout
    you mean to test."""
    import gmmle

    return f"gmmle under test: {gmmle.__file__}"


def entry_set(matrix) -> set[tuple[int, int, int]]:
    """A CountMatrix's stored entries as (feature, cell, count) triples."""
    coo = matrix.csr().tocoo()
    return {
        (int(i), int(j), int(v))
        for i, j, v in zip(coo.row, coo.col, coo.data)
    }


def reference_poisson(u: np.ndarray, lam: float) -> np.ndarray:
    """Poisson inversion of the uniforms ``u`` by the element-wise loop that
    the package ran before its CDF-table search; the oracle for that search."""
    size = u.size
    counts = np.zeros(size, dtype=np.int64)
    if lam == 0.0:
        return counts
    prob = np.full(size, math.exp(-lam))
    cum = prob.copy()
    # u < 1 guarantees termination; cap guards fp stagnation.
    cap = int(lam + 40.0 * math.sqrt(lam) + 60.0)
    for _ in range(cap):
        active = u > cum
        if not active.any():
            break
        counts[active] += 1
        prob[active] *= lam / counts[active]
        cum[active] += prob[active]
    return counts


def counter_poisson(rng, lam: float, size: int) -> np.ndarray:
    """``size`` Poisson counts at rate ``lam`` from the generator ``rng`` by
    CDF inversion, one uniform per count; the rate is checked before any
    draw.  The sampler's draw, outside its block structure."""
    from gmmle.rng import poisson_cdf, poisson_invert

    table = poisson_cdf(lam)
    return poisson_invert(table, rng.random(size))
