"""Overdispersion scoring and top-k feature selection.

Each feature gets the score log(V)/log(m) from its per-cell count mean m
and population variance V (zeros included).  Under pure technical noise a
count is roughly Poisson (V close to m, score close to 1); real biological
variability inflates V above m and pushes the score up, so ranking by the
score surfaces the most informative features.  The ratio is independent of
the logarithm base.  The scores are one record array, reduced over
``core_matrix.entry_blocks``; ``select_top_k`` takes it.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ._checks import require_int
from .core_matrix import CountMatrix, entry_blocks

# Features whose mean is this close to 1 have log(m) ~ 0 and the ratio is
# numerically meaningless; they are ranked last, as are features with m < 1
# (a negative denominator would invert the ordering and promote near-silent
# features).
MEAN_ONE_GUARD = 1e-6


def dispersion_scores(counts: CountMatrix) -> np.recarray:
    """Float64 fields ``m`` (the mean), ``variance``, ``score`` (-inf ranks
    last) and ``phi_hat`` per feature; requires at least two cells.  Every
    field reads as an attribute too (``scores.m``, a record's ``s.m``): a
    field named ``mean`` would not, as ndarray's ``mean`` method wins."""
    n = counts.n_cells
    if n < 2:
        raise ValueError("dispersion scores need at least 2 cells")
    p = counts.n_features
    sums = np.zeros(p)
    sq_sums = np.zeros(p)
    for rows, _, values in entry_blocks(counts):
        # a row's values added in entry order from 0.0, as a CSR
        # matrix-vector product adds them; rows are sorted, so the block's
        # sums cover only its own rows, first..stop-1
        first, stop = rows[0], rows[-1] + 1
        rows = rows - first
        values = values.astype(np.float64)
        sums[first:stop] += np.bincount(rows, values)
        np.square(values, out=values)
        sq_sums[first:stop] += np.bincount(rows, values)
    # For a constant feature both terms are exactly representable and cancel
    # to 0.0; the clamp only absorbs rounding dust from genuine variation.
    means = sums / n
    variances = np.maximum(sq_sums / n - means * means, 0.0)

    scores = np.full(p, -np.inf)
    usable = (variances > 0.0) & (means > 1.0 + MEAN_ONE_GUARD)
    scores[usable] = np.log(variances[usable]) / np.log(means[usable])

    # method-of-moments overdispersion (V - m)/m^2, informational
    phi = np.full(p, math.nan)
    positive = means > 0
    phi[positive] = (variances[positive] - means[positive]) / (means[positive] ** 2)

    return np.rec.fromarrays(
        [means, variances, scores, phi], names=["m", "variance", "score", "phi_hat"]
    )


def select_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k best-scoring features of a ``dispersion_scores``
    array (any array with a ``score`` field); ties broken by lower index.

    Features with the -inf sentinel are never selected; if fewer than k
    features have finite scores, all finite ones are selected and a warning
    is emitted.  If none has a finite score, ValueError is raised.
    """
    require_int(k, "k", low=1)
    values = np.asarray(scores["score"], dtype=np.float64)
    finite = np.isfinite(values)
    order = np.argsort(-values, kind="stable")  # stable: ties by lower index
    order = order[finite[order]]
    if order.size == 0:
        raise ValueError(
            f"none of {values.size} features has a finite score: features with"
            " mean <= 1 or zero variance score -inf; set features.enable = false"
            " to embed all features"
        )
    if order.size < k:
        warnings.warn(
            f"k={k} but only {order.size} features have finite scores; selecting all of them",
            stacklevel=2,
        )
        chosen = order
    else:
        chosen = order[:k]
    mask = np.zeros(values.size, dtype=bool)
    mask[chosen] = True
    return mask
