"""Overdispersion scoring and top-k feature selection.

Each feature gets the score log(V)/log(m) from its per-cell count mean m
and population variance V (zeros included).  Under pure technical noise a
count is roughly Poisson (V close to m, score close to 1); real biological
variability inflates V above m and pushes the score up, so ranking by the
score surfaces the most informative features.  The ratio is independent of
the logarithm base.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core_matrix import CountMatrix

# Features whose mean is this close to 1 have log(m) ~ 0 and the ratio is
# numerically meaningless; they are ranked last, as are features with m < 1
# (a negative denominator would invert the ordering and promote near-silent
# features).
MEAN_ONE_GUARD = 1e-6


@dataclass(frozen=True)
class FeatureScore:
    mean: float
    variance: float
    score: float  # -inf marks "ranked last"
    phi_hat: float  # method-of-moments overdispersion (V - m)/m^2, informational


def dispersion_scores(counts: CountMatrix) -> list[FeatureScore]:
    """Score every feature; requires at least two cells."""
    n = counts.n_cells
    if n < 2:
        raise ValueError("dispersion scores need at least 2 cells")
    csr = counts.csr()
    # one float64 copy of the counts, sharing the CSR's index arrays; a
    # matrix-vector product sums each row's entries in order, as a
    # per-entry bincount would
    values = sp.csr_matrix((csr.data.astype(np.float64), csr.indices, csr.indptr), shape=csr.shape)
    ones = np.ones(n)
    sums = values @ ones
    np.square(values.data, out=values.data)
    sq_sums = values @ ones
    # For a constant feature both terms are exactly representable and cancel
    # to 0.0; the clamp only absorbs rounding dust from genuine variation.
    means = sums / n
    variances = np.maximum(sq_sums / n - means * means, 0.0)

    scores = np.full(counts.n_features, -np.inf)
    usable = (variances > 0.0) & (means > 1.0 + MEAN_ONE_GUARD)
    scores[usable] = np.log(variances[usable]) / np.log(means[usable])

    phi = np.full(counts.n_features, math.nan)
    positive = means > 0
    phi[positive] = (variances[positive] - means[positive]) / (means[positive] ** 2)

    return [
        FeatureScore(float(m), float(v), float(s), float(p))
        for m, v, s, p in zip(means, variances, scores, phi)
    ]


def select_top_k(scores: list[FeatureScore], k: int) -> np.ndarray:
    """Mask of the k best-scoring features; ties broken by lower index.

    Features with the -inf sentinel are never selected; if fewer than k
    features have finite scores, all finite ones are selected and a warning
    is emitted.  If none has a finite score, ValueError is raised.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    values = np.array([s.score for s in scores])
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
