"""Degree-normalized spectral embedding of the bipartite count graph.

The count matrix is rescaled to L with L[i, j] = X[i, j] / sqrt(D_i * D_j)
(row and column degree products, the two arrays ``core_matrix.degrees``
returns), whose leading right singular vectors give each cell a
low-dimensional coordinate.  Each rescaling returns L as a plain
``scipy.sparse.csr_matrix`` that shares the count matrix's ``indices`` and
``indptr`` arrays, and ``embed`` and ``truncated_svd`` take that CSR.

The embedding dimension follows an energy rule: components are kept while
their squared singular value is at least a configured fraction of the total
squared Frobenius norm, which is known exactly from the stored entries
without a full decomposition.

The solver is randomized block subspace iteration with full
reorthogonalization: deterministic for a fixed seed, residual-checked
against ``||L v - sigma u||``, with a dense-SVD oracle covering it in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._checks import require_int
from .core_matrix import CountMatrix, degrees, entry_blocks
from .rng import CounterRng

_OVERSAMPLE = 10
# every residual must be within this fraction of the leading singular value
_SVD_TOL = 1e-10
_MAX_ITER = 1000
_START_COMPONENTS = 16


class ZeroDegreeError(ValueError):
    """A row or column has zero total count; message names the first id."""


class SvdConvergenceError(RuntimeError):
    """Iteration cap reached; best singular values/residuals attached."""

    def __init__(self, message, singular_values, residuals):
        super().__init__(message)
        self.singular_values = singular_values
        self.residuals = residuals


class EmbeddingDimensionError(ValueError):
    """No component cleared the energy threshold."""


def _require_positive_degrees(counts: CountMatrix) -> tuple[np.ndarray, np.ndarray]:
    row_deg, col_deg = degrees(counts)
    if (row_deg == 0).any():
        idx = int(np.argmax(row_deg == 0))
        raise ZeroDegreeError(
            f"feature {counts.feature_ids[idx]!r} has zero total count"
        )
    if (col_deg == 0).any():
        idx = int(np.argmax(col_deg == 0))
        raise ZeroDegreeError(f"cell {counts.cell_ids[idx]!r} has zero total count")
    return row_deg.astype(np.float64), col_deg.astype(np.float64)


def _rescaled(counts: CountMatrix, row_scale, col_scale) -> sp.csr_matrix:
    """X[i, j] * row_scale[i] * col_scale[j]: a float64 copy of the canonical
    CSR's data, scaled one entry block at a time, over the CSR's own index
    arrays.  A scale of ones is exact, since x * 1.0 == x."""
    csr = counts.csr()
    data = np.empty(csr.nnz)
    lo = 0
    for rows, cols, values in entry_blocks(counts):
        block = data[lo:lo + values.size]
        block[:] = values
        block *= row_scale[rows]
        block *= col_scale[cols]
        lo += values.size
    return sp.csr_matrix((data, csr.indices, csr.indptr), shape=csr.shape)


def normalized_laplacian(counts: CountMatrix) -> sp.csr_matrix:
    """L[i, j] = X[i, j] / sqrt(D_i * D_j); requires positive degrees.

    The result holds its own float64 data but shares its ``indices`` and
    ``indptr`` arrays with the count matrix's CSR, so it must not be
    mutated: a change to its structure would change the counts too.
    """
    row_deg, col_deg = _require_positive_degrees(counts)
    return _rescaled(counts, 1.0 / np.sqrt(row_deg), 1.0 / np.sqrt(col_deg))


def random_walk_laplacian(counts: CountMatrix) -> sp.csr_matrix:
    """Row-stochastic rescaling X[i, j] / D_i; shares the counts' index
    arrays and must not be mutated, as for ``normalized_laplacian``."""
    row_deg, col_deg = _require_positive_degrees(counts)
    return _rescaled(counts, 1.0 / row_deg, np.ones_like(col_deg))


def adjacency_embedding_matrix(counts: CountMatrix) -> sp.csr_matrix:
    """The raw counts as a float matrix, for adjacency-space embedding;
    shares the counts' index arrays, as for ``normalized_laplacian``."""
    row_deg, col_deg = _require_positive_degrees(counts)
    return _rescaled(counts, np.ones_like(row_deg), np.ones_like(col_deg))


def _require_finite(matrix) -> None:
    """ValueError naming the first non-finite stored entry of ``matrix``."""
    if not np.isfinite(matrix.data).all():
        coo = matrix.tocoo()
        bad = np.argmin(np.isfinite(coo.data))
        raise ValueError(f"matrix entry ({coo.row[bad]}, {coo.col[bad]}) is"
                         f" {coo.data[bad]}; every entry must be finite")


def _orient_signs(u: np.ndarray, v: np.ndarray) -> None:
    """Flip each singular pair so the right vector's largest-magnitude entry
    is positive (first index wins ties); in place."""
    for i in range(v.shape[1]):
        idx = int(np.argmax(np.abs(v[:, i])))
        if v[idx, i] < 0:
            v[:, i] = -v[:, i]
            u[:, i] = -u[:, i]


def _subspace_svd(matrix, n_components, seed, max_iter, tol, threshold=0.0, frob_sq=1.0):
    """Randomized block subspace iteration for the top singular triplets.

    Returns (u, sigma, v, residuals, n_iterations) where residuals[i] is
    ``||A v_i - sigma_i u_i||``.  It has converged once each residual is at
    most tol * sigma_1, or its component is provably below the share
    ``threshold``: (sigma_i + residual_i)^2 / frob_sq < threshold, so it
    needs no further refinement.  On cap overrun it raises
    SvdConvergenceError with the best iterate seen.
    """
    p, n = matrix.shape
    rank_cap = min(p, n)
    block = min(n_components + _OVERSAMPLE, rank_cap)
    rng = CounterRng(seed)
    omega = rng.normal((n, block))
    left, _ = np.linalg.qr(matrix @ omega)

    best = None
    for iteration in range(1, max_iter + 1):
        # n x block; its transpose is left.T @ matrix, and it spans the next right basis
        tall = matrix.T @ left
        w_small, sigma, vt = np.linalg.svd(tall.T, full_matrices=False)
        u = (left @ w_small)[:, :n_components]
        s = sigma[:n_components].copy()
        v = vt[:n_components].T.copy()
        residual = matrix @ v - u * s
        res_norms = np.linalg.norm(residual, axis=0)
        if best is None or res_norms.max() < best[3].max():
            best = (u, s, v, res_norms, iteration)
        tight = res_norms <= tol * s[0]
        if s[0] <= 0.0 or np.all(tight | ((s + res_norms) ** 2 / frob_sq < threshold)):
            return u, s, v, res_norms, iteration
        right, _ = np.linalg.qr(tall)
        left, _ = np.linalg.qr(matrix @ right)

    u, s, v, res_norms, _ = best
    raise SvdConvergenceError(
        f"subspace iteration did not converge in {max_iter} iterations "
        f"(worst residual {res_norms.max():.3e})",
        s,
        res_norms,
    )


def truncated_svd(
    matrix: sp.csr_matrix,
    k: int,
    tol: float = _SVD_TOL,
    seed: int = 0,
    max_iter: int = _MAX_ITER,
):
    """Top-k singular triplets of a rescaled matrix L, such as the CSR
    ``normalized_laplacian`` returns.

    Returns (left, values, right) with orthonormal columns; every residual
    ``||L v_i - sigma_i u_i||`` is at most tol * sigma_1.  Deterministic for
    a fixed seed.
    """
    require_int(k, "k")
    p, n = matrix.shape
    if not (1 <= k <= min(p, n)):
        raise ValueError(f"k={k} outside [1, {min(p, n)}]")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    _require_finite(matrix)
    u, s, v, _, _ = _subspace_svd(matrix, k, seed, max_iter, tol)
    _orient_signs(u, v)
    return u, s, v


@dataclass(frozen=True)
class EmbedPolicy:
    energy_threshold: float = 0.01
    drop_first: bool = True
    scaling: str = "sqrt"  # none | sqrt | linear
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.energy_threshold < 1.0):
            raise ValueError("energy_threshold must lie in (0, 1)")
        if self.scaling not in ("none", "sqrt", "linear"):
            raise ValueError(f"scaling must be none, sqrt or linear, got {self.scaling!r}")


@dataclass(frozen=True)
class Embedding:
    """Cell coordinates in the leading singular subspace."""

    coords: np.ndarray  # n x d
    singular_values: np.ndarray  # length d, non-increasing
    component_shares: np.ndarray  # length d, each >= the policy threshold
    dropped_first: bool
    scaling: str
    leading_singular_value: float | None = None  # recorded when dropped
    leading_share: float | None = None

    @property
    def dimension(self) -> int:
        return self.coords.shape[1]


def embed(matrix: sp.csr_matrix, policy: EmbedPolicy | None = None) -> Embedding:
    """Energy-rule embedding of cells from a rescaled matrix L, such as the
    CSR ``normalized_laplacian`` returns.

    A component's share is sigma_i^2 / ||L||_F^2, the norm summed exactly
    from the stored entries.  The component count grows (16, 32, ...)
    until the smallest computed share falls below the threshold;
    components at or above the threshold are retained.  When
    ``drop_first`` is set the leading component (the degree direction of a
    connected graph, carrying no cluster signal) is excluded from the
    coordinates but recorded.
    """
    policy = policy or EmbedPolicy()
    p, n = matrix.shape
    rank_cap = min(p, n)
    _require_finite(matrix)
    frob_sq = float(np.sum(matrix.data * matrix.data))
    if frob_sq <= 0.0:
        raise ValueError("matrix has no entries")
    threshold = policy.energy_threshold
    m = min(_START_COMPONENTS, rank_cap)
    while True:
        u, sigma, v, _, _ = _subspace_svd(
            matrix, m, policy.seed, _MAX_ITER, _SVD_TOL, threshold, frob_sq
        )
        shares = sigma**2 / frob_sq
        if shares[-1] < threshold or m == rank_cap:
            break
        m = min(2 * m, rank_cap)

    _orient_signs(u, v)
    retained = np.flatnonzero(shares >= threshold)
    kept = retained[1:] if policy.drop_first else retained
    if kept.size == 0:
        raise EmbeddingDimensionError(
            f"no components retained at threshold {threshold}"
            + (" after dropping the leading component" if policy.drop_first else "")
            + "; decrease energy_threshold"
        )

    values = sigma[kept]
    if policy.scaling == "sqrt":
        coords = v[:, kept] * np.sqrt(values)
    elif policy.scaling == "linear":
        coords = v[:, kept] * values
    else:
        coords = v[:, kept].copy()

    return Embedding(
        coords=coords,
        singular_values=values,
        component_shares=shares[kept],
        dropped_first=policy.drop_first,
        scaling=policy.scaling,
        leading_singular_value=float(sigma[0]) if policy.drop_first else None,
        leading_share=float(shares[0]) if policy.drop_first else None,
    )

