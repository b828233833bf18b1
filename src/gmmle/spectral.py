"""Degree-normalized spectral embedding of the bipartite count graph.

The count matrix is rescaled to L with L[i, j] = X[i, j] / sqrt(D_i * D_j)
(row and column degree products), whose leading right singular vectors give
each cell a low-dimensional coordinate.  The embedding dimension follows an
energy rule: components are kept while their squared singular value is at
least a configured fraction of the total squared Frobenius norm, which is
known exactly from the stored entries without a full decomposition.

The solver is randomized block subspace iteration with full
reorthogonalization: deterministic for a fixed seed, residual-checked
against ``||L v - sigma u||``, with a dense-SVD oracle covering it in the
test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core_matrix import CountMatrix, _row_blocks, degrees
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


@dataclass(frozen=True)
class NormalizedLaplacian:
    """Rescaled count matrix: symmetric degree normalization, row-stochastic,
    or none (adjacency-space embedding).  ``frobenius_sq`` is the sum of
    squared stored entries.

    ``matrix`` holds its own float64 data but shares its ``indices`` and
    ``indptr`` arrays with the count matrix it was made from, so it must
    not be mutated: a change to its structure would change that count
    matrix too.
    """

    matrix: sp.csr_matrix
    frobenius_sq: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def _require_positive_degrees(counts: CountMatrix) -> tuple[np.ndarray, np.ndarray]:
    deg = degrees(counts)
    if (deg.row_degrees == 0).any():
        idx = int(np.argmax(deg.row_degrees == 0))
        raise ZeroDegreeError(
            f"feature {counts.feature_ids[idx]!r} has zero total count"
        )
    if (deg.col_degrees == 0).any():
        idx = int(np.argmax(deg.col_degrees == 0))
        raise ZeroDegreeError(f"cell {counts.cell_ids[idx]!r} has zero total count")
    return deg.row_degrees.astype(np.float64), deg.col_degrees.astype(np.float64)


def _rescaled(counts: CountMatrix, row_scale, col_scale) -> NormalizedLaplacian:
    """X[i, j] * row_scale[i] * col_scale[j]: a float64 copy of the canonical
    CSR's data, scaled one row block at a time, over the CSR's own index
    arrays.  A scale of ones is exact, since x * 1.0 == x."""
    csr = counts.csr()
    data = np.empty(csr.nnz)
    for first, stop, lo, hi in _row_blocks(csr.indptr):
        block = data[lo:hi]
        block[:] = csr.data[lo:hi]
        block *= np.repeat(row_scale[first:stop], np.diff(csr.indptr[first:stop + 1]))
        block *= col_scale[csr.indices[lo:hi]]
    matrix = sp.csr_matrix((data, csr.indices, csr.indptr), shape=csr.shape)
    return NormalizedLaplacian(matrix, float(np.sum(data * data)))


def normalized_laplacian(counts: CountMatrix) -> NormalizedLaplacian:
    """L[i, j] = X[i, j] / sqrt(D_i * D_j); requires positive degrees."""
    row_deg, col_deg = _require_positive_degrees(counts)
    return _rescaled(counts, 1.0 / np.sqrt(row_deg), 1.0 / np.sqrt(col_deg))


def random_walk_laplacian(counts: CountMatrix) -> NormalizedLaplacian:
    """Row-stochastic rescaling X[i, j] / D_i."""
    row_deg, col_deg = _require_positive_degrees(counts)
    return _rescaled(counts, 1.0 / row_deg, np.ones_like(col_deg))


def adjacency_embedding_matrix(counts: CountMatrix) -> NormalizedLaplacian:
    """The raw counts as a float matrix, for adjacency-space embedding."""
    row_deg, col_deg = _require_positive_degrees(counts)
    return _rescaled(counts, np.ones_like(row_deg), np.ones_like(col_deg))


def _orient_signs(u: np.ndarray, v: np.ndarray) -> None:
    """Flip each singular pair so the right vector's largest-magnitude entry
    is positive (first index wins ties); in place."""
    for i in range(v.shape[1]):
        idx = int(np.argmax(np.abs(v[:, i])))
        if v[idx, i] < 0:
            v[:, i] = -v[:, i]
            u[:, i] = -u[:, i]


def _subspace_svd(matrix, n_components, seed, max_iter, accept):
    """Randomized block subspace iteration for the top singular triplets.

    Returns (u, sigma, v, residuals, n_iterations) where residuals[i] is
    ``||A v_i - sigma_i u_i||``.  ``accept(sigma, residuals)`` decides
    convergence; on cap overrun the caller receives the best iterate seen.
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
        if accept(s, res_norms):
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
    laplacian: NormalizedLaplacian,
    k: int,
    tol: float = _SVD_TOL,
    seed: int = 0,
    max_iter: int = _MAX_ITER,
):
    """Top-k singular triplets of the rescaled matrix.

    Returns (left, values, right) with orthonormal columns; every residual
    ``||L v_i - sigma_i u_i||`` is at most tol * sigma_1.  Deterministic for
    a fixed seed.
    """
    p, n = laplacian.shape
    if not (1 <= k <= min(p, n)):
        raise ValueError(f"k={k} outside [1, {min(p, n)}]")

    def accept(sigma, residuals):
        top = sigma[0]
        if top <= 0.0:
            return True
        return bool(np.all(residuals <= tol * top))

    u, s, v, _, _ = _subspace_svd(laplacian.matrix, k, seed, max_iter, accept)
    _orient_signs(u, v)
    return u, s, v


@dataclass(frozen=True)
class EmbedPolicy:
    energy_threshold: float = 0.01
    drop_first: bool = True
    scaling_mode: str = "sqrt"  # none | sqrt | linear
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.energy_threshold < 1.0):
            raise ValueError("energy_threshold must lie in (0, 1)")
        if self.scaling_mode not in ("none", "sqrt", "linear"):
            raise ValueError(f"unknown scaling_mode {self.scaling_mode!r}")


@dataclass(frozen=True)
class Embedding:
    """Cell coordinates in the leading singular subspace."""

    coords: np.ndarray  # n x d
    singular_values: np.ndarray  # length d, non-increasing
    component_shares: np.ndarray  # length d, each >= the policy threshold
    dropped_first: bool
    scaling_mode: str
    leading_singular_value: float | None = None  # recorded when dropped
    leading_share: float | None = None

    @property
    def dimension(self) -> int:
        return self.coords.shape[1]


def embed(laplacian: NormalizedLaplacian, policy: EmbedPolicy | None = None) -> Embedding:
    """Energy-rule embedding of cells.

    A component's share is sigma_i^2 / ||L||_F^2.  The component count
    grows (16, 32, ...) until the smallest computed share falls below the
    threshold; components at or above the threshold are retained.  When
    ``drop_first`` is set the leading component (the degree direction of a
    connected graph, carrying no cluster signal) is excluded from the
    coordinates but recorded.
    """
    policy = policy or EmbedPolicy()
    p, n = laplacian.shape
    rank_cap = min(p, n)
    frob_sq = laplacian.frobenius_sq
    if frob_sq <= 0.0:
        raise ValueError("matrix has no entries")
    threshold = policy.energy_threshold

    def accept(sigma, residuals):
        top = sigma[0]
        if top <= 0.0:
            return True
        tight = residuals <= _SVD_TOL * top
        upper = (sigma + residuals) ** 2 / frob_sq
        # components that are provably below threshold need no further
        # refinement; everything else must meet the residual tolerance
        return bool(np.all(tight | (upper < threshold)))

    m = min(_START_COMPONENTS, rank_cap)
    while True:
        u, sigma, v, _, _ = _subspace_svd(
            laplacian.matrix, m, policy.seed, _MAX_ITER, accept
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
    if policy.scaling_mode == "sqrt":
        coords = v[:, kept] * np.sqrt(values)
    elif policy.scaling_mode == "linear":
        coords = v[:, kept] * values
    else:
        coords = v[:, kept].copy()

    return Embedding(
        coords=coords,
        singular_values=values,
        component_shares=shares[kept],
        dropped_first=policy.drop_first,
        scaling_mode=policy.scaling_mode,
        leading_singular_value=float(sigma[0]) if policy.drop_first else None,
        leading_share=float(shares[0]) if policy.drop_first else None,
    )


def embedding_to_tsv(embedding: Embedding, cell_ids) -> str:
    d = embedding.dimension
    header = "cell_id\t" + "\t".join(f"y{i + 1}" for i in range(d))
    lines = [header]
    for cid, row in zip(cell_ids, embedding.coords):
        lines.append(cid + "\t" + "\t".join(f"{x:.12g}" for x in row))
    return "\n".join(lines) + "\n"


def embedding_sidecar_json(embedding: Embedding) -> str:
    payload = {
        "dimension": embedding.dimension,
        "scaling_mode": embedding.scaling_mode,
        "dropped_first": embedding.dropped_first,
        "leading_singular_value": embedding.leading_singular_value,
        "leading_share": embedding.leading_share,
        "singular_values": [float(s) for s in embedding.singular_values],
        "component_shares": [float(s) for s in embedding.component_shares],
    }
    return json.dumps(payload, indent=2)
