"""Gaussian mixture and k-means clustering of embedded cells.

Points embedded from a blocky bipartite graph concentrate around their
block's coordinates with roughly Gaussian, generally anisotropic, scatter;
a full-covariance mixture fitted by EM captures that shape where plain
k-means assumes spheres.  K-means doubles as the EM initializer.  All
randomness is seeded through the package generator and every tie breaks to
the lowest index, so fits are exactly reproducible.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .rng import CounterRng


@dataclass(frozen=True)
class ClusterLabels:
    labels: np.ndarray
    n_clusters: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.size == 0:
            raise ValueError("empty labeling")
        if labels.min() < 0 or labels.max() >= self.n_clusters:
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class KmeansResult:
    labels: ClusterLabels
    centroids: np.ndarray
    inertia: float


# EM stops when the log-likelihood moves by at most _EM_REL_TOL * max(1, |logL|)
_EM_MAX_ITER = 500
_EM_REL_TOL = 1e-8
_KMEANS_MAX_ITER = 300


@dataclass(frozen=True)
class GmmConfig:
    ridge: float = 1e-6
    n_init: int = 5


@dataclass(frozen=True)
class GmmModel:
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray  # (K, d, d)
    log_likelihood: float
    n_iterations: int
    converged: bool
    log_likelihood_history: tuple[float, ...] = field(default=())

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dimension(self) -> int:
        return self.means.shape[1]


def _as_points(coords) -> np.ndarray:
    pts = np.asarray(coords, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
        raise ValueError("coordinates must be a non-empty n x d array")
    return pts


def _plus_plus_centers(points: np.ndarray, n_clusters: int, rng: CounterRng) -> np.ndarray:
    """k-means++ seeding: subsequent centers drawn with probability
    proportional to squared distance from the chosen set."""
    n = points.shape[0]
    centers = np.empty((n_clusters, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    dist_sq = ((points - centers[0]) ** 2).sum(axis=1)
    for t in range(1, n_clusters):
        total = dist_sq.sum()
        if total <= 0.0:
            # all remaining points coincide with a center; lowest index wins
            centers[t] = points[min(t, n - 1)]
            continue
        draw = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(dist_sq), draw, side="right"))
        idx = min(idx, n - 1)
        centers[t] = points[idx]
        dist_sq = np.minimum(dist_sq, ((points - centers[t]) ** 2).sum(axis=1))
    return centers


def _all_pairs_dist_sq(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return (diff * diff).sum(axis=2)


def fit_kmeans(coords, n_clusters: int, seed: int = 0) -> KmeansResult:
    """Lloyd iterations from a k-means++ start until the assignment is a
    fixed point; deterministic for a fixed seed."""
    points = _as_points(coords)
    n = points.shape[0]
    if n_clusters < 1 or n_clusters > n:
        raise ValueError(f"n_clusters={n_clusters} outside [1, {n}]")
    rng = CounterRng(seed)
    centers = _plus_plus_centers(points, n_clusters, rng)

    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(_KMEANS_MAX_ITER):
        dist_sq = _all_pairs_dist_sq(points, centers)
        new_labels = dist_sq.argmin(axis=1)  # ties to lowest index
        # re-seed any emptied cluster at the point farthest from its center
        for k in range(n_clusters):
            if not (new_labels == k).any():
                worst = int(dist_sq[np.arange(n), new_labels].argmax())
                centers[k] = points[worst]
                new_labels[worst] = k
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for k in range(n_clusters):
            centers[k] = points[labels == k].mean(axis=0)

    dist_sq = _all_pairs_dist_sq(points, centers)
    inertia = float(dist_sq[np.arange(n), labels].sum())
    return KmeansResult(ClusterLabels(labels, n_clusters), centers, inertia)


def _forward_substitution(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``chol @ out = rhs`` for lower-triangular ``chol`` (d x d) and
    ``rhs`` (d x n), one row of ``out`` per matrix-vector product."""
    out = np.empty(rhs.shape)
    for i in range(chol.shape[0]):
        out[i] = (rhs[i] - chol[i, :i] @ out[:i]) / chol[i, i]
    return out


def _row_logsumexp(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(a), axis=1))`` without overflow.

    The operations of ``scipy.special.logsumexp(a, axis=1)`` (scipy 1.17)
    in the same order, so the result is bit-equal: the entries equal to the
    row maximum are taken out of the shifted sum and counted instead, and a
    row whose result is not finite takes the naive formula.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=1, keepdims=True)
        at_max = a == a_max
        count = at_max.sum(axis=1, keepdims=True, dtype=a.dtype)
        rest = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
        rest = np.where(rest == 0, rest, rest / count)
        out = (np.log1p(rest) + np.log(count) + a_max)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


def log_responsibilities(points, weights, means, covariances):
    """Log posterior component probabilities and per-point log density.

    Returns (log_resp, point_log_density); stable log-sum-exp throughout.
    """
    points = _as_points(points)
    n, d = points.shape
    n_components = len(weights)
    log_prob = np.empty((n, n_components))
    for k in range(n_components):
        chol = np.linalg.cholesky(covariances[k])
        solved = _forward_substitution(chol, (points - means[k]).T)
        maha = (solved * solved).sum(axis=0)
        log_det = 2.0 * np.log(np.diag(chol)).sum()
        log_prob[:, k] = -0.5 * (d * math.log(2.0 * math.pi) + log_det + maha)
    weighted = log_prob + np.log(weights)
    point_log_density = _row_logsumexp(weighted)
    return weighted - point_log_density[:, None], point_log_density


def _regularized_covariance(cov: np.ndarray, ridge: float, fallback_scale: float) -> np.ndarray:
    d = cov.shape[0]
    scale = np.trace(cov) / d
    if scale <= 0.0:
        scale = fallback_scale
    return cov + (ridge * scale) * np.eye(d)


def _fit_gmm_once(points: np.ndarray, n_components: int, seed: int, cfg: GmmConfig):
    n, d = points.shape
    km = fit_kmeans(points, n_components, seed)
    overall_scale = float(np.trace(np.cov(points.T, bias=True).reshape(d, d)) / d) or 1.0

    weights = np.empty(n_components)
    means = np.empty((n_components, d))
    covariances = np.empty((n_components, d, d))
    for k in range(n_components):
        member = points[km.labels.labels == k]
        weights[k] = member.shape[0] / n
        means[k] = member.mean(axis=0)
        centered = member - means[k]
        covariances[k] = _regularized_covariance(
            centered.T @ centered / member.shape[0], cfg.ridge, overall_scale
        )

    history: list[float] = []
    converged = False
    for _ in range(_EM_MAX_ITER):
        log_resp, point_log_density = log_responsibilities(
            points, weights, means, covariances
        )
        log_likelihood = float(point_log_density.sum())
        tolerance = _EM_REL_TOL * max(1.0, abs(log_likelihood))
        converged = bool(history) and abs(log_likelihood - history[-1]) <= tolerance
        history.append(log_likelihood)
        if converged:
            break

        resp = np.exp(log_resp)
        bulk = resp.sum(axis=0)
        bulk = np.maximum(bulk, 10.0 * np.finfo(float).eps)
        weights = bulk / n
        means = (resp.T @ points) / bulk[:, None]
        for k in range(n_components):
            centered = points - means[k]
            cov = (resp[:, k] * centered.T) @ centered / bulk[k]
            covariances[k] = _regularized_covariance(cov, cfg.ridge, overall_scale)
    else:
        # stopped by the cap: the last M-step moved the parameters past the
        # loop's last E-step; a converged fit already holds its final E-step
        log_resp, point_log_density = log_responsibilities(points, weights, means, covariances)
    final_log_likelihood = float(point_log_density.sum())
    if not math.isfinite(final_log_likelihood):
        raise ValueError("non-finite likelihood; ridge configuration is degenerate")
    labels = log_resp.argmax(axis=1)
    model = GmmModel(
        weights=weights,
        means=means,
        covariances=covariances,
        log_likelihood=final_log_likelihood,
        n_iterations=len(history),
        converged=converged,
        log_likelihood_history=tuple(history),
    )
    return model, labels


def fit_gmm(
    coords,
    n_components: int,
    seed: int = 0,
    cfg: GmmConfig | None = None,
) -> tuple[GmmModel, ClusterLabels]:
    """Best-of-n_init full-covariance EM fit.

    Restart r uses seed + r for its k-means initialization; the fit with
    the highest final log-likelihood wins.  Empty clusters in the final
    hard assignment are dropped with a warning and labels are renumbered.
    """
    cfg = cfg or GmmConfig()
    points = _as_points(coords)
    n = points.shape[0]
    if n_components < 1 or n_components > n:
        raise ValueError(f"n_components={n_components} outside [1, {n}]")

    best: tuple[GmmModel, np.ndarray] | None = None
    for restart in range(cfg.n_init):
        model, labels = _fit_gmm_once(points, n_components, seed + restart, cfg)
        if best is None or model.log_likelihood > best[0].log_likelihood:
            best = (model, labels)
    model, labels = best

    present, labels = np.unique(labels, return_inverse=True)
    if present.size < n_components:
        warnings.warn(
            f"{n_components - present.size} empty mixture component(s) dropped "
            "from the labeling",
            stacklevel=2,
        )
    return model, ClusterLabels(labels, present.size)


def bic(model: GmmModel, n_samples: int) -> float:
    """ln(n) * q - 2 * logL with q the free parameter count; lower wins."""
    if n_samples < 2:
        raise ValueError("BIC needs at least 2 samples")
    k, d = model.n_components, model.dimension
    q = (k - 1) + k * d + k * d * (d + 1) // 2
    return math.log(n_samples) * q - 2.0 * model.log_likelihood


@dataclass(frozen=True)
class KDiagnostic:
    n_clusters: int
    log_likelihood: float
    bic: float


@dataclass(frozen=True)
class KSelection:
    n_clusters: int
    diagnostics: tuple[KDiagnostic, ...]
    model: GmmModel  # the fit at n_clusters
    labels: ClusterLabels


def select_k(
    coords,
    k_values,
    seed: int = 0,
    cfg: GmmConfig | None = None,
) -> KSelection:
    """Choose the component count as the argmin BIC over k_values (ties to
    the smaller K).

    A (K, logL, BIC) diagnostics row is returned for every fitted K,
    together with the chosen K's fitted model and labels.
    """
    points = _as_points(coords)
    n = points.shape[0]
    if not k_values:
        raise ValueError("bic selection needs a non-empty k range")

    diagnostics = []
    fits = {}
    for k in sorted(set(int(k) for k in k_values)):
        fits[k] = fit_gmm(points, k, seed=seed, cfg=cfg)
        model = fits[k][0]
        diagnostics.append(KDiagnostic(k, model.log_likelihood, bic(model, n)))

    best = min(diagnostics, key=lambda row: (row.bic, row.n_clusters))
    return KSelection(best.n_clusters, tuple(diagnostics), *fits[best.n_clusters])


def labels_to_tsv(cell_ids, labels: ClusterLabels) -> str:
    lines = ["cell_id\tcluster"]
    for cid, lab in zip(cell_ids, labels.labels):
        lines.append(f"{cid}\t{lab}")
    return "\n".join(lines) + "\n"


def model_to_json(model: GmmModel, n_samples: int | None = None) -> str:
    payload = {
        "n_components": model.n_components,
        "dimension": model.dimension,
        "weights": model.weights.tolist(),
        "means": model.means.tolist(),
        "covariances": model.covariances.tolist(),
        "log_likelihood": model.log_likelihood,
        "converged": model.converged,
        "n_iterations": model.n_iterations,
    }
    if n_samples is not None:
        payload["bic"] = bic(model, n_samples)
    return json.dumps(payload, indent=2)
