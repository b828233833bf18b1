import math
import warnings

import numpy as np
import pytest

from gmmle import mixture
from gmmle.mixture import (
    GmmModel,
    bic,
    fit_gmm,
    fit_kmeans,
    log_responsibilities,
    select_k,
)
from gmmle.rng import CounterRng


def assert_same_model(a, b):
    """The two fits' arrays byte for byte and their scalars equal."""
    for name in ("weights", "means", "covariances"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.shape, x.tobytes()) == (y.shape, y.tobytes()), name
    assert (a.log_likelihood, a.converged, a.n_iterations) == (
        b.log_likelihood, b.converged, b.n_iterations
    )


def same_partition(a, b) -> bool:
    """True when two labelings induce the same partition (bijective map)."""
    a = np.asarray(a)
    b = np.asarray(b)
    forward = {}
    backward = {}
    for x, y in zip(a, b):
        if forward.setdefault(x, y) != y:
            return False
        if backward.setdefault(y, x) != x:
            return False
    return True


def four_blobs(seed=0, per_blob=50, sep=10.0):
    rng = CounterRng(seed)
    centers = np.array([[0.0, 0.0], [sep, 0.0], [0.0, sep], [sep, sep]])
    points = np.vstack(
        [c + rng.normal((per_blob, 2)) for c in centers]
    )
    truth = np.repeat(np.arange(4), per_blob)
    return points, truth


class TestKmeans:
    def test_two_points_two_clusters(self):
        result = fit_kmeans(np.array([[0.0, 0.0], [1.0, 1.0]]), 2, seed=0)
        assert result.inertia == 0.0
        assert sorted(result.labels.labels.tolist()) == [0, 1]
        assert sorted(map(tuple, result.centroids.tolist())) == [(0.0, 0.0), (1.0, 1.0)]

    def test_single_cluster_centroid_is_mean(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
        result = fit_kmeans(pts, 1, seed=1)
        assert np.allclose(result.centroids[0], pts.mean(axis=0))
        expected = ((pts - pts.mean(axis=0)) ** 2).sum()
        assert result.inertia == pytest.approx(expected)

    def test_recovers_separated_blobs(self):
        points, truth = four_blobs(seed=3)
        result = fit_kmeans(points, 4, seed=5)
        assert same_partition(result.labels.labels, truth)

    def test_deterministic(self):
        points, _ = four_blobs(seed=7)
        a = fit_kmeans(points, 4, seed=9)
        b = fit_kmeans(points, 4, seed=9)
        assert np.array_equal(a.labels.labels, b.labels.labels)
        assert np.array_equal(a.centroids, b.centroids)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            fit_kmeans(np.zeros((3, 2)), 4)

    @pytest.mark.parametrize("points, k", [
        ([[0.0, 0.0]] * 4 + [[5.0, 5.0]], 4),  # K above the distinct points
        ([[0.0, 0.0]] * 4 + [[5.0, 5.0]], 5),
        ([[0.0]] * 3 + [[1.0]] * 3 + [[9.0]], 6),
    ])
    def test_emptied_clusters_reseeded_at_distinct_points(self, points, k):
        """Several clusters empty at once each take a point of their own,
        and never the last member of another cluster."""
        for seed in range(10):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = fit_kmeans(np.array(points), k, seed=seed)
            assert np.isfinite(result.centroids).all()
            assert np.bincount(result.labels.labels, minlength=k).min() >= 1


def two_point_masses(seed=11, per_side=50, jitter=1e-3):
    rng = CounterRng(seed)
    left = rng.normal(per_side) * jitter
    right = 10.0 + rng.normal(per_side) * jitter
    return np.concatenate([left, right])[:, None]


def two_blobs(seed=11, per_blob=100, sep=6.0):
    """Two unit-variance 2-D blobs; the canonical model-selection fixture."""
    rng = CounterRng(seed)
    a = rng.normal((per_blob, 2))
    b = rng.normal((per_blob, 2)) + [sep, 0.0]
    return np.vstack([a, b])


class TestGmm:
    def test_k1_matches_closed_form(self, monkeypatch):
        rng = CounterRng(13)
        points = rng.normal((120, 3)) * np.array([1.0, 2.0, 0.5]) + 4.0
        monkeypatch.setattr(mixture, "_N_INIT", 1)
        model, labels = fit_gmm(points, 1, seed=0)
        n, d = points.shape
        mean = points.mean(axis=0)
        centered = points - mean
        cov = centered.T @ centered / n
        cov_r = cov + (mixture._RIDGE * np.trace(cov) / d) * np.eye(d)
        sign, logdet = np.linalg.slogdet(cov_r)
        maha = np.einsum("ij,jk,ik->i", centered, np.linalg.inv(cov_r), centered)
        expected = -0.5 * (n * d * math.log(2 * math.pi) + n * logdet + maha.sum())
        assert model.log_likelihood == pytest.approx(expected, abs=1e-8 * abs(expected))
        assert np.allclose(model.means[0], mean)
        assert np.allclose(model.covariances[0], cov_r)
        assert labels.n_clusters == 1

    def test_two_point_masses(self):
        points = two_point_masses()
        model, labels = fit_gmm(points, 2, seed=3)
        means = np.sort(model.means.ravel())
        assert abs(means[0] - 0.0) < 1e-2
        assert abs(means[1] - 10.0) < 1e-2
        assert np.allclose(np.sort(model.weights), [0.5, 0.5], atol=1e-6)
        log_resp, _ = log_responsibilities(
            points, model.weights, model.means, model.covariances
        )
        assert np.exp(log_resp).max(axis=1).min() > 0.999
        truth = np.repeat([0, 1], 50)
        assert same_partition(labels.labels, truth)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loglik_history_non_decreasing(self, seed):
        rng = CounterRng(seed)
        points = np.vstack(
            [rng.normal((40, 2)), rng.normal((40, 2)) + [3.0, 1.0]]
        )
        model, _ = fit_gmm(points, 3, seed=seed)
        history = np.array(model.log_likelihood_history)
        assert (np.diff(history) >= -1e-9).all()

    def test_row_permutation_preserves_fit_quality(self):
        points, _ = four_blobs(seed=17, per_blob=30)
        perm = CounterRng(19).permutation(points.shape[0])
        base_model, base_labels = fit_gmm(points, 4, seed=21)
        perm_model, perm_labels = fit_gmm(points[perm], 4, seed=21)
        assert perm_model.log_likelihood == pytest.approx(
            base_model.log_likelihood, abs=1e-9 * abs(base_model.log_likelihood)
        )
        assert same_partition(base_labels.labels[perm], perm_labels.labels)

    def test_labels_never_reference_empty_clusters(self):
        points = two_point_masses(seed=23)
        for k in (1, 2, 3):
            _, labels = fit_gmm(points, k, seed=1)
            assert np.unique(labels.labels).size == labels.n_clusters

    def test_estep_equals_kmeans_under_equal_isotropic_covariances(self):
        rng = CounterRng(29)
        points = rng.normal((60, 2)) * 2.0
        centroids = rng.normal((3, 2)) * 2.0
        covs = np.array([np.eye(2) * 0.7] * 3)
        log_resp, _ = log_responsibilities(
            points, np.full(3, 1 / 3), centroids, covs
        )
        gmm_assign = log_resp.argmax(axis=1)
        dist = ((points[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assert np.array_equal(gmm_assign, dist.argmin(axis=1))

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            fit_gmm(np.zeros((3, 1)) + np.arange(3)[:, None], 4)


def reference_fit_gmm_once(points, n_components, seed):
    """The EM loop as it stood before its last E-step was reused: every fit,
    converged or capped, ends with a fresh E-step after the loop."""
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
        covariances[k] = mixture._regularized_covariance(
            centered.T @ centered / member.shape[0], overall_scale
        )
    history = []
    converged = False
    for _ in range(mixture._EM_MAX_ITER):
        log_resp, point_log_density = log_responsibilities(points, weights, means, covariances)
        log_likelihood = float(point_log_density.sum())
        if history and abs(log_likelihood - history[-1]) <= mixture._EM_REL_TOL * max(
            1.0, abs(log_likelihood)
        ):
            history.append(log_likelihood)
            converged = True
            break
        history.append(log_likelihood)
        resp = np.exp(log_resp)
        bulk = np.maximum(resp.sum(axis=0), 10.0 * np.finfo(float).eps)
        weights = bulk / n
        means = (resp.T @ points) / bulk[:, None]
        for k in range(n_components):
            centered = points - means[k]
            cov = (resp[:, k] * centered.T) @ centered / bulk[k]
            covariances[k] = mixture._regularized_covariance(cov, overall_scale)
    log_resp, point_log_density = log_responsibilities(points, weights, means, covariances)
    model = GmmModel(
        weights=weights,
        means=means,
        covariances=covariances,
        log_likelihood=float(point_log_density.sum()),
        n_iterations=len(history),
        converged=converged,
        log_likelihood_history=tuple(history),
    )
    return model, log_resp.argmax(axis=1)


def assert_same_fit(got, want):
    (model, labels), (ref_model, ref_labels) = got, want
    for name in GmmModel.__dataclass_fields__:
        a, b = getattr(model, name), getattr(ref_model, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert type(a) is type(b) and a == b, name
    assert np.array_equal(labels, ref_labels)


class TestEmFinalEstep:
    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_converged_fit_matches_reference_bit_for_bit(self, k):
        points, _ = four_blobs(seed=k, per_blob=40)
        got = mixture._fit_gmm_once(points, k, 11)
        assert got[0].converged
        assert_same_fit(got, reference_fit_gmm_once(points, k, 11))

    @pytest.mark.parametrize("cap", [1, 3])
    def test_capped_fit_matches_reference_bit_for_bit(self, cap, monkeypatch):
        monkeypatch.setattr(mixture, "_EM_MAX_ITER", cap)
        points, _ = four_blobs(seed=5, per_blob=40)
        got = mixture._fit_gmm_once(points, 5, 2)
        assert not got[0].converged and got[0].n_iterations == cap
        assert_same_fit(got, reference_fit_gmm_once(points, 5, 2))

    @pytest.mark.parametrize("cap", [None, 3])
    def test_estep_count(self, cap, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(1)
            return log_responsibilities(*args)

        monkeypatch.setattr(mixture, "log_responsibilities", spy)
        if cap is not None:
            monkeypatch.setattr(mixture, "_EM_MAX_ITER", cap)
        points, _ = four_blobs(seed=5, per_blob=40)
        model, _ = mixture._fit_gmm_once(points, 5, 2)
        assert model.converged == (cap is None)
        # a capped fit needs one E-step on the parameters of its last M-step
        assert len(calls) == model.n_iterations + (0 if model.converged else 1)


def test_fit_gmm_warns_when_its_fit_stopped_at_the_cap(monkeypatch):
    points, _ = four_blobs(seed=5, per_blob=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fit_gmm(points, 4, seed=2)[0].converged
    monkeypatch.setattr(mixture, "_EM_MAX_ITER", 1)
    with pytest.warns(UserWarning) as caught:
        model, _ = fit_gmm(points, 4, seed=2)
    assert not model.converged
    assert [str(w.message) for w in caught] == [
        "EM fit at K=4 did not converge within 1 iterations; "
        "the mixture is returned as the cap left it"
    ]


def scipy_log_responsibilities(points, weights, means, covariances):
    """The E-step on scipy's triangular solve and log-sum-exp, the kernel
    ``log_responsibilities`` replaced."""
    from scipy.linalg import solve_triangular
    from scipy.special import logsumexp

    points = mixture._as_points(points)
    n, d = points.shape
    log_prob = np.empty((n, len(weights)))
    for k in range(len(weights)):
        chol = np.linalg.cholesky(covariances[k])
        solved = solve_triangular(chol, (points - means[k]).T, lower=True)
        log_det = 2.0 * np.log(np.diag(chol)).sum()
        log_prob[:, k] = -0.5 * (d * math.log(2.0 * math.pi) + log_det
                                 + (solved * solved).sum(axis=0))
    weighted = log_prob + np.log(weights)
    point_log_density = logsumexp(weighted, axis=1)
    return weighted - point_log_density[:, None], point_log_density


def random_gaussian_parts(d):
    """400 points and a random 3-component mixture in d dimensions."""
    rng = CounterRng(d)
    points = rng.normal((400, d)) * 3.0
    means = rng.normal((3, d)) * 3.0
    factors = rng.normal((3, d, d))
    covariances = factors @ factors.transpose(0, 2, 1) + 0.5 * np.eye(d)
    weights = rng.random(3) + 0.5
    return points, weights / weights.sum(), means, covariances


class TestNumpyEstep:
    # scipy warns of the overflow in its shifted sum on the +-1e308 row
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_row_logsumexp_bit_equals_scipy(self):
        from scipy.special import logsumexp

        inf, nan = np.inf, np.nan
        special = np.array([
            [0.0, 0.0, 0.0],
            [1.5, 1.5, -2.0],
            [-3.0, 7.25, 7.25],
            [-inf, -inf, -inf],
            [-inf, 0.3, -1.0],
            [-inf, 2.0, 2.0],
            [inf, 1.0, 2.0],
            [inf, inf, 0.0],
            [inf, -inf, 0.0],
            [nan, 1.0, 2.0],
            [nan, -inf, inf],
            [-750.0, -751.0, -760.0],
            [710.0, 709.0, 0.0],
            [1e308, 1e308, -1e308],
        ])
        rng = CounterRng(41)
        batches = [special]
        for k in range(1, 9):
            rows = rng.normal((60, k)) * 40.0
            rows[::3, :] = rows[::3, :1]  # whole-row ties
            rows[1::3, k // 2:] = rows[1::3, :1]  # partial ties
            batches.append(rows)
        for a in batches:
            got = mixture._row_logsumexp(a)
            assert np.array_equal(got, logsumexp(a, axis=1), equal_nan=True)

    @pytest.mark.parametrize("d", [1, 4, 16])
    def test_forward_substitution_matches_solve_triangular(self, d):
        from scipy.linalg import solve_triangular

        points, _, means, covariances = random_gaussian_parts(d)
        chol = np.linalg.cholesky(covariances[0])
        rhs = (points - means[0]).T
        want = solve_triangular(chol, rhs, lower=True)
        # a backward-stable solve errs relative to the solution's scale
        np.testing.assert_allclose(
            mixture._forward_substitution(chol, rhs), want,
            rtol=1e-12, atol=1e-12 * np.abs(want).max(),
        )

    @pytest.mark.parametrize("d", [1, 4, 16])
    def test_log_densities_match_scipy_kernel(self, d):
        parts = random_gaussian_parts(d)
        log_resp, density = log_responsibilities(*parts)
        want_resp, want_density = scipy_log_responsibilities(*parts)
        np.testing.assert_allclose(density, want_density, rtol=1e-12)
        np.testing.assert_allclose(
            log_resp, want_resp, rtol=1e-12, atol=1e-12 * np.abs(want_density).max()
        )

    @pytest.mark.parametrize("points, k", [
        (four_blobs(seed=3)[0], 4), (two_point_masses(), 2),
    ], ids=["four_blobs", "two_point_masses"])
    def test_fit_labels_equal_scipy_kernel(self, points, k, monkeypatch):
        model, labels = fit_gmm(points, k, seed=3)
        monkeypatch.setattr(mixture, "log_responsibilities", scipy_log_responsibilities)
        ref_model, ref_labels = fit_gmm(points, k, seed=3)
        assert np.array_equal(labels.labels, ref_labels.labels)
        assert model.log_likelihood == pytest.approx(ref_model.log_likelihood, rel=1e-12)


class TestEmptyComponents:
    def test_dropped_components_renumbered_in_ascending_order(self, monkeypatch):
        points, _ = four_blobs(seed=1, per_blob=10)
        raw = np.array([3, 0, 3, 5, 0] * 8)  # components 1, 2 and 4 of 6 are empty

        def fit_without_components(points, n_components, seed):
            model, _ = reference_fit_gmm_once(points, n_components, seed)
            return model, raw

        monkeypatch.setattr(mixture, "_fit_gmm_once", fit_without_components)
        monkeypatch.setattr(mixture, "_N_INIT", 2)
        with pytest.warns(UserWarning, match="3 empty mixture component"):
            model, labels = fit_gmm(points, 6, seed=0)
        assert model.n_components == 6
        assert labels.n_clusters == 3
        assert labels.labels.dtype == np.int64
        assert labels.labels.tolist() == [1, 0, 1, 2, 0] * 8


class TestBic:
    def make_model(self, k, d, loglik):
        return GmmModel(
            weights=np.full(k, 1 / k),
            means=np.zeros((k, d)),
            covariances=np.array([np.eye(d)] * k),
            log_likelihood=loglik,
            n_iterations=1,
            converged=True,
        )

    def test_parameter_count_d2_k3(self):
        model = self.make_model(3, 2, -100.0)
        # q = (3-1) + 3*2 + 3*3 = 17
        assert bic(model, 50) == pytest.approx(17 * math.log(50) + 200.0)

    def test_parameter_count_k1_d1(self):
        # q = (1-1) + 1*1 + 1*1 = 2
        model = self.make_model(1, 1, -10.0)
        assert bic(model, 20) == pytest.approx(2 * math.log(20) + 20.0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            bic(self.make_model(1, 1, 0.0), 1)

    def test_two_blobs_prefer_k2_over_k1(self):
        points = two_blobs(seed=31)
        m1, _ = fit_gmm(points, 1, seed=0)
        m2, _ = fit_gmm(points, 2, seed=0)
        assert bic(m2, len(points)) < bic(m1, len(points))


class TestSelectK:
    def test_bic_picks_two_blobs(self):
        points = two_blobs(seed=37)
        selection = select_k(points, range(1, 5), seed=0)
        assert selection.n_clusters == 2
        assert [row.n_clusters for row in selection.diagnostics] == [1, 2, 3, 4]
        # the returned winner is the fit a caller would get by refitting
        model, labels = fit_gmm(points, 2, seed=0)
        assert_same_model(selection.model, model)
        assert np.array_equal(selection.labels.labels, labels.labels)
        assert selection.labels.n_clusters == labels.n_clusters

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            select_k(np.zeros((5, 1)) + np.arange(5)[:, None], [])

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_one_k_is_exactly_fit_gmm(self, k):
        """The pipeline fits every mixture through select_k, a fixed K as a
        one-value range; at K = 8 the fit leaves two components empty."""
        # Ten points on each of six integer sites, the origin's first, so no
        # last bit decides the K = 8 fit on any CPU: k-means is exact and puts
        # both spare centers on origin points; every mean stays on its site,
        # every covariance is the same ridge, and the spares lose each origin
        # point to the origin's main component by a weight ratio of 8.
        sites = np.array([[0, 0], [0, 1], [3, 0], [3, 1], [6, 0], [6, 1]], dtype=float)
        coords = np.repeat(sites, 10, axis=0)
        with warnings.catch_warnings(record=True) as direct_warnings:
            warnings.simplefilter("always")
            model, labels = fit_gmm(coords, k, seed=4)
        with warnings.catch_warnings(record=True) as selected_warnings:
            warnings.simplefilter("always")
            selection = select_k(coords, (k,), seed=4)
        messages = [str(w.message) for w in direct_warnings]
        assert messages == [str(w.message) for w in selected_warnings]
        assert messages == (["2 empty mixture component(s) dropped from the labeling"]
                            if k == 8 else [])
        assert selection.n_clusters == k
        assert_same_model(selection.model, model)
        assert selection.labels.labels.tobytes() == labels.labels.tobytes()
        assert selection.labels.n_clusters == labels.n_clusters
        (row,) = selection.diagnostics
        assert row.n_clusters == k
        assert row.log_likelihood == model.log_likelihood
        assert row.bic == bic(model, coords.shape[0])

