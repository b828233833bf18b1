import numpy as np
import pytest
import scipy.sparse as sp

from gmmle import core_matrix
from gmmle.core_matrix import CountMatrix, degrees
from gmmle.spectral import (
    EmbedPolicy,
    Embedding,
    EmbeddingDimensionError,
    NormalizedLaplacian,
    SvdConvergenceError,
    ZeroDegreeError,
    adjacency_embedding_matrix,
    embed,
    embedding_sidecar_json,
    embedding_to_tsv,
    normalized_laplacian,
    random_walk_laplacian,
    truncated_svd,
)
from test_mm_reader import block_counts, traced_peak


def random_counts(rng, p, n, low=1, high=6):
    """Dense positive counts: connected bipartite graph by construction."""
    return CountMatrix.from_dense(rng.integers(low, high, size=(p, n)))


class TestNormalizedLaplacian:
    def test_diagonal_counts_give_identity(self):
        lap = normalized_laplacian(CountMatrix.from_dense([[4, 0], [0, 9]]))
        assert np.allclose(lap.matrix.toarray(), np.eye(2))
        assert lap.frobenius_sq == pytest.approx(2.0)

    def test_uniform_counts_give_half(self):
        lap = normalized_laplacian(CountMatrix.from_dense([[1, 1], [1, 1]]))
        assert np.allclose(lap.matrix.toarray(), np.full((2, 2), 0.5))

    def test_global_scaling_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            cm = random_counts(rng, 5, 7)
            scaled = CountMatrix.from_dense(cm.to_dense() * 3)
            a = normalized_laplacian(cm).matrix.toarray()
            b = normalized_laplacian(scaled).matrix.toarray()
            assert np.abs(a - b).max() < 1e-12

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(1)
        lap = normalized_laplacian(random_counts(rng, 6, 9))
        assert lap.matrix.data.min() > 0.0
        assert lap.matrix.data.max() <= 1.0

    def test_zero_degree_feature_named(self):
        cm = CountMatrix.from_dense([[0, 0], [1, 2]], feature_ids=["dead", "live"])
        with pytest.raises(ZeroDegreeError, match="dead"):
            normalized_laplacian(cm)

    def test_zero_degree_cell_named(self):
        cm = CountMatrix.from_dense([[1, 0], [2, 0]], cell_ids=["a", "empty"])
        with pytest.raises(ZeroDegreeError, match="empty"):
            normalized_laplacian(cm)


class TestRandomWalkVariant:
    def test_uniform_rows(self):
        lap = random_walk_laplacian(CountMatrix.from_dense([[1, 1], [1, 1]]))
        assert np.allclose(lap.matrix.toarray(), np.full((2, 2), 0.5))

    def test_rows_are_stochastic(self):
        rng = np.random.default_rng(2)
        lap = random_walk_laplacian(random_counts(rng, 5, 8))
        assert np.allclose(np.asarray(lap.matrix.sum(axis=1)).ravel(), 1.0)

    def test_diagonal_gives_identity(self):
        lap = random_walk_laplacian(CountMatrix.from_dense([[4, 0], [0, 9]]))
        assert np.allclose(lap.matrix.toarray(), np.eye(2))


class TestTruncatedSvd:
    def test_identity_spectrum(self):
        lap = normalized_laplacian(CountMatrix.from_dense([[4, 0], [0, 9], ]))
        left, values, right = truncated_svd(lap, 2, seed=3)
        assert np.allclose(values, [1.0, 1.0])
        assert np.allclose(right.T @ right, np.eye(2), atol=1e-10)

    def test_dense_oracle_60x40(self):
        rng = np.random.default_rng(7)
        dense = rng.random((60, 40)) * (rng.random((60, 40)) < 0.3)
        lap = NormalizedLaplacian(sp.csr_matrix(dense), float((dense**2).sum()))
        left, values, right = truncated_svd(lap, 10, seed=11)
        oracle = np.linalg.svd(dense, compute_uv=False)[:10]
        assert np.abs(values - oracle).max() < 1e-8
        assert np.abs(right.T @ right - np.eye(10)).max() < 1e-8
        assert np.abs(left.T @ left - np.eye(10)).max() < 1e-8

    def test_connected_graph_leading_pair(self):
        rng = np.random.default_rng(5)
        cm = random_counts(rng, 6, 9)
        lap = normalized_laplacian(cm)
        left, values, right = truncated_svd(lap, 3, seed=1)
        assert values[0] == pytest.approx(1.0, abs=1e-8)
        col_deg = np.asarray(cm.csr().sum(axis=0)).ravel().astype(float)
        expected = np.sqrt(col_deg)
        expected /= np.linalg.norm(expected)
        assert abs(abs(right[:, 0] @ expected) - 1.0) < 1e-8
        assert values.max() <= 1.0 + 1e-8

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        lap = normalized_laplacian(random_counts(rng, 8, 12))
        a = truncated_svd(lap, 4, seed=21)
        b = truncated_svd(lap, 4, seed=21)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_k_out_of_range(self):
        lap = normalized_laplacian(CountMatrix.from_dense([[1, 1], [1, 1]]))
        with pytest.raises(ValueError):
            truncated_svd(lap, 0)
        with pytest.raises(ValueError):
            truncated_svd(lap, 3)

    def test_nonconvergence_carries_best_residuals(self):
        rng = np.random.default_rng(13)
        lap = normalized_laplacian(random_counts(rng, 10, 14))
        with pytest.raises(SvdConvergenceError) as err:
            truncated_svd(lap, 4, tol=1e-30, max_iter=3)
        assert err.value.singular_values.shape == (4,)
        assert err.value.residuals.shape == (4,)


def raw_container(dense):
    dense = np.asarray(dense, dtype=float)
    return NormalizedLaplacian(sp.csr_matrix(dense), float((dense**2).sum()))


class TestEmbed:
    def test_share_rule_on_known_spectrum(self):
        # singular values (1, 0.3, 0.05): total energy 1.0925, third share
        # 0.0025/1.0925 ~ 0.229% < 1% -> retain exactly two components
        rng = np.random.default_rng(17)
        u, _ = np.linalg.qr(rng.normal(size=(7, 3)))
        v, _ = np.linalg.qr(rng.normal(size=(5, 3)))
        dense = (u * np.array([1.0, 0.3, 0.05])) @ v.T
        lap = raw_container(dense)
        emb = embed(lap, EmbedPolicy(drop_first=False, seed=2))
        assert emb.dimension == 2
        total = 1.0 + 0.09 + 0.0025
        assert emb.component_shares == pytest.approx(
            [1.0 / total, 0.09 / total], rel=1e-6
        )
        assert emb.singular_values == pytest.approx([1.0, 0.3], abs=1e-9)

    def test_identity_three_equal_shares(self):
        lap = normalized_laplacian(CountMatrix.from_dense(np.diag([4, 9, 16])))
        emb = embed(lap, EmbedPolicy(drop_first=False))
        assert emb.dimension == 3
        assert emb.component_shares == pytest.approx([1 / 3] * 3)

    def test_drop_first_records_leader(self):
        rng = np.random.default_rng(23)
        lap = normalized_laplacian(random_counts(rng, 10, 15))
        emb = embed(lap, EmbedPolicy(drop_first=True, energy_threshold=0.001))
        assert emb.dropped_first
        assert emb.leading_singular_value == pytest.approx(1.0, abs=1e-8)
        no_drop = embed(lap, EmbedPolicy(drop_first=False, energy_threshold=0.001))
        assert no_drop.dimension == emb.dimension + 1

    def test_scaling_modes_differ_by_column_factors(self):
        rng = np.random.default_rng(29)
        lap = normalized_laplacian(random_counts(rng, 10, 15))
        raw = embed(lap, EmbedPolicy(scaling_mode="none", energy_threshold=0.001))
        scaled = embed(lap, EmbedPolicy(scaling_mode="sqrt", energy_threshold=0.001))
        for j in range(raw.dimension):
            corr = np.corrcoef(raw.coords[:, j], scaled.coords[:, j])[0, 1]
            assert corr == pytest.approx(1.0, abs=1e-9)
        linear = embed(lap, EmbedPolicy(scaling_mode="linear", energy_threshold=0.001))
        assert np.allclose(linear.coords, raw.coords * raw.singular_values, atol=1e-12)
        assert np.allclose(scaled.coords, raw.coords * np.sqrt(raw.singular_values),
                           atol=1e-12)

    def test_growth_past_initial_block(self):
        # 25 equal singular values, each share 4% -> solver must grow past 16
        lap = normalized_laplacian(
            CountMatrix.from_dense(np.diag(np.arange(1, 26)))
        )
        emb = embed(lap, EmbedPolicy(drop_first=False))
        assert emb.dimension == 25
        assert emb.component_shares == pytest.approx([1 / 25] * 25)

    def test_everything_below_threshold_errors(self):
        lap = normalized_laplacian(
            CountMatrix.from_dense(np.diag(np.arange(1, 26)))
        )
        with pytest.raises(EmbeddingDimensionError, match="decrease"):
            embed(lap, EmbedPolicy(drop_first=False, energy_threshold=0.2))

    def test_right_vector_gram_is_identity(self):
        rng = np.random.default_rng(31)
        lap = normalized_laplacian(random_counts(rng, 12, 18))
        emb = embed(lap, EmbedPolicy(scaling_mode="none", energy_threshold=0.001,
                                     drop_first=False))
        gram = emb.coords.T @ emb.coords
        assert np.abs(gram - np.eye(emb.dimension)).max() < 1e-8

    def test_cell_permutation_permutes_rows(self):
        rng = np.random.default_rng(37)
        dense = rng.integers(1, 9, size=(9, 13))
        perm = rng.permutation(13)
        base = embed(
            normalized_laplacian(CountMatrix.from_dense(dense)),
            EmbedPolicy(drop_first=False, energy_threshold=0.001),
        )
        permuted = embed(
            normalized_laplacian(CountMatrix.from_dense(dense[:, perm])),
            EmbedPolicy(drop_first=False, energy_threshold=0.001),
        )
        assert base.dimension == permuted.dimension
        reference = base.coords[perm]
        for j in range(base.dimension):
            sign = np.sign(reference[:, j] @ permuted.coords[:, j])
            assert np.allclose(reference[:, j] * sign, permuted.coords[:, j],
                               atol=1e-7)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            EmbedPolicy(energy_threshold=0.0)
        with pytest.raises(ValueError):
            EmbedPolicy(scaling_mode="cubic")

    def test_exports(self):
        emb = Embedding(
            coords=np.array([[0.5, 1.0], [-0.25, 2.0]]),
            singular_values=np.array([0.9, 0.5]),
            component_shares=np.array([0.5, 0.2]),
            dropped_first=False,
            scaling_mode="sqrt",
        )
        tsv = embedding_to_tsv(emb, ["a", "b"])
        assert tsv.splitlines()[0] == "cell_id\ty1\ty2"
        assert tsv.splitlines()[1] == "a\t0.5\t1"
        sidecar = embedding_sidecar_json(emb)
        assert '"dimension": 2' in sidecar


class TestAdjacencyVariant:
    def test_sigma_not_normalized(self):
        cm = CountMatrix.from_dense([[4, 0], [0, 9]])
        lap = adjacency_embedding_matrix(cm)
        _, values, _ = truncated_svd(lap, 2, seed=0)
        assert values == pytest.approx([9.0, 4.0])


# The three rescalings as they were before the row-block walk: a float64
# copy of the whole CSR (index arrays included), scaled by whole-matrix
# per-entry factors.  The oracle of _rescaled.
def reference_rescaled(counts, row_scale, col_scale):
    matrix = counts.csr().astype(np.float64)
    matrix.data *= np.repeat(row_scale, np.diff(matrix.indptr))
    matrix.data *= col_scale[matrix.indices]
    return matrix, float(np.sum(matrix.data * matrix.data))


def reference_scales(counts, variant):
    deg = degrees(counts)
    rows, cols = deg.row_degrees.astype(np.float64), deg.col_degrees.astype(np.float64)
    if variant is normalized_laplacian:
        return 1.0 / np.sqrt(rows), 1.0 / np.sqrt(cols)
    if variant is random_walk_laplacian:
        return 1.0 / rows, np.ones_like(cols)
    return np.ones_like(rows), np.ones_like(cols)


VARIANTS = [normalized_laplacian, random_walk_laplacian, adjacency_embedding_matrix]


class TestRowBlockWalk:
    @pytest.mark.parametrize("block", [1, 7, None])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_equals_the_whole_matrix_form(self, monkeypatch, variant, block):
        if block is not None:
            monkeypatch.setattr(core_matrix, "_ROW_BLOCK_ENTRIES", block)
        rng = np.random.default_rng(4)
        dense = rng.poisson(0.9, size=(30, 45)) * rng.integers(1, 1000, size=(30, 45))
        dense[:, 0] = 1  # every row and column has a positive degree
        dense[0] = 1
        dense[6] = rng.integers(1, 50, size=45)  # a row longer than a 7-entry block
        counts = CountMatrix.from_dense(dense)
        lap = variant(counts)
        expected, frobenius_sq = reference_rescaled(counts, *reference_scales(counts, variant))
        assert lap.matrix.data.tobytes() == expected.data.tobytes()
        assert np.array_equal(lap.matrix.indices, expected.indices)
        assert np.array_equal(lap.matrix.indptr, expected.indptr)
        assert lap.matrix.shape == expected.shape
        assert lap.frobenius_sq == frobenius_sq

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_index_arrays_shared_with_the_counts(self, variant):
        counts = CountMatrix.from_dense([[1, 0, 2], [3, 4, 0]])
        matrix = variant(counts).matrix
        assert np.shares_memory(matrix.indices, counts.csr().indices)
        assert np.shares_memory(matrix.indptr, counts.csr().indptr)

    def test_peak_memory_bounded_by_its_own_data(self, monkeypatch):
        """The float64 data and the one squared copy that frobenius_sq sums;
        copying the index arrays and whole-matrix scale factors took 20
        bytes per entry at the peak."""
        monkeypatch.setattr(core_matrix, "_ROW_BLOCK_ENTRIES", 1 << 14)
        counts = block_counts()
        lap, peak = traced_peak(normalized_laplacian, counts)
        assert lap.matrix.nnz == counts.nnz
        assert peak <= 2.1 * lap.matrix.data.nbytes
