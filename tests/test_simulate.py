import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_poisson
from gmmle import simulate
from gmmle.core_matrix import CountMatrix
from gmmle.mixture import ClusterLabels
from gmmle.rng import CounterRng
from gmmle.simulate import SbmConfig, adjusted_rand_index, sample_sbm


def config_3x3(seed=0, diag=5.0, off=0.5, gene_size=20, cell_size=30):
    rates = np.full((3, 3), off)
    np.fill_diagonal(rates, diag)
    return SbmConfig(rates, (gene_size,) * 3, (cell_size,) * 3, seed=seed)


def csr_arrays(sample):
    csr = sample.matrix.csr()
    return csr.indptr, csr.indices, csr.data


def assert_same_csr(a, b):
    for x, y in zip(csr_arrays(a), csr_arrays(b)):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


# The per-cell sampler that chunked sampling replaced, kept as its oracle:
# one derived stream per cell, Poisson by the element-wise inversion loop,
# entries assembled as one COO matrix.
def reference_sample_sbm(config):
    gene_block = np.repeat(np.arange(len(config.gene_block_sizes)), config.gene_block_sizes)
    cell_block = np.repeat(np.arange(len(config.cell_block_sizes)), config.cell_block_sizes)
    p, n = config.n_genes, config.n_cells
    root = CounterRng(config.seed)

    rows, cols, vals = [], [], []
    for j in range(n):
        cell_rng = root.derive(j)
        if config.mode == "poisson":
            counts = _reference_poisson_column(cell_rng, config.rates[:, cell_block[j]],
                                               config.gene_block_sizes)
        else:
            counts = _reference_multinomial_column(
                cell_rng, config.rates[gene_block, cell_block[j]], config.cell_total
            )
        nz = np.flatnonzero(counts)
        rows.append(nz)
        cols.append(np.full(nz.size, j, dtype=np.int64))
        vals.append(counts[nz])

    matrix = CountMatrix(
        sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(p, n),
        ),
        feature_ids=[f"g{i}" for i in range(p)],
        cell_ids=[f"c{j}" for j in range(n)],
    )
    return simulate.SbmSample(
        matrix,
        ClusterLabels(cell_block, len(config.cell_block_sizes)),
        ClusterLabels(gene_block, len(config.gene_block_sizes)),
    )


def _reference_poisson_column(rng, block_rates, gene_block_sizes):
    parts = [
        reference_poisson(rng.random(size), float(rate))
        for rate, size in zip(block_rates, gene_block_sizes)
    ]
    return np.concatenate(parts)


def _reference_multinomial_column(rng, gene_rates, total):
    rate_sum = gene_rates.sum()
    counts = np.zeros(gene_rates.size, dtype=np.int64)
    if total == 0 or rate_sum <= 0.0:
        return counts
    # each of the `total` trials lands in the gene bin containing its uniform
    edges = np.cumsum(gene_rates) / rate_sum
    draws = np.searchsorted(edges, rng.random(total), side="right")
    np.add.at(counts, np.minimum(draws, gene_rates.size - 1), 1)
    return counts


def _oracle_configs():
    """(id, config) pairs covering the chunked sampler's edge cases."""
    # rates 0, 1e-9 and 699.9, a gene-block row of zeros, one-gene and
    # one-cell blocks, uneven block sizes; in multinomial mode a cell block
    # whose rates sum to 0 (no draws) and a cell_total of 0
    edge_rates = np.array([
        [0.0, 1e-9, 699.9],
        [5.0, 0.013, 0.0],
        [0.0, 0.0, 0.0],
        [2.5, 699.9, 1e-9],
    ])
    cases = [
        ("poisson-edge-rates", SbmConfig(edge_rates, (3, 1, 4, 2), (1, 5, 2), seed=3)),
        ("poisson-one-cell", SbmConfig(np.array([[4.0], [0.5]]), (7, 1), (1,), seed=1)),
        ("multinomial-mixed", SbmConfig(
            np.array([[4.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.5, 0.0, 699.9]]),
            (5, 1, 3), (4, 2, 1), seed=5, mode="multinomial", cell_total=37,
        )),
        ("multinomial-total-0", SbmConfig(
            np.array([[4.0, 1.0], [1.0, 4.0]]), (3, 3), (2, 3),
            seed=2, mode="multinomial", cell_total=0,
        )),
    ]
    # one cell block of 1 cell, of the multinomial chunk size and of one
    # more than it (two chunks); 2048 genes keep the chunk at a few dozen
    # cells
    rates = np.array([[5.0], [1e-9], [699.9]])
    genes = (1024, 1, 1023)
    chunk = simulate._cells_per_chunk(
        SbmConfig(rates, genes, (1,), mode="multinomial", cell_total=1500)
    )
    for n_cells in (1, chunk, chunk + 1):
        cases.append((f"poisson-{n_cells}-cells",
                      SbmConfig(rates, genes, (n_cells,), seed=7)))
        cases.append((f"multinomial-{n_cells}-cells", SbmConfig(
            rates, genes, (n_cells,), seed=7, mode="multinomial", cell_total=1500,
        )))
    return cases


ORACLE_CASES = _oracle_configs()


class TestChunkedMatchesReference:
    @pytest.mark.parametrize(
        "config", [c for _, c in ORACLE_CASES], ids=[i for i, _ in ORACLE_CASES]
    )
    def test_csr_and_labels_identical(self, config):
        got = sample_sbm(config)
        want = reference_sample_sbm(config)
        assert_same_csr(got, want)
        assert got.matrix.feature_ids == want.matrix.feature_ids
        assert got.matrix.cell_ids == want.matrix.cell_ids
        for a, b in ((got.cell_labels, want.cell_labels), (got.gene_labels, want.gene_labels)):
            assert a.n_clusters == b.n_clusters
            assert a.labels.dtype == b.labels.dtype
            assert np.array_equal(a.labels, b.labels)

    def test_grid_spans_chunks(self):
        last = ORACLE_CASES[-6:]
        multinomial = [c for _, c in last if c.mode == "multinomial"]
        chunk = simulate._cells_per_chunk(multinomial[-1])
        assert 1 < chunk < 100
        assert [c.n_cells for _, c in last] == [1, 1, chunk, chunk, chunk + 1, chunk + 1]
        assert all(simulate._cells_per_chunk(c) == chunk for c in multinomial)


@pytest.mark.parametrize("chunk_elements", [1, 20, 111, 1 << 16])
@pytest.mark.parametrize(
    "config", [c for _, c in ORACLE_CASES[:4]], ids=[i for i, _ in ORACLE_CASES[:4]]
)
def test_chunk_sizes_match_reference(config, chunk_elements, monkeypatch):
    # chunks of one gene or cell, and chunks that end inside a block,
    # in both the gene-major poisson and the cell-major multinomial draw
    monkeypatch.setattr(simulate, "_CHUNK_ELEMENTS", chunk_elements)
    assert_same_csr(sample_sbm(config), reference_sample_sbm(config))


class TestSampler:
    def test_zero_rates_give_empty_matrix(self):
        cfg = SbmConfig(np.zeros((2, 2)), (5, 5), (4, 4), seed=1)
        sample = sample_sbm(cfg)
        assert sample.matrix.nnz == 0
        assert sample.matrix.shape == (10, 8)

    def test_same_seed_identical(self):
        a = sample_sbm(config_3x3(seed=7))
        b = sample_sbm(config_3x3(seed=7))
        assert_same_csr(a, b)

    def test_different_seeds_differ(self):
        a = sample_sbm(config_3x3(seed=7))
        b = sample_sbm(config_3x3(seed=8))
        assert not all(
            x.shape == y.shape and np.array_equal(x, y)
            for x, y in zip(csr_arrays(a), csr_arrays(b))
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_constant_rate_mean_concentrates(self, seed):
        cfg = SbmConfig(np.array([[3.0]]), (100,), (100,), seed=seed)
        sample = sample_sbm(cfg)
        mean = sample.matrix.csr().sum() / (100 * 100)
        assert abs(mean - 3.0) < 0.2

    def test_per_block_means_within_3_sigma(self):
        cfg = config_3x3(seed=11, gene_size=50, cell_size=60)
        sample = sample_sbm(cfg)
        dense = sample.matrix.to_dense()
        for g in range(3):
            for c in range(3):
                block = dense[g * 50:(g + 1) * 50, c * 60:(c + 1) * 60]
                lam = cfg.rates[g, c]
                sigma = np.sqrt(lam / block.size)
                assert abs(block.mean() - lam) <= 3.0 * sigma + 1e-12

    def test_labels_match_block_layout(self):
        sample = sample_sbm(config_3x3())
        assert sample.cell_labels.labels.tolist() == [0] * 30 + [1] * 30 + [2] * 30
        assert sample.gene_labels.n_clusters == 3

    def test_multinomial_mode_fixed_totals(self):
        cfg = SbmConfig(
            np.array([[4.0, 1.0], [1.0, 4.0]]), (10, 10), (15, 15),
            seed=3, mode="multinomial", cell_total=200,
        )
        sample = sample_sbm(cfg)
        col_sums = np.asarray(sample.matrix.csr().sum(axis=0)).ravel()
        assert (col_sums == 200).all()

    def test_multinomial_block_proportions(self):
        cfg = SbmConfig(
            np.array([[9.0], [1.0]]), (50, 50), (40,),
            seed=5, mode="multinomial", cell_total=1000,
        )
        dense = sample_sbm(cfg).matrix.to_dense()
        top_share = dense[:50].sum() / dense.sum()
        assert abs(top_share - 0.9) < 0.02

    def test_config_validation(self):
        with pytest.raises(ValueError, match="shape"):
            SbmConfig(np.zeros((2, 3)), (1, 1), (1, 1))
        with pytest.raises(ValueError, match="non-negative"):
            SbmConfig(np.array([[-1.0]]), (1,), (1,))
        with pytest.raises(ValueError, match="cell_total"):
            SbmConfig(np.array([[1.0]]), (1,), (1,), mode="multinomial")
        with pytest.raises(ValueError, match="^gene_block_sizes must be one or more"):
            SbmConfig(np.zeros((0, 1)), (), (1,))
        with pytest.raises(ValueError, match="^cell_block_sizes must be one or more"):
            SbmConfig(np.zeros((1, 2)), (1,), (3, 0))

    def test_cell_total_rejected_in_poisson_mode(self):
        with pytest.raises(ValueError, match="^cell_total applies only to mode multinomial"):
            SbmConfig(np.array([[1.0]]), (1,), (1,), cell_total=7)
        # 0 is a setting too, not an absent one
        with pytest.raises(ValueError, match="^cell_total"):
            SbmConfig(np.array([[1.0]]), (1,), (1,), cell_total=0)

    def test_poisson_rate_above_limit_names_block(self):
        rates = np.array([[1.0, 700.0], [3.0, 700.5]])
        with pytest.raises(
            ValueError, match=r"^rates entry \(gene block 1, cell block 1\) = 700.5 is above 700"
        ):
            SbmConfig(rates, (2, 2), (2, 2))
        # the limit itself is sampled; multinomial mode only uses proportions
        assert sample_sbm(SbmConfig(np.array([[700.0]]), (2,), (2,))).matrix.nnz == 4
        SbmConfig(rates, (2, 2), (2, 2), mode="multinomial", cell_total=5)


class TestAdjustedRandIndex:
    def test_identical_partitions_score_1(self):
        labels = np.array([0, 0, 1, 1, 2])
        assert adjusted_rand_index(labels, labels) == 1.0
        relabeled = np.array([5, 5, 3, 3, 9])
        assert adjusted_rand_index(labels, relabeled) == 1.0

    def test_crossed_pairs_score_minus_half(self):
        # hand evaluation: contingency all-ones 2x2, sum_cells = 0,
        # sum_rows = sum_cols = 2, total_pairs = 6, expected = 2/3,
        # max = 2 -> ARI = (0 - 2/3)/(2 - 2/3) = -0.5
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 0, 1])
        assert adjusted_rand_index(a, b) == pytest.approx(-0.5)

    def test_independent_labelings_near_zero(self):
        rng = CounterRng(13)
        a = rng.integers(4, 1000)
        b = rng.integers(4, 1000)
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adjusted_rand_index(np.array([0, 1]), np.array([0, 1, 2]))

    @settings(max_examples=50, deadline=None)
    @given(
        labels=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=40
        ),
        mapping=st.permutations([0, 1, 2, 3]),
    )
    def test_symmetry_and_alphabet_invariance(self, labels, mapping):
        a = np.array([x for x, _ in labels])
        b = np.array([y for _, y in labels])
        forward = adjusted_rand_index(a, b)
        assert forward == pytest.approx(adjusted_rand_index(b, a), abs=1e-12)
        remapped = np.array([mapping[v] for v in b])
        assert forward == pytest.approx(adjusted_rand_index(a, remapped), abs=1e-12)

    def test_single_cluster_each_side(self):
        assert adjusted_rand_index(np.zeros(5, int), np.zeros(5, int)) == 1.0
