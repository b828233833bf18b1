"""Block-model count simulator and partition agreement scoring.

The sampler draws a gene-by-cell count matrix whose entries are independent
Poisson counts with a rate set by the (gene block, cell block) pair (the
canonical multi-edge block model) and returns the true block labels, the
ground truth against which clustering quality is measured by the adjusted
Rand index.  A multinomial mode fixes each cell's total and splits it with
block-proportional probabilities (a Poisson column conditioned on its total
is exactly that multinomial).

Sampling uses one derived counter-RNG stream per cell, so results are
reproducible bit-for-bit across platforms and independent of evaluation
order.  Cell ``j`` reads the stream ``root.derive(j)`` of the root
``CounterRng(seed)``: in poisson mode its uniform ``i`` inverts the count of
gene ``i``; in multinomial mode its first ``cell_total`` uniforms are the
trials.  Poisson counts are drawn gene-major: a chunk of consecutive genes
inside one gene block draws the uniforms of those genes in every cell as
one 2-D array (``rng.keyed_random``, over the cells' stream keys derived
once), and each chunk is a block of dense gene rows.  They are searched in
one CDF table per distinct rate (``rng.poisson_cdf``,
``rng.poisson_invert``) through its guide table (``rng.poisson_guide``),
built once per rate; this equals the one-uniform inversion loop bit for
bit.  Rates above ``rng.POISSON_MAX_RATE`` are rejected by ``SbmConfig``.
Multinomial counts are drawn cell-major, since a cell's trials share one
total: a chunk of consecutive cells inside one cell block draws all its
uniforms as one 2-D array (``rng.keyed_random`` over the chunk's cell
keys, transposed), and each chunk is a block of dense cell rows.  A chunk
holds at most ``_CHUNK_ELEMENTS`` uniforms and counts (genes x cells;
cells x genes, or cells x ``cell_total`` if larger), at least one row, so
the working memory stays a few MB beside the matrix itself.  The row
blocks arrive in row order and go to the builder the dense TSV reader
uses (``core_matrix._DenseRows``): gene rows give the genes x cells CSR as
it is stored, cell rows give its transpose, and both are canonical as
built, so the matrix is wrapped with no sort and no further copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import require_int
from .core_matrix import CountMatrix, _DenseRows
from .mixture import ClusterLabels
from .rng import (
    POISSON_MAX_RATE, CounterRng, keyed_random, poisson_cdf, poisson_guide, poisson_invert,
)

# Genes x cells (Poisson) or cells x draws or genes (multinomial) sampled per
# chunk: bounds the uniforms and counts held at once (a few MB) whatever the
# matrix shape.
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class SbmConfig:
    rates: np.ndarray  # (n_gene_blocks, n_cell_blocks) Poisson means
    gene_block_sizes: tuple[int, ...]
    cell_block_sizes: tuple[int, ...]
    seed: int = 0
    mode: str = "poisson"  # poisson | multinomial
    cell_total: int | None = None  # multinomial mode only, where it is required

    def __post_init__(self):
        # each message starts with the field name, so the CLI names the key
        rates = np.asarray(self.rates, dtype=np.float64)
        object.__setattr__(self, "rates", rates)
        for name in ("gene_block_sizes", "cell_block_sizes"):
            sizes = tuple(require_int(s, name) for s in getattr(self, name))
            if not sizes or any(s <= 0 for s in sizes):
                raise ValueError(f"{name} must be one or more positive sizes, got {sizes!r}")
            object.__setattr__(self, name, sizes)
        require_int(self.seed, "seed")
        if rates.ndim != 2:
            raise ValueError("rates must be a 2-D block matrix")
        if rates.shape != (len(self.gene_block_sizes), len(self.cell_block_sizes)):
            raise ValueError(
                f"rates shape {rates.shape} does not match block counts "
                f"({len(self.gene_block_sizes)}, {len(self.cell_block_sizes)})"
            )
        if not np.isfinite(rates).all() or (rates < 0).any():
            raise ValueError("rates must be finite and non-negative")
        if self.mode not in ("poisson", "multinomial"):
            raise ValueError(f"mode must be poisson or multinomial, got {self.mode!r}")
        if self.mode == "multinomial":
            require_int(self.cell_total, "cell_total", low=0)
            return
        if self.cell_total is not None:
            raise ValueError(
                f"cell_total applies only to mode multinomial, got {self.cell_total!r} "
                "with mode poisson"
            )
        if (rates > POISSON_MAX_RATE).any():
            g, c = np.argwhere(rates > POISSON_MAX_RATE)[0]
            raise ValueError(
                f"rates entry (gene block {g}, cell block {c}) = {rates[g, c]:g} is above "
                f"{POISSON_MAX_RATE:g}, the largest Poisson rate sampled exactly"
            )

    @property
    def n_genes(self) -> int:
        return sum(self.gene_block_sizes)

    @property
    def n_cells(self) -> int:
        return sum(self.cell_block_sizes)


@dataclass(frozen=True)
class SbmSample:
    matrix: CountMatrix
    cell_labels: ClusterLabels
    gene_labels: ClusterLabels


def _block_of(sizes: tuple[int, ...]) -> np.ndarray:
    return np.repeat(np.arange(len(sizes)), sizes)


def _bounds(sizes: tuple[int, ...]) -> list[tuple[int, int]]:
    """(start, stop) index range of each contiguous block."""
    ends = np.cumsum(sizes).tolist()
    return list(zip([0] + ends[:-1], ends))


def _cells_per_chunk(config: SbmConfig) -> int:
    """Cells per multinomial chunk: as many as keep (cells x per-cell
    draws or genes) within _CHUNK_ELEMENTS, at least one."""
    return max(1, _CHUNK_ELEMENTS // max(config.n_genes, config.cell_total))


def _genes_per_chunk(config: SbmConfig) -> int:
    """Genes per Poisson chunk: as many as keep (genes x cells) within
    _CHUNK_ELEMENTS, at least one."""
    return max(1, _CHUNK_ELEMENTS // config.n_cells)


def sample_sbm(config: SbmConfig) -> SbmSample:
    """Draw one matrix; blocks are contiguous index ranges, labels returned."""
    if config.mode == "poisson":
        csr = _csr_of_rows(config.n_cells, _poisson_gene_rows(config))
    else:
        # transposing a canonical CSR gives one
        csr = _csr_of_rows(config.n_genes, _multinomial_cell_rows(config)).T.tocsr()
    # nonzero counts are positive, so the CSR is canonical as built
    matrix = CountMatrix._from_canonical(
        csr,
        feature_ids=[f"g{i}" for i in range(config.n_genes)],
        cell_ids=[f"c{j}" for j in range(config.n_cells)],
    )
    return SbmSample(
        matrix,
        ClusterLabels(_block_of(config.cell_block_sizes), len(config.cell_block_sizes)),
        ClusterLabels(_block_of(config.gene_block_sizes), len(config.gene_block_sizes)),
    )


def _csr_of_rows(n_cols: int, blocks):
    """Canonical CSR of dense int64 row blocks arriving in row order."""
    rows = _DenseRows(n_cols)
    for block in blocks:
        rows.add(block)
    return rows.csr()


def _poisson_gene_rows(config: SbmConfig):
    """Yield the (genes, cells) int64 counts of each chunk, in gene order.

    A chunk never spans two gene blocks, so one rate row serves it.  The
    cells' stream keys are derived once; a chunk of genes ``first ..``
    reads outputs ``first ..`` of every cell's stream.
    """
    keys = CounterRng(config.seed).derive_keys(0, config.n_cells)
    cdf = {}
    for lam in set(config.rates.ravel().tolist()):
        table = poisson_cdf(lam)
        cdf[lam] = table, poisson_guide(table)
    cell_ranges = _bounds(config.cell_block_sizes)
    step = _genes_per_chunk(config)
    for g, (start, stop) in enumerate(_bounds(config.gene_block_sizes)):
        block_cdfs = [cdf[lam] for lam in config.rates[g].tolist()]
        for first in range(start, stop, step):
            u = keyed_random(keys, first, min(step, stop - first))
            counts = np.empty(u.shape, dtype=np.int64)
            for (c0, c1), (table, guide) in zip(cell_ranges, block_cdfs):
                counts[:, c0:c1] = poisson_invert(table, u[:, c0:c1], guide)
            yield counts


def _multinomial_cell_rows(config: SbmConfig):
    """Yield the (cells, genes) int64 counts of each chunk, in cell order.

    A chunk never spans two cell blocks, so one rate column serves it.
    """
    root = CounterRng(config.seed)
    step = _cells_per_chunk(config)
    p = config.n_genes
    gene_block = _block_of(config.gene_block_sizes)
    for c, (start, stop) in enumerate(_bounds(config.cell_block_sizes)):
        gene_rates = config.rates[gene_block, c]
        rate_sum = gene_rates.sum()
        # each of the trials lands in the gene bin containing its uniform
        edges = np.cumsum(gene_rates) / rate_sum if rate_sum > 0.0 else None
        for first in range(start, stop, step):
            m = min(step, stop - first)
            if edges is None:
                yield np.zeros((m, p), dtype=np.int64)
                continue
            u = keyed_random(root.derive_keys(first, m), 0, config.cell_total).T
            bins = np.searchsorted(edges, u, side="right")
            np.minimum(bins, p - 1, out=bins)
            bins += (np.arange(m) * p)[:, None]
            yield np.bincount(bins.ravel(), minlength=m * p).reshape(m, p)


def _comb2(x: np.ndarray) -> int:
    return int(sum(int(v) * (int(v) - 1) // 2 for v in x))


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected pair-counting agreement between two labelings.

    1 for identical partitions (regardless of label names), expectation 0
    for independent random labelings.  Exact integer pair counts.
    """
    a = labels_a.labels if isinstance(labels_a, ClusterLabels) else np.asarray(labels_a)
    b = labels_b.labels if isinstance(labels_b, ClusterLabels) else np.asarray(labels_b)
    if a.shape != b.shape:
        raise ValueError(f"label lengths differ: {a.shape} vs {b.shape}")
    n = a.size
    _, a_idx = np.unique(a, return_inverse=True)
    _, b_idx = np.unique(b, return_inverse=True)
    n_a = a_idx.max() + 1
    n_b = b_idx.max() + 1
    table = np.zeros((n_a, n_b), dtype=np.int64)
    np.add.at(table, (a_idx, b_idx), 1)

    sum_cells = _comb2(table.ravel())
    sum_rows = _comb2(table.sum(axis=1))
    sum_cols = _comb2(table.sum(axis=0))
    total_pairs = n * (n - 1) // 2
    if total_pairs == 0:
        return 1.0
    expected = sum_rows * sum_cols / total_pairs
    maximum = 0.5 * (sum_rows + sum_cols)
    if maximum == expected:
        return 1.0  # both partitions trivial and identical in pair structure
    return float((sum_cells - expected) / (maximum - expected))
