"""Graph-based clustering toolkit for sparse single-cell count matrices.

The count matrix is treated as the adjacency matrix of a bipartite
multigraph (features x cells).  Cells are embedded through the singular
vectors of the degree-normalized matrix and clustered with a
full-covariance Gaussian mixture (GMM-LE); Louvain modularity clustering
and a UMAP-style 2-D layout (UMAP-LE) round out the pipeline, with a
block-model simulator providing ground truth for verification.
"""

from .community import CellGraph, exact_knn, knn_graph, louvain, modularity
from .core_matrix import (
    CountMatrix,
    degrees,
    read_dense_tsv,
    read_matrix_market,
    submatrix,
    write_matrix_market,
)
from .features import dispersion_scores, select_top_k
from .layout import Layout2D, LayoutParams, fuzzy_graph, optimize_layout
from .mixture import (
    ClusterLabels,
    GmmModel,
    bic,
    fit_gmm,
    fit_kmeans,
    select_k,
)
from .qc import QcConfig, QcReport, filter_cells, filter_features, run_qc
from .rng import CounterRng
from .simulate import SbmConfig, adjusted_rand_index, sample_sbm
from .spectral import (
    EmbedPolicy,
    Embedding,
    adjacency_embedding_matrix,
    embed,
    normalized_laplacian,
    random_walk_laplacian,
    truncated_svd,
)
from .validate import (
    MarkerPanel,
    assign_cluster_types,
    gate_cells,
    marker_ratio_table,
    mean_log_expression,
)

__version__ = "0.1.0"

__all__ = [
    "CellGraph",
    "ClusterLabels",
    "CountMatrix",
    "CounterRng",
    "EmbedPolicy",
    "Embedding",
    "GmmModel",
    "Layout2D",
    "LayoutParams",
    "MarkerPanel",
    "QcConfig",
    "QcReport",
    "SbmConfig",
    "adjacency_embedding_matrix",
    "adjusted_rand_index",
    "assign_cluster_types",
    "bic",
    "degrees",
    "dispersion_scores",
    "embed",
    "exact_knn",
    "filter_cells",
    "filter_features",
    "fit_gmm",
    "fit_kmeans",
    "fuzzy_graph",
    "gate_cells",
    "knn_graph",
    "louvain",
    "marker_ratio_table",
    "mean_log_expression",
    "modularity",
    "normalized_laplacian",
    "optimize_layout",
    "random_walk_laplacian",
    "read_dense_tsv",
    "read_matrix_market",
    "run_qc",
    "sample_sbm",
    "select_k",
    "select_top_k",
    "submatrix",
    "truncated_svd",
    "write_matrix_market",
]
