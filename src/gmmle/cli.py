"""Command-line pipeline runner and artifact emission.

Subcommands: ``pipeline`` (ingest, QC, feature selection, spectral
embedding, clustering, optional 2-D layout), ``simulate`` (block-model
matrix plus truth labels), ``scatter`` (SVG of a layout colored by
cluster), ``qc`` (filters and report only) and ``validate`` (marker-panel
typing of existing labels).

Configuration is a flat key=value text file with dotted keys; unknown keys
are hard errors so a typo can never silently fall back to a default.
Every artifact's text is made here, apart from the count matrices that
``core_matrix.write_matrix_market`` formats, and written via
temp-file-and-rename, so a crashed run never leaves a truncated file under
a final name.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
import warnings
from collections import ChainMap
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable, get_type_hints

import numpy as np

from . import community, core_matrix, features, layout, mixture, qc, simulate, spectral, validate
from .core_matrix import write_atomic


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    """Pipeline failure annotated with the stage it happened in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and full-line # comments ignored."""
    out: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {line_no}: expected key = value")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"config line {line_no}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _to_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _to_optional_share(raw: str) -> float | None:
    if raw.lower() in ("none", "off", "disabled"):
        return None
    return float(raw)


def _to_str_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _to_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _to_k_range(raw: str) -> tuple[int, ...]:
    """Either "2,3,4" or "2:6" (inclusive); an empty range is rejected."""
    if ":" in raw:
        lo, hi = raw.split(":", 1)
        values = tuple(range(int(lo), int(hi) + 1))
    else:
        values = _to_int_list(raw)
    if not values:
        raise ValueError(f"empty range {raw!r}")
    return values


def _to_rates(raw: str) -> np.ndarray:
    rows = [row for row in raw.split(";") if row.strip()]
    return np.array([[float(v) for v in row.split(",")] for row in rows])


def _choice(*allowed: str) -> Callable[[str], str]:
    def convert(raw: str) -> str:
        if raw not in allowed:
            raise ValueError(f"expected one of {allowed}, got {raw!r}")
        return raw

    return convert


@dataclass
class Schema:
    converters: dict[str, Callable[[str], Any]]
    required: tuple[str, ...] = ()
    defaults: dict[str, Any] = field(default_factory=dict)

    def apply(self, raw: dict[str, str]) -> ChainMap[str, Any]:
        """The converted settings over the defaults; ``maps[0]`` holds the file's."""
        unknown = set(raw) - set(self.converters)
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        missing = [key for key in self.required if key not in raw]
        if missing:
            raise ConfigError(f"missing required config key(s): {missing}")
        values = {}
        for key, raw_value in raw.items():
            try:
                values[key] = self.converters[key](raw_value)
            except ValueError as err:
                raise ConfigError(f"config key {key!r}: {err}") from None
        return ChainMap(values, self.defaults)


# The converter of each stage field type; a field of another type fails at import.
_FIELD_CONVERTERS = {
    int: int, float: float, str: str, bool: _to_bool, float | None: _to_optional_share,
    int | None: int, tuple[str, ...]: _to_str_list, tuple[int, ...]: _to_int_list,
    np.ndarray: _to_rates,
}

# The stage dataclass each config section builds; its fields are the section's keys.
STAGE_CLASSES = {"qc": qc.QcConfig, "spectral": spectral.EmbedPolicy,
                 "layout": layout.LayoutParams, "sbm": simulate.SbmConfig}


def _stage_keys(section: str) -> dict[str, Callable[[str], Any]]:
    """The ``<section>.<field>`` key of each field of the section's class, in
    field order, with the converter of the field's type."""
    cls = STAGE_CLASSES[section]
    hints = get_type_hints(cls)
    return {f"{section}.{f.name}": _FIELD_CONVERTERS[hints[f.name]] for f in fields(cls)}


_INPUT_KEYS = {"input.path": str, "input.format": _choice("matrix_market", "dense_tsv")}

PIPELINE_SCHEMA = Schema(
    converters={
        **_INPUT_KEYS,
        "qc.enable": _to_bool,
        **_stage_keys("qc"),
        "features.enable": _to_bool,
        "features.top_k": int,
        "spectral.variant": _choice("normalized", "random_walk", "adjacency"),
        **_stage_keys("spectral"),
        "cluster.method": _choice("gmm", "kmeans", "louvain"),
        "cluster.k_strategy": _choice("fixed", "bic", "d_plus_one"),
        "cluster.k": int,
        "cluster.k_range": _to_k_range,
        "cluster.seed": int,
        "cluster.knn_k": int,
        "cluster.resolution": float,
        "layout.enable": _to_bool,
        "layout.n_neighbors": int,
        **_stage_keys("layout"),
        "layout.seed": int,
        "output.directory": str,
    },
    required=("input.path",),
    defaults={
        "input.format": "matrix_market",
        "qc.enable": True,
        "features.enable": True,
        "features.top_k": 2000,
        "spectral.variant": "normalized",
        "cluster.method": "gmm",
        "cluster.k_strategy": "fixed",
        "cluster.k": 8,
        "cluster.seed": 0,
        "cluster.knn_k": 20,
        "cluster.resolution": 1.0,
        "layout.enable": True,
        "layout.n_neighbors": 15,
        "layout.seed": 0,
    },
)

SIMULATE_SCHEMA = Schema(
    converters={**_stage_keys("sbm"), "output.directory": str},
    required=("sbm.rates", "sbm.gene_block_sizes", "sbm.cell_block_sizes"),
)

# `gmmle qc` always filters, so it has no qc.enable
QC_SCHEMA = Schema(
    converters={**_INPUT_KEYS, **_stage_keys("qc"), "output.directory": str},
    required=("input.path",),
    defaults={"input.format": PIPELINE_SCHEMA.defaults["input.format"]},
)

VALIDATE_SCHEMA = Schema(
    converters={
        **_INPUT_KEYS,
        "validate.labels_path": str,
        "validate.panels_path": str,
        "validate.denominator": _choice("pooled", "per_type_mean"),
        "validate.gate_positive": _to_str_list,
        "validate.gate_negative": _to_str_list,
        "validate.gate_cluster": int,
        "validate.gate_min_pos": int,
        "validate.gate_max_neg": int,
        "output.directory": str,
    },
    required=("input.path", "validate.labels_path", "validate.panels_path"),
    defaults={
        "input.format": PIPELINE_SCHEMA.defaults["input.format"],
        "validate.denominator": "pooled",
        "validate.gate_min_pos": 1,
        "validate.gate_max_neg": 0,
    },
)


def _stage_config(section: str, values: dict[str, Any]):
    """The section's stage class built from its keys present in ``values``.

    A field without a key keeps its dataclass default.  The stage
    dataclasses start each range error with the field name, so the
    ConfigError names the key.
    """
    cls = STAGE_CLASSES[section]
    keys = {f.name: f"{section}.{f.name}" for f in fields(cls)}
    kwargs = {name: values[key] for name, key in keys.items() if key in values}
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ConfigError(f"config key {section}.{err}") from None


def _check_at_least_one(values: dict[str, Any], keys: list[str]) -> None:
    for key in keys:
        if values[key] < 1:
            raise ConfigError(f"config key {key} must be >= 1, got {values[key]!r}")


# The cluster keys Louvain and each mixture K strategy read: only these are
# range-checked, and a config file that sets a listed key elsewhere is refused.
CLUSTER_KEYS_READ = {
    "cluster.method=louvain": ("cluster.resolution",),
    "cluster.k_strategy=fixed": ("cluster.k_strategy", "cluster.k"),
    "cluster.k_strategy=bic": ("cluster.k_strategy", "cluster.k_range"),
    "cluster.k_strategy=d_plus_one": ("cluster.k_strategy",),
}


def build_stage_configs(
    values: ChainMap[str, Any],
) -> tuple[qc.QcConfig | None, spectral.EmbedPolicy, layout.LayoutParams | None]:
    """Check the settings of every stage the config enables and build the
    (QC config, embed policy, layout params) triple, None for a disabled
    stage; raises ConfigError naming the key.  Needs no I/O, so callers run
    it before creating a directory or reading input.
    """
    qc_config = _stage_config("qc", values) if values["qc.enable"] else None
    policy = _stage_config("spectral", values)

    method, strategy = values["cluster.method"], values["cluster.k_strategy"]
    if strategy == "bic" and "cluster.k_range" not in values:
        raise ConfigError("cluster.k_strategy=bic needs cluster.k_range")
    if strategy == "bic" and method != "gmm":
        raise ConfigError("cluster.k_strategy=bic requires cluster.method=gmm")
    if strategy == "d_plus_one" and method == "louvain":
        raise ConfigError("cluster.k_strategy=d_plus_one requires cluster.method=gmm or kmeans")
    setting = "cluster.method=louvain" if method == "louvain" else f"cluster.k_strategy={strategy}"
    read = CLUSTER_KEYS_READ[setting]
    at_least_one = ["cluster.knn_k"]
    if values["features.enable"]:
        at_least_one.append("features.top_k")
    if "cluster.k" in read:
        at_least_one.append("cluster.k")
    _check_at_least_one(values, at_least_one)
    if "cluster.k_range" in read and min(values["cluster.k_range"]) < 1:
        raise ConfigError(
            "config key cluster.k_range must hold values >= 1, "
            f"got {values['cluster.k_range']!r}"
        )
    resolution = values["cluster.resolution"]
    if "cluster.resolution" in read and not (math.isfinite(resolution) and resolution > 0):
        raise ConfigError(
            f"config key cluster.resolution must be finite and > 0, got {resolution!r}"
        )

    layout_params = None
    if values["layout.enable"]:
        _check_at_least_one(values, ["layout.n_neighbors"])
        layout_params = _stage_config("layout", values)
    for key in values.maps[0]:
        if key not in read and any(key in keys for keys in CLUSTER_KEYS_READ.values()):
            raise ConfigError(f"config key {key} is not read with {setting}; remove it")
    return qc_config, policy, layout_params


def _input_path(values: dict[str, Any]) -> Path:
    """``input.path``, checked to exist; each command checks it before it
    creates the output directory."""
    path = Path(values["input.path"])
    if not path.exists():
        raise ConfigError(f"input.path does not exist: {path}")
    return path


def _read_input(path: Path, input_format: str) -> core_matrix.CountMatrix:
    if input_format == "matrix_market":
        return core_matrix.read_matrix_market(path)
    return core_matrix.read_dense_tsv(path)


def _resolve_out_dir(values: dict[str, Any], override: str | None) -> Path:
    """The output directory path; each command creates it once its config
    checks have passed."""
    target = override or values.get("output.directory")
    if target is None:
        raise ConfigError("no output directory (set output.directory or pass --out)")
    return Path(target)


def _tsv(header: Iterable[str], rows: Iterable[Iterable[Any]]) -> str:
    """Artifact TSV text: the header line, then one line per row of its
    fields as ``str`` joined by tabs; every line ends in a newline."""
    lines = ["\t".join(header), *("\t".join(map(str, row)) for row in rows), ""]
    return "\n".join(lines)


def _labels_tsv(cell_ids, labels: mixture.ClusterLabels) -> str:
    return _tsv(("cell_id", "cluster"), zip(cell_ids, labels.labels.tolist()))


def _coordinates_tsv(cell_ids, coords: np.ndarray, names: Iterable[str] | None = None) -> str:
    """Each cell id followed by its row of ``coords``, every value as
    ``%.12g``; the coordinate columns are ``names``, y1 .. yd by default."""
    if names is None:
        names = [f"y{i + 1}" for i in range(coords.shape[1])]
    rows = ([cid, *(f"{x:.12g}" for x in row)] for cid, row in zip(cell_ids, coords.tolist()))
    return _tsv(["cell_id", *names], rows)


def _ratios_tsv(table: dict[str, float | None]) -> str:
    """Marker ratios as ``%.10g``; a type without a ratio reads NA."""
    rows = ((name, "NA" if value is None else f"{value:.10g}") for name, value in table.items())
    return _tsv(("cell_type", "ratio"), rows)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2)


def _qc_payload(report: qc.QcReport) -> dict:
    """Every report field in declaration order; the masks as lists of 0/1."""
    payload = {}
    for f in fields(report):
        value = getattr(report, f.name)
        payload[f.name] = value.astype(int).tolist() if isinstance(value, np.ndarray) else value
    return payload


def _embedding_payload(embedding: spectral.Embedding) -> dict:
    return {
        "dimension": embedding.dimension,
        "scaling_mode": embedding.scaling,
        "dropped_first": embedding.dropped_first,
        "leading_singular_value": embedding.leading_singular_value,
        "leading_share": embedding.leading_share,
        "singular_values": [float(s) for s in embedding.singular_values],
        "component_shares": [float(s) for s in embedding.component_shares],
    }


def _model_payload(model: mixture.GmmModel, bic: float) -> dict:
    return {
        "n_components": model.n_components,
        "dimension": model.dimension,
        "weights": model.weights.tolist(),
        "means": model.means.tolist(),
        "covariances": model.covariances.tolist(),
        "log_likelihood": model.log_likelihood,
        "converged": model.converged,
        "n_iterations": model.n_iterations,
        "bic": bic,
    }


def _status_mb(key: str) -> float | None:
    """The memory figure ``key`` (such as ``VmHWM``) of ``/proc/self/status``
    in MB, or None where that file cannot be read."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith(key + ":"):
                    return round(int(line.split()[1]) / 1024, 1)
    except OSError:
        pass
    return None


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size so far (``VmHWM``) in MB."""
    return _status_mb("VmHWM")


def _rss_mb() -> float | None:
    """This process's resident set size now (``VmRSS``) in MB."""
    return _status_mb("VmRSS")


@contextlib.contextmanager
def _stage(name: str, record: dict[str, dict[str, float]], warned: list[dict[str, str]]):
    """Run the block as pipeline stage ``name``: any exception is re-raised
    as StageError naming it.  Its wall time, and the peak RSS and the RSS at
    its end where they can be read, are recorded under ``name`` in
    ``record["timings_sec"]``, ``["peak_rss_mb"]`` and ``["rss_mb"]``.
    Each warning the active filters let through is appended to ``warned``
    as a {"stage", "category", "message"} row and re-issued with the prefix
    "stage '<name>': ", also when the stage fails."""
    started = time.perf_counter()
    try:
        with warnings.catch_warnings(record=True) as caught:
            yield
    except Exception as err:
        raise StageError(name, err) from err
    finally:
        for caught_warning in caught:
            warned.append({
                "stage": name,
                "category": caught_warning.category.__name__,
                "message": str(caught_warning.message),
            })
            warnings.warn_explicit(
                f"stage '{name}': {caught_warning.message}", caught_warning.category,
                caught_warning.filename, caught_warning.lineno,
            )
    record["timings_sec"][name] = round(time.perf_counter() - started, 6)
    for key, measure in (("peak_rss_mb", _peak_rss_mb), ("rss_mb", _rss_mb)):
        value = measure()
        if value is not None:
            record[key][name] = value


def run_pipeline(values: ChainMap[str, Any], out_dir: Path, seed_override: int | None) -> dict:
    """Execute the staged pipeline; returns the metrics payload.

    A rejected setting raises ConfigError before ``out_dir`` is created.
    A failure in any stage surfaces as StageError naming the stage;
    artifacts already written stay in place.
    """
    if seed_override is not None:
        for key in ("spectral.seed", "cluster.seed", "layout.seed"):
            values[key] = seed_override
    qc_config, policy, layout_params = build_stage_configs(values)
    input_path = _input_path(values)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics: dict[str, Any] = {"stages": {}}
    record: dict[str, dict[str, float]] = {"timings_sec": {}, "peak_rss_mb": {}, "rss_mb": {}}
    warned: list[dict[str, str]] = []

    with _stage("ingest", record, warned):
        counts = _read_input(input_path, values["input.format"])
        metrics["stages"]["ingest"] = {
            "n_features": counts.n_features, "n_cells": counts.n_cells,
        }

    with _stage("qc", record, warned):
        if qc_config is not None:
            counts, report = qc.run_qc(counts, qc_config)
            write_atomic(out_dir / "qc_report.json", _json(_qc_payload(report)))
            metrics["stages"]["qc"] = {
                "n_features": counts.n_features, "n_cells": counts.n_cells,
            }

    with _stage("features", record, warned):
        if values["features.enable"]:
            scores = features.dispersion_scores(counts)
            mask = features.select_top_k(scores, values["features.top_k"])
            # cells whose entire signal sits in unselected features cannot be
            # embedded; drop them and record the count
            col_deg = core_matrix.column_sums(counts, mask)
            empty_cells = int((col_deg == 0).sum())
            counts = core_matrix.submatrix(counts, mask, col_deg > 0)
            metrics["stages"]["features"] = {
                "n_features": counts.n_features, "n_cells": counts.n_cells,
                "cells_dropped_empty": empty_cells,
            }

    with _stage("spectral", record, warned):
        variant = values["spectral.variant"]
        if variant == "normalized":
            lap = spectral.normalized_laplacian(counts)
        elif variant == "random_walk":
            lap = spectral.random_walk_laplacian(counts)
        else:
            lap = spectral.adjacency_embedding_matrix(counts)
        # the later stages need only the cell ids: free the counts before
        # the embedding and the Laplacian after it
        cell_ids = counts.cell_ids
        del counts
        embedding = spectral.embed(lap, policy)
        del lap
        # the layout starts from the first two coordinates; two populations
        # leave one once the leading component is dropped
        if layout_params is not None and embedding.dimension < 2:
            raise ValueError(
                "the 2-D layout needs at least 2 embedding dimensions, got "
                f"{embedding.dimension}; set layout.enable = false, or lower "
                "spectral.energy_threshold to retain more components"
            )
        write_atomic(out_dir / "embedding.tsv", _coordinates_tsv(cell_ids, embedding.coords))
        write_atomic(out_dir / "embedding.json", _json(_embedding_payload(embedding)))
        metrics["stages"]["spectral"] = {
            "variant": variant,
            "dimension": embedding.dimension,
            "singular_values": [float(s) for s in embedding.singular_values],
            "component_shares": [float(s) for s in embedding.component_shares],
        }

    with _stage("neighbours", record, warned):
        n_cells = embedding.coords.shape[0]
        knn_k = min(values["cluster.knn_k"], n_cells - 1)
        n_neighbors = 0
        if layout_params is not None:
            n_neighbors = min(values["layout.n_neighbors"], n_cells - 1)
        search_k = max(knn_k, n_neighbors)
        indices, distances = community.exact_knn(embedding.coords, search_k)
        metrics["stages"]["neighbours"] = {"k": search_k}
        graph = community.knn_graph(indices[:, :knn_k])

    with _stage("cluster", record, warned):
        method = values["cluster.method"]
        cluster_seed = values["cluster.seed"]
        cluster_info: dict[str, Any] = {"method": method, "knn_k": knn_k}
        if method == "louvain":
            labels = community.louvain(
                graph, seed=cluster_seed, resolution=values["cluster.resolution"]
            )
            cluster_info["n_clusters"] = labels.n_clusters
            cluster_info["resolution"] = values["cluster.resolution"]
        else:
            strategy = values["cluster.k_strategy"]
            if strategy == "fixed":
                ks = (values["cluster.k"],)
            elif strategy == "d_plus_one":
                ks = (embedding.dimension + 1,)
            else:
                ks = values["cluster.k_range"]
            if method == "gmm":
                selection = mixture.select_k(embedding.coords, ks, seed=cluster_seed)
                labels = selection.labels
                if strategy == "bic":
                    cluster_info["bic_table"] = [
                        {"k": row.n_clusters, "log_likelihood": row.log_likelihood,
                         "bic": row.bic, "converged": row.converged,
                         "n_iterations": row.n_iterations}
                        for row in selection.diagnostics
                    ]
                chosen = next(row for row in selection.diagnostics
                              if row.n_clusters == selection.n_clusters)
                cluster_info["log_likelihood"] = chosen.log_likelihood
                cluster_info["bic"] = chosen.bic
                write_atomic(out_dir / "model.json",
                             _json(_model_payload(selection.model, chosen.bic)))
            else:
                labels = mixture.fit_kmeans(embedding.coords, ks[0], seed=cluster_seed).labels
            cluster_info["n_clusters"] = labels.n_clusters
        write_atomic(out_dir / "labels.tsv", _labels_tsv(cell_ids, labels))
        metrics["stages"]["cluster"] = cluster_info

    with _stage("modularity", record, warned):
        metrics["modularity_knn"] = community.modularity(graph, labels)

    if layout_params is not None:
        with _stage("layout", record, warned):
            fuzzy = layout.fuzzy_graph(indices[:, :n_neighbors], distances[:, :n_neighbors])
            layout2d = layout.optimize_layout(
                fuzzy, embedding.coords[:, :2], layout_params, seed=values["layout.seed"]
            )
            write_atomic(out_dir / "layout.tsv",
                         _coordinates_tsv(cell_ids, layout2d.coords, "xy"))
            metrics["stages"]["layout"] = {
                "n_neighbors": n_neighbors,
                "fuzzy_edges": fuzzy.n_edges,
                "edge_visits": layout2d.edge_visits,
            }

    if warned:
        metrics["warnings"] = warned
    # timings_sec always has every stage; the RSS records are empty where
    # /proc/self/status cannot be read, and left out then
    metrics.update((key, values) for key, values in record.items() if values)
    write_atomic(out_dir / "metrics.json", _json(metrics))
    return metrics


def cmd_pipeline(args) -> int:
    values = PIPELINE_SCHEMA.apply(parse_config_text(Path(args.config).read_text()))
    run_pipeline(values, _resolve_out_dir(values, args.out), args.seed)
    return 0


def cmd_simulate(args) -> int:
    values = SIMULATE_SCHEMA.apply(parse_config_text(Path(args.config).read_text()))
    if args.seed is not None:
        values["sbm.seed"] = args.seed
    config = _stage_config("sbm", values)
    out_dir = _resolve_out_dir(values, args.out)
    sample = simulate.sample_sbm(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    core_matrix.write_matrix_market(sample.matrix, out_dir / "counts.mtx")
    write_atomic(out_dir / "truth_cells.tsv",
                 _labels_tsv(sample.matrix.cell_ids, sample.cell_labels))
    write_atomic(out_dir / "truth_genes.tsv", _tsv(
        ("feature_id", "block"),
        zip(sample.matrix.feature_ids, sample.gene_labels.labels.tolist()),
    ))
    return 0


PALETTE = (
    "#1f77b4", "#aec7e8", "#ff7f0e", "#ffbb78", "#2ca02c",
    "#98df8a", "#d62728", "#ff9896", "#9467bd", "#c5b0d5",
    "#8c564b", "#c49c94", "#e377c2", "#f7b6d2", "#7f7f7f",
    "#c7c7c7", "#bcbd22", "#dbdb8d", "#17becf", "#9edae5",
)


def _read_tsv_rows(path: Path) -> list[tuple[int, list[str]]]:
    """(line number, fields) of every non-blank line but a ``cell_id`` header."""
    lines = enumerate(path.read_text().splitlines(), start=1)
    rows = [(line_no, line.split("\t")) for line_no, line in lines if line.strip()]
    return rows[1:] if rows and rows[0][1][0] == "cell_id" else rows


def _read_labels(path: Path) -> dict[str, int]:
    """Cell id -> cluster of a labels TSV; a row that is not an id and an
    integer in [0, 2**63), or repeats an id, raises ValueError naming its
    line."""
    labels: dict[str, int] = {}
    for line_no, row in _read_tsv_rows(path):
        try:
            cell, raw = row
            cluster = int(raw)
        except ValueError:
            raise ValueError(f"{path} line {line_no}: expected 'cell_id<TAB>cluster'") from None
        if cluster < 0:
            raise ValueError(f"{path} line {line_no}: negative cluster id {cluster}")
        if cluster >= 2**63:
            raise ValueError(f"{path} line {line_no}: cluster id {cluster} is not below 2**63")
        if cell in labels:
            raise ValueError(f"{path} line {line_no}: repeated cell id {cell!r}")
        labels[cell] = cluster
    return labels


def _read_layout(path: Path) -> list[list[str]]:
    """The ``[cell_id, x, y]`` rows of a layout TSV; a row that is not an id
    and two finite floats, or repeats an id, raises ValueError naming its
    line."""
    rows: list[list[str]] = []
    seen: set[str] = set()
    for line_no, row in _read_tsv_rows(path):
        try:
            cell, x, y = row
            finite = math.isfinite(float(x)) and math.isfinite(float(y))
        except ValueError:
            raise ValueError(f"{path} line {line_no}: expected 'cell_id<TAB>x<TAB>y'") from None
        if not finite:
            raise ValueError(f"{path} line {line_no}: non-finite coordinate in {x!r}, {y!r}")
        if cell in seen:
            raise ValueError(f"{path} line {line_no}: repeated cell id {cell!r}")
        seen.add(cell)
        rows.append(row)
    return rows


def scatter_svg(layout_rows, label_by_cell) -> str:
    """Deterministic SVG: one circle per cell, palette cycled by cluster."""
    xs = np.array([float(r[1]) for r in layout_rows])
    ys = np.array([float(r[2]) for r in layout_rows])
    x_min, y_min = xs.min(), ys.min()
    span_x = xs.max() - x_min or 1.0
    span_y = ys.max() - y_min or 1.0
    size, margin = 600.0, 30.0
    scale = min((size - 2 * margin) / span_x, (size - 2 * margin) / span_y)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    for row, x, y in zip(layout_rows, xs, ys):
        cx = margin + (x - x_min) * scale
        cy = size - margin - (y - y_min) * scale  # y up
        color = PALETTE[label_by_cell[row[0]] % len(PALETTE)]
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_scatter(args) -> int:
    layout_rows = _read_layout(Path(args.layout))
    if not layout_rows:
        raise ValueError("empty layout input")
    label_by_cell = _read_labels(Path(args.labels))
    layout_cells = {row[0] for row in layout_rows}
    if layout_cells != set(label_by_cell):
        raise ValueError("cell id sets of layout and labels differ")
    write_atomic(Path(args.out), scatter_svg(layout_rows, label_by_cell))
    return 0


def cmd_qc(args) -> int:
    values = QC_SCHEMA.apply(parse_config_text(Path(args.config).read_text()))
    qc_config = _stage_config("qc", values)
    input_path = _input_path(values)
    out_dir = _resolve_out_dir(values, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    filtered, report = qc.run_qc(_read_input(input_path, values["input.format"]), qc_config)
    write_atomic(out_dir / "qc_report.json", _json(_qc_payload(report)))
    core_matrix.write_matrix_market(filtered, out_dir / "filtered.mtx")
    return 0


def cmd_validate(args) -> int:
    values = VALIDATE_SCHEMA.apply(parse_config_text(Path(args.config).read_text()))
    pos, neg = "validate.gate_positive", "validate.gate_negative"
    gating = pos in values or neg in values
    if gating and "validate.gate_cluster" not in values:
        raise ConfigError("gating needs validate.gate_cluster")
    # a gating key acts only beside the marker list(s) named with it
    for key, *needed in (("validate.gate_cluster", pos, neg), ("validate.gate_min_pos", pos),
                         ("validate.gate_max_neg", neg)):
        if key in values.maps[0] and not any(k in values for k in needed):
            needs = " or ".join(needed)
            raise ConfigError(f"config key {key} is not read without {needs}; remove it")
    # counts are whole numbers, so min_pos 0 passes every cell and max_neg -1 none
    _check_at_least_one(values, ["validate.gate_min_pos"])
    max_neg = values["validate.gate_max_neg"]
    if max_neg < 0:
        raise ConfigError(f"config key validate.gate_max_neg must be >= 0, got {max_neg!r}")
    input_path = _input_path(values)
    out_dir = _resolve_out_dir(values, args.out)
    counts = _read_input(input_path, values["input.format"])
    labels_path = Path(values["validate.labels_path"])
    label_by_cell = _read_labels(labels_path)
    missing = [cid for cid in counts.cell_ids if cid not in label_by_cell]
    if missing:
        raise ValueError(f"labels missing for {len(missing)} cells, e.g. {missing[:3]}")
    matrix_cells = set(counts.cell_ids)
    stray = [cid for cid in label_by_cell if cid not in matrix_cells]
    if stray:
        raise ValueError(f"{labels_path} has labels for {len(stray)} cells not in the matrix, "
                         f"e.g. {stray[:3]}")
    cluster_ids = np.array([label_by_cell[cid] for cid in counts.cell_ids])
    labels = mixture.ClusterLabels(cluster_ids, int(cluster_ids.max()) + 1)
    panels = validate.panels_from_tsv(Path(values["validate.panels_path"]).read_text())
    # every output is made before out_dir exists, so a rejected input leaves none
    assignment = validate.assign_cluster_types(counts, labels, panels)
    table = validate.marker_ratio_table(
        counts, labels, panels, assignment, denominator=values["validate.denominator"]
    )
    outputs = {
        "cluster_types.tsv": _tsv(("cluster", "cell_type"), sorted(assignment.items())),
        "marker_ratios.tsv": _ratios_tsv(table),
    }
    if gating:
        cluster_cells = np.flatnonzero(
            labels.labels == values["validate.gate_cluster"]
        )
        gated = validate.gate_cells(
            counts,
            cluster_cells,
            values.get(pos, ()),
            values.get(neg, ()),
            min_pos=values["validate.gate_min_pos"],
            max_neg=values["validate.gate_max_neg"],
        )
        outputs["gated_cells.tsv"] = _tsv(("cell_id",), ([counts.cell_ids[i]] for i in gated))

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        write_atomic(out_dir / name, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmmle",
        description="Spectral embedding and mixture-model clustering for "
        "sparse count matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", default=None, help="output directory override")

    p_pipe = sub.add_parser("pipeline", help="run the full pipeline")
    common(p_pipe)
    p_pipe.add_argument("--seed", type=int, default=None,
                        help="override every stage seed")
    p_pipe.set_defaults(func=cmd_pipeline)

    p_sim = sub.add_parser("simulate", help="sample a block-model matrix")
    common(p_sim)
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override sbm.seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_scatter = sub.add_parser("scatter", help="SVG scatter of a layout")
    p_scatter.add_argument("layout", help="layout.tsv")
    p_scatter.add_argument("labels", help="labels.tsv")
    p_scatter.add_argument("out", help="output .svg path")
    p_scatter.set_defaults(func=cmd_scatter)

    p_qc = sub.add_parser("qc", help="quality control only")
    common(p_qc)
    p_qc.set_defaults(func=cmd_qc)

    p_val = sub.add_parser("validate", help="marker-panel validation of labels")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # noqa: BLE001 - single reporting point
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
