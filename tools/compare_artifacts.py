#!/usr/bin/env python3
"""Check that two source trees write byte-identical artifacts from every
command that writes files.

    python3 tools/compare_artifacts.py PARENT_SRC CHANGE_SRC [--work DIR]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Each tree first runs ``gmmle simulate`` on three block models: the
benchmark's input at seed 7 (``simulate-bench``), the same blocks and
rates drawn by the multinomial sampler with 500 trials per cell
(``simulate-multinomial``), and ``configs/sbm_demo.conf``
(``simulate-demo``).  The two trees must write the same ``counts.mtx``,
id sidecars, ``truth_cells.tsv`` and ``truth_genes.tsv``, byte for byte.
PARENT_SRC's draws are the inputs of eleven more cases, each run by both
trees.  Nine run ``gmmle pipeline``:

- ``louvain-tall`` and ``gmm-bic-tall``: the benchmark's two workloads;
- ``qc-biting``: louvain-tall with QC thresholds that remove features and
  cells, so the QC statistics decide the output;
- ``pipeline-demo``: ``configs/pipeline_demo.conf`` as it stands;
- ``demo-kmeans``, ``demo-louvain``, ``demo-random-walk``,
  ``demo-adjacency`` and ``demo-dense-tsv``: the demo config with the
  settings of ``DEMO_VARIANTS``, where a value of None drops the key:
  k-means with ``d_plus_one`` components, Louvain at resolution 0.5, the
  two other spectral variants, and the demo draw read as a dense TSV with
  a corner label.

``qc-command`` runs ``gmmle qc`` on the benchmark's input with the
qc-biting thresholds.  ``validate-command`` runs ``gmmle validate`` on the
demo draw with its truth labels.  Its panels give type ``block<b>`` the
first three genes of block b, plus a missing id in the last panel.  It
gates cluster 0 on two block-0 genes present and one block-2 gene absent.

Every file the two runs of a case write must be byte-identical, except
that ``metrics.json`` is compared without its ``timings_sec``,
``peak_rss_mb`` and ``rss_mb`` records.  Exit status: 0 when every
artifact matches, 1 on a difference, 2 when a run fails.

The block model, the workload settings and the child environment are
imported from ``bench/run.py``, so the tool needs numpy, as the benchmark
does; importing it sets the benchmark's BLAS-thread and huge-page
variables in this process too.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
sys.path.insert(0, str(ROOT / "bench"))
import run  # noqa: E402  (bench/run.py)

SEED = 7
SBM_TEXT = (
    "sbm.rates = "
    + "; ".join(
        ",".join(f"{run.IN_RATE if i == j else run.OUT_RATE:g}" for j in range(run.N_BLOCKS))
        for i in range(run.N_BLOCKS)
    )
    + "\nsbm.gene_block_sizes = " + ",".join(map(str, run.GENE_BLOCKS))
    + "\nsbm.cell_block_sizes = " + ",".join(map(str, run.CELL_BLOCKS))
    + f"\nsbm.seed = {SEED}\n"
)
# The same block model, each cell's total fixed and split multinomially.
MULTINOMIAL_TEXT = SBM_TEXT + "sbm.mode = multinomial\nsbm.cell_total = 500\n"

# On the seed-7 input these remove 75 features and 214 cells.
QC_BITING = {
    "qc.min_cells_per_feature": "1270",
    "qc.min_features_per_cell": "100",
    "qc.max_top_share": "0.04",
}
# The files each case of another command than `pipeline` must write.
COMMAND_FILES = {
    "qc-command": ("qc_report.json", "filtered.mtx", "filtered.features.txt",
                   "filtered.cells.txt"),
    "validate-command": ("cluster_types.tsv", "marker_ratios.tsv", "gated_cells.tsv"),
}
# Pipeline cases on the demo draw: configs/pipeline_demo.conf with these
# settings changed, and those set to None left out, since the pipeline
# refuses a cluster key the chosen method and strategy do not read.  Paths
# are relative to the work directory.
DEMO_VARIANTS = {
    "demo-kmeans": {"cluster.method": "kmeans", "cluster.k_strategy": "d_plus_one",
                    "cluster.k": None},
    "demo-louvain": {"cluster.method": "louvain", "cluster.resolution": "0.5",
                     "cluster.k_strategy": None, "cluster.k": None},
    "demo-random-walk": {"spectral.variant": "random_walk"},
    "demo-adjacency": {"spectral.variant": "adjacency"},
    "demo-dense-tsv": {"input.format": "dense_tsv", "input.path": "demo.tsv"},
}
CASES = ("louvain-tall", "gmm-bic-tall", "qc-biting", "pipeline-demo", *DEMO_VARIANTS,
         *COMMAND_FILES)
# Each simulator case: its config and its output directory under a tree's
# simulation root; the other cases read the parent's draws there.
SIMULATIONS = {
    "simulate-bench": ("bench_sbm.conf", "bench_input"),
    "simulate-multinomial": ("multinomial_sbm.conf", "multinomial_input"),
    "simulate-demo": (str(CONFIGS / "sbm_demo.conf"), "out/sim"),
}
SIMULATED_FILES = (
    "counts.mtx", "counts.features.txt", "counts.cells.txt", "truth_cells.tsv",
    "truth_genes.tsv",
)

UNCOMPARED_METRICS = ("timings_sec", "peak_rss_mb", "rss_mb")
CLI = "import sys; from gmmle.cli import main; sys.exit(main(sys.argv[1:]))"


class RunFailed(RuntimeError):
    """A gmmle command exited non-zero."""


def gmmle(src: Path, args: list[str], cwd: Path) -> None:
    env = dict(os.environ, **run.CHILD_ENV, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", CLI, *args], cwd=cwd, env=env, capture_output=True, text=True,
    )
    if result.returncode != 0:
        raise RunFailed(f"gmmle {' '.join(args)} from {src} exited {result.returncode}:\n"
                        + result.stderr)


def write_config(path: Path, settings: dict[str, str]) -> Path:
    path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    return path


def simulate(src: Path, root: Path, work: Path) -> None:
    """Draw every SIMULATIONS case with ``src`` into its directory under
    ``root``."""
    for config, out in SIMULATIONS.values():
        gmmle(src, ["simulate", "--config", config, "--out", str(root / out)], work)


def write_panels(truth_genes: Path, path: Path) -> list[list[str]]:
    """Write the validate case's panels from a ``truth_genes.tsv``; returns
    each block's genes in file order."""
    blocks: dict[str, list[str]] = {}
    for line in truth_genes.read_text().splitlines()[1:]:
        feature, block = line.split("\t")
        blocks.setdefault(block, []).append(feature)
    genes = list(blocks.values())
    rows = [f"block{b}\t{feature}" for b, block in enumerate(genes) for feature in block[:3]]
    rows.append(f"block{len(genes) - 1}\tnot-in-matrix")  # so the drop warning runs
    path.write_text("".join(row + "\n" for row in rows))
    return genes


def write_dense_tsv(mtx: Path, path: Path) -> None:
    """Write a MatrixMarket count file written by ``gmmle simulate``, with
    its id sidecars, as a dense TSV whose header starts with a corner
    label."""
    stem = mtx.with_suffix("")
    features, cells = ((stem.parent / f"{stem.name}.{kind}.txt").read_text().splitlines()
                       for kind in ("features", "cells"))
    rows, cols, values = np.loadtxt(mtx, dtype=np.int64, skiprows=2, ndmin=2).T
    dense = np.zeros((len(features), len(cells)), dtype=np.int64)
    dense[rows - 1, cols - 1] = values
    lines = ["\t".join(["gene", *cells])]
    lines += ["\t".join([feature, *map(str, row)])
              for feature, row in zip(features, dense.tolist())]
    path.write_text("\n".join(lines) + "\n")


def config_settings(path: Path) -> dict[str, str]:
    """The ``key = value`` settings of a config file."""
    lines = path.read_text().splitlines()
    pairs = (line.split("=", 1) for line in lines if line.strip() and not line.startswith("#"))
    return {key.strip(): value.strip() for key, value in pairs}


def make_inputs(work: Path) -> dict[str, tuple[str, Path]]:
    """The command and config of each case, reading the draws under
    ``work``; the demo config reads ``out/sim/counts.mtx`` relative to
    ``work``."""
    base = {"input.path": str(work / "bench_input" / "counts.mtx"),
            "input.format": "matrix_market"}
    pipeline = {**base, **run.COMMON_SETTINGS}
    cases = {
        name: ("pipeline", write_config(work / f"{name}.conf", {**pipeline, **w.settings}))
        for name, w in run.WORKLOADS.items()
    }
    cases["qc-biting"] = ("pipeline", write_config(
        work / "qc-biting.conf",
        {**pipeline, **run.WORKLOADS["louvain-tall"].settings, **QC_BITING},
    ))
    cases["pipeline-demo"] = ("pipeline", CONFIGS / "pipeline_demo.conf")
    demo_settings = config_settings(CONFIGS / "pipeline_demo.conf")
    for name, variant in DEMO_VARIANTS.items():
        settings = {key: value for key, value in {**demo_settings, **variant}.items()
                    if value is not None}
        cases[name] = ("pipeline", write_config(work / f"{name}.conf", settings))
    qc_settings = {k: v for k, v in run.COMMON_SETTINGS.items() if k.startswith("qc.")}
    cases["qc-command"] = ("qc", write_config(
        work / "qc-command.conf", {**base, **qc_settings, **QC_BITING}
    ))
    demo = work / "out" / "sim"
    write_dense_tsv(demo / "counts.mtx", work / "demo.tsv")
    genes = write_panels(demo / "truth_genes.tsv", work / "panels.tsv")
    cases["validate-command"] = ("validate", write_config(work / "validate-command.conf", {
        "input.path": str(demo / "counts.mtx"),
        "validate.labels_path": str(demo / "truth_cells.tsv"),
        "validate.panels_path": str(work / "panels.tsv"),
        "validate.gate_cluster": "0",
        "validate.gate_positive": ",".join(genes[0][:2]),
        "validate.gate_negative": genes[2][0],
    }))
    return cases


def comparable(path: Path) -> bytes:
    """A file's bytes; for metrics.json, its JSON without the timing and
    memory records."""
    if path.name != "metrics.json":
        return path.read_bytes()
    metrics = json.loads(path.read_text())
    for key in UNCOMPARED_METRICS:
        metrics.pop(key, None)
    return json.dumps(metrics, indent=2, sort_keys=True).encode()


def compare_dirs(a: Path, b: Path) -> list[str]:
    """The names of files that differ between, or exist in only one of,
    two output directories."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    differ = []
    for name in names:
        if not ((a / name).is_file() and (b / name).is_file()):
            differ.append(f"{name} (only in one run)")
        elif comparable(a / name) != comparable(b / name):
            differ.append(name)
    return differ


def compare_simulations(a: Path, b: Path) -> list[str]:
    """``compare_dirs`` of two simulator output directories, plus each of
    SIMULATED_FILES missing from both."""
    missing = [f"{name} (in neither run)" for name in SIMULATED_FILES
               if not ((a / name).exists() or (b / name).exists())]
    return compare_dirs(a, b) + missing


def compare(parent: Path, change: Path, work: Path) -> int:
    (work / "bench_sbm.conf").write_text(SBM_TEXT)
    (work / "multinomial_sbm.conf").write_text(MULTINOMIAL_TEXT)
    roots = (work, work / "change-simulate")
    for src, root in zip((parent, change), roots):
        simulate(src, root, work)
    failed = False
    for case, (_, out) in SIMULATIONS.items():
        differ = compare_simulations(*(root / out for root in roots))
        files = len(list((work / out).iterdir()))
        print(f"{case}: " + (f"DIFFERS in {', '.join(differ)}" if differ
                             else f"{files} files byte-identical"))
        failed = failed or bool(differ)
    cases = make_inputs(work)
    for case in CASES:
        command, config = cases[case]
        outs = []
        for label, src in (("parent", parent), ("change", change)):
            out = work / label / case
            gmmle(src, [command, "--config", str(config), "--out", str(out)], work)
            outs.append(out)
        differ = compare_dirs(*outs)
        files = len(list(outs[0].iterdir()))
        print(f"{case}: " + (f"DIFFERS in {', '.join(differ)}" if differ
                             else f"{files} artifacts byte-identical"))
        failed = failed or bool(differ)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the reference tree")
    parser.add_argument("change_src", type=Path, help="src directory of the tree to check")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for inputs and outputs (default: a temporary one)")
    args = parser.parse_args(argv)
    srcs = [path.resolve() for path in (args.parent_src, args.change_src)]
    for src in srcs:
        if not (src / "gmmle" / "cli.py").is_file():
            parser.error(f"{src} holds no gmmle package")
    try:
        if args.work is not None:
            args.work.mkdir(parents=True, exist_ok=True)
            return compare(*srcs, args.work.resolve())
        with tempfile.TemporaryDirectory(prefix="compare_artifacts_") as work:
            return compare(*srcs, Path(work))
    except RunFailed as err:
        print(err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
