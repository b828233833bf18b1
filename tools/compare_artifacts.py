#!/usr/bin/env python3
"""Check that two source trees write byte-identical simulator and pipeline
artifacts.

    python3 tools/compare_artifacts.py PARENT_SRC CHANGE_SRC [--work DIR]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Each tree first runs ``gmmle simulate`` on three block models: the
benchmark's input at seed 7 (``simulate-bench``), the same blocks and
rates drawn by the multinomial sampler with 500 trials per cell
(``simulate-multinomial``), and ``configs/sbm_demo.conf``
(``simulate-demo``).  The two trees must write the same ``counts.mtx``,
id sidecars, ``truth_cells.tsv`` and ``truth_genes.tsv``, byte for byte.
PARENT_SRC's draws are the pipeline inputs: each tree then runs ``gmmle
pipeline`` on four configs:

- ``louvain-tall`` and ``gmm-bic-tall``: the benchmark's two workloads
  (the settings of ``bench/run.py``);
- ``qc-biting``: louvain-tall with QC thresholds that remove features and
  cells, so the QC statistics decide the output;
- ``pipeline-demo``: ``configs/pipeline_demo.conf`` as it stands.

Every file the two runs write must be byte-identical, except that
``metrics.json`` is compared without its ``timings_sec``, ``peak_rss_mb``
and ``rss_mb`` records.  Exit status: 0 when every artifact matches, 1 on a
difference, 2 when a run fails.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# The benchmark input: 300 genes x 2500 cells in 5 blocks, Poisson rate 5
# where a gene block meets its cell block and 0.5 elsewhere (bench/run.py).
N_BLOCKS = 5
SEED = 7
SBM_TEXT = (
    "sbm.rates = "
    + "; ".join(
        ",".join("5" if i == j else "0.5" for j in range(N_BLOCKS)) for i in range(N_BLOCKS)
    )
    + "\nsbm.gene_block_sizes = " + ",".join(["60"] * N_BLOCKS)
    + "\nsbm.cell_block_sizes = " + ",".join(["500"] * N_BLOCKS)
    + f"\nsbm.seed = {SEED}\n"
)
# The same block model, each cell's total fixed and split multinomially.
MULTINOMIAL_TEXT = SBM_TEXT + "sbm.mode = multinomial\nsbm.cell_total = 500\n"

# bench/run.py's COMMON_SETTINGS and workload settings; a test keeps them equal.
COMMON_SETTINGS = {
    "qc.min_cells_per_feature": "1",
    "qc.min_features_per_cell": "1",
    "qc.max_top_share": "1.0",
    "qc.max_mito_share": "none",
    "qc.max_ribo_share": "none",
    "spectral.seed": "0",
    "cluster.seed": "0",
    "layout.seed": "0",
}
WORKLOADS = {
    "louvain-tall": {
        "features.top_k": "200",
        "cluster.method": "louvain",
        "cluster.resolution": "0.5",
        "layout.enable": "true",
        "layout.epochs": "200",
    },
    "gmm-bic-tall": {
        "features.top_k": "200",
        "cluster.method": "gmm",
        "cluster.k_strategy": "bic",
        "cluster.k_range": "2:5",
        "layout.enable": "false",
    },
}
# On the seed-7 input these remove 75 features and 214 cells.
QC_BITING = {
    "qc.min_cells_per_feature": "1270",
    "qc.min_features_per_cell": "100",
    "qc.max_top_share": "0.04",
}
CASES = ("louvain-tall", "gmm-bic-tall", "qc-biting", "pipeline-demo")
# Each simulator case: its config and its output directory under a tree's
# simulation root; the pipeline configs read the parent's draws there.
SIMULATIONS = {
    "simulate-bench": ("bench_sbm.conf", "bench_input"),
    "simulate-multinomial": ("multinomial_sbm.conf", "multinomial_input"),
    "simulate-demo": (str(CONFIGS / "sbm_demo.conf"), "out/sim"),
}
SIMULATED_FILES = (
    "counts.mtx", "counts.features.txt", "counts.cells.txt", "truth_cells.tsv",
    "truth_genes.tsv",
)

# What the benchmark pins for its children: one BLAS thread, no huge-page
# advice, a fixed hash seed.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "PYTHONHASHSEED": "0",
}
UNCOMPARED_METRICS = ("timings_sec", "peak_rss_mb", "rss_mb")
CLI = "import sys; from gmmle.cli import main; sys.exit(main(sys.argv[1:]))"


class RunFailed(RuntimeError):
    """A gmmle command exited non-zero."""


def gmmle(src: Path, args: list[str], cwd: Path) -> None:
    env = dict(os.environ, **CHILD_ENV, PYTHONPATH=str(src))
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


def make_inputs(work: Path) -> dict[str, Path]:
    """One pipeline config per case, reading the draws under ``work``; the
    demo config reads ``out/sim/counts.mtx`` relative to ``work``."""
    base = {"input.path": str(work / "bench_input" / "counts.mtx"),
            "input.format": "matrix_market", **COMMON_SETTINGS}
    configs = {
        name: write_config(work / f"{name}.conf", {**base, **settings})
        for name, settings in WORKLOADS.items()
    }
    configs["qc-biting"] = write_config(
        work / "qc-biting.conf", {**base, **WORKLOADS["louvain-tall"], **QC_BITING}
    )
    configs["pipeline-demo"] = CONFIGS / "pipeline_demo.conf"
    return configs


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
    configs = make_inputs(work)
    for case in CASES:
        outs = []
        for label, src in (("parent", parent), ("change", change)):
            out = work / label / case
            gmmle(src, ["pipeline", "--config", str(configs[case]), "--out", str(out)], work)
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
