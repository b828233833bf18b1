#!/usr/bin/env python3
"""Benchmark of the `gmmle pipeline` command on simulated block-model data.

    python3 bench/run.py --workload louvain-tall --seed 1 --seconds 40 --trace 0

One run starts `gmmle pipeline` children one at a time (closed loop, one
client) until --seconds have passed, and checks every child's artifacts.
The first children each follow a set-up: the input drawn from --seed with
`sample_sbm`, written with the workload's config.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 each untraced child is
followed by a traced one and the run reports per-layer metrics from the
spans that bench/traced_pipeline.py records.
The last line of standard output is one JSON object; everything above it
is for people.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools read these when numpy loads, so they are set before the
# import below.  numpy would otherwise ask for transparent huge pages on large
# arrays, and whether the kernel grants them varies from minute to minute,
# which moved the peak RSS of identical runs by 16 MB.  Every pipeline child
# gets the same values, plus a fixed hash seed so that dict and set layouts
# do not vary between children.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
CHILD_ENV = {**PINNED_ENV, "PYTHONHASHSEED": "0"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from traced_pipeline import TRACED  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# A run must end within 180 s; a child still running at this point is killed.
RUN_DEADLINE_S = 170.0
STARTED = time.perf_counter()

# Simulated data needs no quality filtering, so QC only drops empty rows and
# columns.  Stage seeds are fixed: the workload seed changes only the input.
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

# Both workloads read one input: 300 genes x 2500 cells in 5 blocks of 60
# genes and 500 cells, Poisson rate 5 where a gene block meets its cell block
# and 0.5 elsewhere.
N_BLOCKS = 5
GENE_BLOCKS = (60,) * N_BLOCKS
CELL_BLOCKS = (500,) * N_BLOCKS
IN_RATE, OUT_RATE = 5.0, 0.5

# Spans every workload runs through.
CORE_SPANS = (
    "cli.run_pipeline", "cli.write_atomic", "core_matrix.read_matrix_market",
    "core_matrix.submatrix", "qc.run_qc", "features.dispersion_scores",
    "features.select_top_k", "spectral.normalized_laplacian", "spectral.embed",
    "community.knn_graph", "community.modularity",
)


@dataclass(frozen=True)
class Workload:
    why: str
    settings: dict[str, str]  # pipeline config keys beyond COMMON_SETTINGS
    spans: tuple[str, ...]  # traced functions it must call; all others must not run

    def layout_on(self) -> bool:
        return self.settings["layout.enable"] == "true"

    def gmm(self) -> bool:
        return self.settings["cluster.method"] == "gmm"


WORKLOADS = {
    # kNN (twice), Louvain, the fuzzy graph and the layout are most of the
    # run; no mixture is fitted.  Resolution 0.5 recovers the 5 blocks; at
    # 1.0 Louvain splits them into 9-10 communities and the ARI moves with
    # the seed.
    "louvain-tall": Workload(
        why="kNN, Louvain and the 2-D layout dominate; no mixture is fitted",
        settings={
            "features.top_k": "200",
            "cluster.method": "louvain",
            "cluster.resolution": "0.5",
            "layout.enable": "true",
            "layout.epochs": "200",
        },
        spans=CORE_SPANS + (
            "community.louvain", "community.louvain_trace",
            "layout.fuzzy_graph", "layout.optimize_layout",
        ),
    ),
    # The same input through BIC selection of a GMM with the layout off:
    # one kNN call, no Louvain, no layout.  The K range stops at the true
    # block count, because EM with more components than blocks runs a
    # seed-dependent 60-500 iterations per restart.
    "gmm-bic-tall": Workload(
        why="same input through BIC GMM selection; one kNN call, no Louvain, no layout",
        settings={
            "features.top_k": "200",
            "cluster.method": "gmm",
            "cluster.k_strategy": "bic",
            "cluster.k_range": "2:5",
            "layout.enable": "false",
        },
        spans=CORE_SPANS + ("mixture.select_k", "mixture.fit_gmm", "mixture.fit_kmeans"),
    ),
}

END_TO_END_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ari": "index"}

SECONDS, COUNT = "s", "count"
PER_LAYER_UNITS = {
    "simulate.sample_sbm.s": SECONDS,
    "setup.write_input.s": SECONDS,
    "core_matrix.read_matrix_market.s": SECONDS,
    "core_matrix.read.mb_per_s": "MB/s",
    "core_matrix.read.rss_growth_mb": "MB",
    "core_matrix.nnz": COUNT,
    "core_matrix.submatrix.s": SECONDS,
    "qc.run_qc.s": SECONDS,
    "qc.cells_out": COUNT,
    "qc.features_out": COUNT,
    "features.dispersion_scores.s": SECONDS,
    "features.select_top_k.s": SECONDS,
    "features.finite_scores": COUNT,
    "spectral.normalized_laplacian.s": SECONDS,
    "spectral.embed.s": SECONDS,
    "spectral.dimension": COUNT,
    "mixture.select_k.s": SECONDS,
    "mixture.fit_gmm.s": SECONDS,
    "mixture.fit_gmm.calls": COUNT,
    "mixture.fit_kmeans.s": SECONDS,
    "mixture.fit_kmeans.calls": COUNT,
    "mixture.em_iterations": COUNT,
    "mixture.converged_share": "share",
    "community.knn_graph.s": SECONDS,
    "community.knn_graph.calls": COUNT,
    "community.knn_graph.edges": COUNT,
    "community.louvain.s": SECONDS,
    "community.louvain.levels": COUNT,
    "community.modularity.s": SECONDS,
    "layout.fuzzy_graph.s": SECONDS,
    "layout.fuzzy_graph.edges": COUNT,
    "layout.optimize_layout.s": SECONDS,
    "cli.run_pipeline.s": SECONDS,
    "cli.self.s": SECONDS,
    "cli.write_atomic.s": SECONDS,
    "cli.write_atomic.bytes": "bytes",
    "trace.overhead_s": SECONDS,
}

# `louvain` only forwards to `louvain_trace`; both count as the Louvain layer.
LAYER_OF_SPAN = {"community.louvain_trace": "community.louvain"}
ARTIFACTS = ("labels.tsv", "embedding.tsv", "layout.tsv", "model.json")


class BenchmarkError(RuntimeError):
    """The run cannot produce a trustworthy result."""


class CheckFailed(Exception):
    """One pipeline run's artifacts are wrong."""


@dataclass
class Inputs:
    config_path: Path
    input_bytes: int
    truth: dict[str, int]  # cell id -> true block
    sample_s: float
    write_s: float


@dataclass
class Rep:
    wall_s: float
    peak_rss_mb: float
    ari: float | None = None
    failure: str | None = None


@dataclass
class Tally:
    reference: dict[str, str] | None = None  # artifact hashes of the first good run
    reps: list[Rep] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(rep.failure is not None for rep in self.reps)


def set_up(workload: Workload, seed: int, work_dir: Path) -> Inputs:
    """Sample the block model, write the input file and the pipeline config."""
    from gmmle import core_matrix, simulate

    started = time.perf_counter()
    rates = np.where(np.eye(N_BLOCKS, dtype=bool), IN_RATE, OUT_RATE)
    sample = simulate.sample_sbm(simulate.SbmConfig(rates, GENE_BLOCKS, CELL_BLOCKS, seed=seed))
    sampled = time.perf_counter()
    matrix = sample.matrix
    input_path = work_dir / "counts.mtx"
    core_matrix.write_matrix_market(matrix, input_path)
    settings = {"input.path": str(input_path), "input.format": "matrix_market"}
    settings.update(COMMON_SETTINGS)
    settings.update(workload.settings)
    config_path = work_dir / "pipeline.conf"
    config_path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    written = time.perf_counter()
    return Inputs(
        config_path=config_path,
        input_bytes=input_path.stat().st_size,
        truth=dict(zip(matrix.cell_ids, sample.cell_labels.labels.tolist())),
        sample_s=sampled - started,
        write_s=written - sampled,
    )


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], log_path: Path) -> tuple[float, float, int]:
    """Run one child to exit; returns (wall seconds, peak RSS in MB, exit code)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(log_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    started = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
    pidfd = os.pidfd_open(pid)
    timed_out = True
    try:
        budget = max(0.0, STARTED + RUN_DEADLINE_S - time.perf_counter())
        timed_out = not select.select([pidfd], [], [], budget)[0]
    finally:
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        # wait4 gives this child's own peak RSS, where getrusage(RUSAGE_CHILDREN)
        # would give the largest over every child reaped so far.
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - started
        os.close(pidfd)
    code = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, (-signal.SIGKILL if timed_out else code)


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Pair-counting ARI, written here so the check does not use the code it checks."""
    _, a = np.unique(np.asarray(labels_a), return_inverse=True)
    _, b = np.unique(np.asarray(labels_b), return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1), dtype=np.int64)
    np.add.at(table, (a, b), 1)

    def pairs(x):
        return float((x * (x - 1) // 2).sum())

    index, rows, cols = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / (a.size * (a.size - 1) / 2)
    maximum = (rows + cols) / 2
    return 1.0 if maximum == expected else (index - expected) / (maximum - expected)


def read_tsv(path: Path, header: tuple[str, ...]) -> list[list[str]]:
    lines = path.read_text().splitlines()
    if not lines or tuple(lines[0].split("\t")) != header:
        raise CheckFailed(f"{path.name}: header is not {header}")
    rows = [line.split("\t") for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise CheckFailed(f"{path.name}: ragged row")
    return rows


def check_outputs(out_dir: Path, workload: Workload, inputs: Inputs) -> tuple[float, dict[str, str]]:
    """Validate one run's artifacts; returns (ARI, artifact hashes)."""
    try:
        metrics = json.loads((out_dir / "metrics.json").read_text())
        kept = metrics["stages"]["features"]["n_cells"]
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise CheckFailed(f"metrics.json unreadable: {err}") from None
    expected = ["labels.tsv", "embedding.tsv"]
    expected += ["layout.tsv"] if workload.layout_on() else []
    expected += ["model.json"] if workload.gmm() else []
    missing = [name for name in expected if not (out_dir / name).is_file()]
    if missing:
        raise CheckFailed(f"missing artifacts {missing}")

    labels = read_tsv(out_dir / "labels.tsv", ("cell_id", "cluster"))
    if len(labels) != kept:
        raise CheckFailed(f"labels.tsv has {len(labels)} rows for {kept} kept cells")
    ids = [row[0] for row in labels]
    if len(set(ids)) != len(ids):
        raise CheckFailed("labels.tsv repeats a cell id")
    unknown = [cid for cid in ids if cid not in inputs.truth]
    if unknown:
        raise CheckFailed(f"labels.tsv names cells not in the input, e.g. {unknown[:3]}")
    try:
        predicted = [int(row[1]) for row in labels]
    except ValueError:
        raise CheckFailed("labels.tsv has a non-integer cluster") from None
    ari = adjusted_rand_index(predicted, [inputs.truth[cid] for cid in ids])

    if workload.layout_on():
        rows = read_tsv(out_dir / "layout.tsv", ("cell_id", "x", "y"))
        if sorted(row[0] for row in rows) != sorted(ids):
            raise CheckFailed("layout.tsv covers other cells than labels.tsv")
        try:
            finite = all(math.isfinite(float(v)) for row in rows for v in row[1:])
        except ValueError:
            finite = False
        if not finite:
            raise CheckFailed("layout.tsv has a non-finite coordinate")

    hashes = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ARTIFACTS if (out_dir / name).is_file()
    }
    return ari, hashes


def pipeline_argv(traced: bool, config: Path, out_dir: Path, spans: Path) -> list[str]:
    command = ["pipeline", "--config", str(config), "--out", str(out_dir)]
    if traced:
        return [sys.executable, str(BENCH_DIR / "traced_pipeline.py"), str(spans)] + command
    return [sys.executable, "-m", "gmmle.cli"] + command


def run_once(tally: Tally, workload: Workload, inputs: Inputs, rep_dir: Path,
             traced: bool) -> Rep:
    """One pipeline child, checked and compared with the first good run."""
    rep_dir.mkdir(parents=True)
    out_dir = rep_dir / "out"
    argv = pipeline_argv(traced, inputs.config_path, out_dir, rep_dir / "spans.json")
    wall, rss, code = spawn(argv, rep_dir / "child.log")
    rep = Rep(wall, rss)
    try:
        if code != 0:
            log = (rep_dir / "child.log").read_text().strip().splitlines()
            raise CheckFailed(f"exit code {code}: {log[-1] if log else ''}")
        rep.ari, hashes = check_outputs(out_dir, workload, inputs)
        if tally.reference is None:
            tally.reference = hashes
        elif hashes != tally.reference:
            differ = sorted(k for k in hashes.keys() | tally.reference.keys()
                            if hashes.get(k) != tally.reference.get(k))
            raise CheckFailed(f"artifacts differ from the first run: {differ}")
    except CheckFailed as err:
        rep.failure = f"{'traced' if traced else 'untraced'} run {rep_dir.name}: {err}"
        print(f"FAILED {rep.failure}", file=sys.stderr)
    tally.reps.append(rep)
    return rep


def span_metrics(spans: list[dict], workload: Workload, inputs: Inputs) -> dict[str, float]:
    """Per-layer metrics of one traced run, after checking the span tree."""
    names = Counter(span["name"] for span in spans)
    missing = [name for name in workload.spans if names[name] == 0]
    unexpected = [
        f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns
        if f"{module}.{fn}" not in workload.spans and names[f"{module}.{fn}"]
    ]
    if missing or unexpected:
        raise BenchmarkError(
            f"trace coverage: spans missing {missing}, spans that should not run "
            f"{unexpected}; a layer is no longer called through its module attribute "
            "or the pipeline's path changed"
        )

    duration = {span["id"]: span["t1"] - span["t0"] for span in spans}
    inner = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            inner[span["parent"]] += duration[span["id"]]
    self_time = {sid: duration[sid] - inner[sid] for sid in duration}
    roots = [span for span in spans if span["parent"] is None]
    if [span["name"] for span in roots] != ["cli.run_pipeline"]:
        raise BenchmarkError(f"trace: expected one cli.run_pipeline root, got {roots}")
    root = roots[0]["id"]
    if min(self_time.values()) < -1e-9 or abs(sum(self_time.values()) - duration[root]) > 1e-6:
        raise BenchmarkError("trace: self times do not add up to cli.run_pipeline")

    layer_s = defaultdict(float)
    counts: dict[str, Counter] = defaultdict(Counter)
    for span in spans:
        layer_s[LAYER_OF_SPAN.get(span["name"], span["name"])] += self_time[span["id"]]
        counts[span["name"]].update(span.get("counts", {}))
    reads = [span for span in spans if span["name"] == "core_matrix.read_matrix_market"]
    read_s = sum(duration[span["id"]] for span in reads)
    fits = names["mixture.fit_gmm"]

    metrics = {f"{name}.s": layer_s[name] for name in (
        "core_matrix.read_matrix_market",
        "core_matrix.submatrix", "qc.run_qc", "features.dispersion_scores",
        "features.select_top_k", "spectral.normalized_laplacian", "spectral.embed",
        "mixture.select_k", "mixture.fit_gmm", "mixture.fit_kmeans",
        "community.knn_graph", "community.louvain", "community.modularity",
        "layout.fuzzy_graph", "layout.optimize_layout", "cli.write_atomic",
    )}
    metrics.update({
        "simulate.sample_sbm.s": inputs.sample_s,
        "setup.write_input.s": inputs.write_s,
        "core_matrix.read.mb_per_s": inputs.input_bytes / 1e6 / read_s,
        "core_matrix.read.rss_growth_mb":
            sum(span["rss1_kb"] - span["rss0_kb"] for span in reads) / 1024.0,
        "core_matrix.nnz": counts["core_matrix.read_matrix_market"]["nnz"],
        "qc.cells_out": counts["qc.run_qc"]["cells_out"],
        "qc.features_out": counts["qc.run_qc"]["features_out"],
        "features.finite_scores": counts["features.dispersion_scores"]["finite_scores"],
        "spectral.dimension": counts["spectral.embed"]["dimension"],
        "mixture.fit_gmm.calls": fits,
        "mixture.fit_kmeans.calls": names["mixture.fit_kmeans"],
        "mixture.em_iterations": counts["mixture.fit_gmm"]["em_iterations"],
        "mixture.converged_share":
            counts["mixture.fit_gmm"]["converged"] / fits if fits else 0.0,
        "community.knn_graph.calls": names["community.knn_graph"],
        "community.knn_graph.edges": counts["community.knn_graph"]["edges"],
        "community.louvain.levels": counts["community.louvain_trace"]["levels"],
        "layout.fuzzy_graph.edges": counts["layout.fuzzy_graph"]["edges"],
        "cli.run_pipeline.s": duration[root],
        "cli.self.s": self_time[root],
        "cli.write_atomic.bytes": counts["cli.write_atomic"]["bytes"],
    })
    return metrics


def median(values) -> float:
    return float(statistics.median(values))


def measure(workload: Workload, seed: int, seconds: float, work_dir: Path,
            traced: bool) -> tuple[Tally, dict[str, float]]:
    """Rounds of one untraced pipeline child, plus a traced one when tracing,
    until --seconds have passed.  The first rounds each start with a set-up:
    SETUP_REPEATS of them untraced, one when tracing."""
    tally = Tally()
    setups: list[Inputs] = []
    layer_runs: list[dict[str, float]] = []
    overheads: list[float] = []
    setup_rounds = 1 if traced else SETUP_REPEATS
    started = time.perf_counter()
    rounds = 0
    while rounds < setup_rounds or time.perf_counter() - started < seconds:
        round_dir = work_dir / f"round{rounds}"
        rounds += 1
        if len(setups) < setup_rounds:
            setups.append(set_up(workload, seed, work_dir))
        inputs = setups[-1]
        plain = run_once(tally, workload, inputs, round_dir / "untraced", traced=False)
        if traced:
            rep = run_once(tally, workload, inputs, round_dir / "traced", traced=True)
            if rep.failure is not None:
                raise BenchmarkError(f"traced run failed: {rep.failure}")
            spans = json.loads((round_dir / "traced" / "spans.json").read_text())
            layer_runs.append(span_metrics(spans, workload, inputs))
            overheads.append(rep.wall_s - plain.wall_s)

    walls = [rep.wall_s for rep in tally.reps]
    print(f"pipeline_s samples: {len(walls)}  {['%.3f' % w for w in walls]}")
    print(f"setup_s samples: {len(setups)}  "
          f"{['%.3f' % (s.sample_s + s.write_s) for s in setups]}")
    if traced:
        print(f"trace.overhead_s samples: {['%.3f' % o for o in overheads]}")
        metrics = {name: median(run[name] for run in layer_runs) for name in layer_runs[0]}
        metrics["trace.overhead_s"] = median(overheads)
        return tally, metrics
    aris = [rep.ari for rep in tally.reps if rep.ari is not None]
    if not aris:
        raise BenchmarkError("no pipeline run produced checkable labels")
    return tally, {
        "pipeline_s": median(walls),
        "setup_s": median(s.sample_s + s.write_s for s in setups),
        "peak_rss_mb": median(rep.peak_rss_mb for rep in tally.reps),
        "ari": median(aris),
    }


def openblas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "child_env": CHILD_ENV,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_version(),
    }


def check_against_spec(workload_name: str, units: dict[str, str], section: str) -> None:
    """The reported metrics must be the ones BENCHMARK.json declares."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text())
    declared = {entry["name"]: entry["unit"] for entry in spec[section]}
    if declared != units:
        raise BenchmarkError(f"BENCHMARK.json {section} does not match the metrics reported")
    if workload_name not in {entry["name"] for entry in spec["workloads"]}:
        raise BenchmarkError(f"workload {workload_name} is not in BENCHMARK.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gmmle" / "cli.py").is_file():
        print(f"error: no gmmle source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    work_dir = BENCH_DIR / "_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        check_against_spec(args.workload, units, "per_layer" if args.trace else "end_to_end")
        tally, metrics = measure(workload, args.seed, args.seconds, work_dir, bool(args.trace))
        if set(metrics) != set(units):
            raise BenchmarkError(f"reported metrics differ from the declared ones: "
                                 f"{sorted(set(metrics) ^ set(units))}")
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    attempted, failed = len(tally.reps), tally.failed
    print(f"workload {args.workload}: {workload.why}")
    print(f"env {json.dumps(environment(args.seed), sort_keys=True)}")
    print(f"failed_share {failed / attempted:.4f} ({failed} of {attempted} runs)")
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
