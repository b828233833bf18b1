"""Run `gmmle pipeline` in this process with a span around each layer call.

Usage (the benchmark spawns it; PYTHONPATH must point at the source tree):

    python3 bench/traced_pipeline.py SPANS_JSON pipeline --config CFG --out DIR

Every function listed in TRACED is replaced, on every loaded gmmle module
that holds it (so `qc`'s imported `submatrix` is traced too), by a wrapper
that records one span per call: name, id, parent id, start and end time,
resident size at the start, peak RSS at the end, and the counts its probe
reads from the result.  Spans stay in memory and are written to SPANS_JSON
when the run ends.  The command runs through `gmmle.cli.main`, the same
entry point the untraced child uses, so the two runs differ only by the
wrappers.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import sys
import time

# Functions the pipeline reaches, by module; a span is named "<module>.<function>".
# Artifact formatting (`*_to_tsv`, `model_to_json`) is left in `cli.run_pipeline`'s
# self time on purpose.
TRACED = {
    "cli": ("run_pipeline", "write_atomic"),
    "core_matrix": ("read_matrix_market", "submatrix"),
    "qc": ("run_qc",),
    "features": ("dispersion_scores", "select_top_k"),
    "spectral": ("normalized_laplacian", "embed"),
    "mixture": ("select_k", "fit_gmm", "fit_kmeans"),
    "community": ("knn_graph", "louvain", "louvain_trace", "modularity"),
    "layout": ("fuzzy_graph", "optimize_layout"),
}


def _qc_counts(args, kwargs, result):
    report = result[1]
    return {"cells_out": report.cells_out, "features_out": report.features_out}


def _finite_scores(args, kwargs, result):
    return {"finite_scores": sum(math.isfinite(s.score) for s in result)}


def _gmm_counts(args, kwargs, result):
    model = result[0]
    return {"em_iterations": model.n_iterations, "converged": int(model.converged)}


def _edges(args, kwargs, result):
    return {"edges": result.n_edges}


def _written_bytes(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode())}


# Counts read from a call's arguments and result, after its span has closed.
PROBES = {
    "core_matrix.read_matrix_market": lambda args, kwargs, result: {"nnz": result.nnz},
    "qc.run_qc": _qc_counts,
    "features.dispersion_scores": _finite_scores,
    "spectral.embed": lambda args, kwargs, result: {"dimension": result.dimension},
    "mixture.fit_gmm": _gmm_counts,
    "community.knn_graph": _edges,
    "community.louvain_trace": lambda args, kwargs, result: {
        "levels": len(result.level_modularity)
    },
    "layout.fuzzy_graph": _edges,
    "cli.write_atomic": _written_bytes,
}


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _current_rss_kb() -> int:
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * (resource.getpagesize() // 1024)


class Tracer:
    """In-memory span recorder; the open spans form a stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "rss0_kb": _current_rss_kb(),
            }
            self.spans.append(span)
            self._open.append(span["id"])
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["t1"] = time.perf_counter()
                span["rss1_kb"] = _peak_rss_kb()
                self._open.pop()
            if probe is not None:
                span["counts"] = probe(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Swap every traced function for its wrapper in each loaded gmmle module."""
    import gmmle.cli  # noqa: F401 - loads every module the pipeline uses

    modules = [m for n, m in sys.modules.items() if n == "gmmle" or n.startswith("gmmle.")]
    for module_name, names in TRACED.items():
        home = sys.modules[f"gmmle.{module_name}"]
        for fn_name in names:
            original = getattr(home, fn_name, None)
            if original is None:
                raise SystemExit(f"traced function gmmle.{module_name}.{fn_name} does not exist")
            wrapper = tracer.wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import gmmle.cli

    try:
        return gmmle.cli.main(cli_args)
    finally:
        with open(spans_path, "w") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
