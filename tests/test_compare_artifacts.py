"""tools/compare_artifacts.py: the byte-identity check between two trees."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_artifacts.py"

spec = importlib.util.spec_from_file_location("compare_artifacts", TOOL)
compare_artifacts = importlib.util.module_from_spec(spec)
# importing the tool imports bench/run.py, which pins BLAS and huge-page
# variables in os.environ; keep them out of this test process
with mock.patch.dict(os.environ):
    spec.loader.exec_module(compare_artifacts)


def test_tree_against_itself(tmp_path):
    result = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT / "src"), str(ROOT / "src"), "--work", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    cases = list(compare_artifacts.SIMULATIONS) + list(compare_artifacts.CASES)
    assert [line.split(":")[0] for line in lines] == cases
    assert all(line.endswith("byte-identical") for line in lines)
    # each tree drew both block models itself, and wrote every simulator file
    for _, out in compare_artifacts.SIMULATIONS.values():
        for root in (tmp_path, tmp_path / "change-simulate"):
            names = {p.name for p in (root / out).iterdir()}
            assert names == set(compare_artifacts.SIMULATED_FILES)
    # both trees wrote every file of the qc and validate commands
    for case, files in compare_artifacts.COMMAND_FILES.items():
        for label in ("parent", "change"):
            assert {p.name for p in (tmp_path / label / case).iterdir()} == set(files)
    # the QC-biting config does remove features and cells
    report = json.loads((tmp_path / "change" / "qc-biting" / "qc_report.json").read_text())
    assert (report["features_removed_low_cell_count"], report["cells_removed"]) == (75, 214)
    # and so do the same thresholds in `gmmle qc`
    report = json.loads((tmp_path / "change" / "qc-command" / "qc_report.json").read_text())
    assert (report["features_removed_low_cell_count"], report["cells_removed"]) == (75, 214)


def test_compare_dirs_ignores_only_timings_and_memory(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, seconds in ((a, 1.5), (b, 2.5)):
        out.mkdir()
        (out / "labels.tsv").write_text("cell_id\tcluster\nc0\t0\n")
        metrics = {"stages": {"qc": {"n_cells": 4}}, "timings_sec": {"qc": seconds},
                   "peak_rss_mb": {"qc": seconds}, "rss_mb": {"qc": seconds}}
        (out / "metrics.json").write_text(json.dumps(metrics))
    assert compare_artifacts.compare_dirs(a, b) == []
    (b / "labels.tsv").write_text("cell_id\tcluster\nc0\t1\n")
    (b / "metrics.json").write_text(json.dumps({"stages": {"qc": {"n_cells": 3}}}))
    (b / "layout.tsv").write_text("")
    assert compare_artifacts.compare_dirs(a, b) == [
        "labels.tsv", "layout.tsv (only in one run)", "metrics.json",
    ]


def test_compare_simulations_needs_every_simulator_file(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        for name in compare_artifacts.SIMULATED_FILES:
            (out / name).write_text(f"{name}\n")
    assert compare_artifacts.compare_simulations(a, b) == []
    (b / "counts.mtx").write_text("changed\n")
    (b / "truth_genes.tsv").unlink()
    (a / "counts.cells.txt").unlink()
    (b / "counts.cells.txt").unlink()
    assert compare_artifacts.compare_simulations(a, b) == [
        "counts.mtx", "truth_genes.tsv (only in one run)", "counts.cells.txt (in neither run)",
    ]
