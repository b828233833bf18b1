"""The README quickstart, run as written: simulate, pipeline, scatter.

The three commands run through `cli.main` from a fresh directory, with the
shipped configs in `configs/` and their relative `out/` paths.
"""

from pathlib import Path

from gmmle.cli import main
from gmmle.core_matrix import read_matrix_market, write_matrix_market
from gmmle.simulate import adjusted_rand_index

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SIM_ARTIFACTS = [
    "counts.mtx", "counts.features.txt", "counts.cells.txt",
    "truth_cells.tsv", "truth_genes.tsv",
]
RUN_ARTIFACTS = [
    "labels.tsv", "embedding.tsv", "embedding.json", "layout.tsv",
    "qc_report.json", "model.json", "metrics.json", "scatter.svg",
]


def read_tsv_column(path):
    """Second column of a two-column TSV with a header, keyed by the first."""
    rows = [line.split("\t") for line in Path(path).read_text().splitlines()[1:]]
    return {key: int(value) for key, value in rows}


def test_readme_quickstart(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", str(CONFIGS / "sbm_demo.conf")]) == 0
    assert main(["pipeline", "--config", str(CONFIGS / "pipeline_demo.conf")]) == 0
    assert main(["scatter", "out/run/layout.tsv", "out/run/labels.tsv",
                 "out/run/scatter.svg"]) == 0

    assert sorted(p.name for p in Path("out/sim").iterdir()) == sorted(SIM_ARTIFACTS)
    assert sorted(p.name for p in Path("out/run").iterdir()) == sorted(RUN_ARTIFACTS)

    counts = read_matrix_market("out/sim/counts.mtx")
    assert counts.shape == (300, 600)
    write_matrix_market(counts, "again.mtx")
    for written, again in [("counts.mtx", "again.mtx"),
                           ("counts.features.txt", "again.features.txt"),
                           ("counts.cells.txt", "again.cells.txt")]:
        assert Path(again).read_bytes() == Path("out/sim", written).read_bytes()

    truth = read_tsv_column("out/sim/truth_cells.tsv")
    labels = read_tsv_column("out/run/labels.tsv")
    assert set(labels) == set(counts.cell_ids) == set(truth)
    cells = sorted(truth)
    ari = adjusted_rand_index([labels[c] for c in cells], [truth[c] for c in cells])
    assert ari >= 0.95
