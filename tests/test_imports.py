"""What a gmmle process loads.

scipy is used only for sparse matrices.  scipy.linalg and scipy.special take
~0.2 s and ~10 MB to load, and scipy.spatial is not needed by any stage, so
neither importing the CLI, nor a mixture fit, nor a whole BIC-selected GMM
pipeline run may load any of them.
"""

import os
import subprocess
import sys
from pathlib import Path

from gmmle.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

UNLOADED = '("scipy.linalg", "scipy.special", "scipy.spatial")'

FIT_CHILD = f"""
import sys
import numpy as np
import gmmle.cli
loaded = sorted(m for m in {UNLOADED} if m in sys.modules)
assert not loaded, f"importing gmmle.cli loaded {{loaded}}"
from gmmle.mixture import fit_gmm
points = np.array(
    [[0.0, 0.1], [0.2, 0.0], [0.1, 0.2], [5.0, 5.1], [5.2, 5.0], [5.1, 5.2]]
)
model, labels = fit_gmm(points, 2, seed=0)
assert labels.n_clusters == 2 and len(labels) == 6
loaded = sorted(m for m in {UNLOADED} if m in sys.modules)
assert not loaded, f"fit_gmm loaded {{loaded}}"
"""

PIPELINE_CHILD = f"""
import sys
from gmmle.cli import main
assert main(["pipeline", "--config", sys.argv[1]]) == 0
loaded = sorted(m for m in {UNLOADED} if m in sys.modules)
assert not loaded, f"a BIC GMM pipeline run loaded {{loaded}}"
"""

SIM_CONF = """
sbm.rates = 5,0.5; 0.5,5
sbm.gene_block_sizes = 40,40
sbm.cell_block_sizes = 50,50
sbm.seed = 0
output.directory = {out}
"""

PIPE_CONF = """
input.path = {mtx}
qc.enable = true
qc.min_cells_per_feature = 1
qc.min_features_per_cell = 1
qc.max_top_share = 1.0
qc.max_mito_share = none
qc.max_ribo_share = none
features.top_k = 60
cluster.method = gmm
cluster.k_strategy = bic
cluster.k_range = 1:3
layout.enable = false
output.directory = {out}
"""


def run_child(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    run_child(FIT_CHILD)


def test_bic_gmm_pipeline_leaves_heavy_scipy_modules_unloaded(tmp_path):
    sim_conf = tmp_path / "sim.conf"
    sim_conf.write_text(SIM_CONF.format(out=tmp_path / "sim"))
    assert main(["simulate", "--config", str(sim_conf)]) == 0
    pipe_conf = tmp_path / "pipe.conf"
    pipe_conf.write_text(
        PIPE_CONF.format(mtx=tmp_path / "sim" / "counts.mtx", out=tmp_path / "run")
    )
    run_child(PIPELINE_CHILD, str(pipe_conf))
    assert (tmp_path / "run" / "model.json").exists()
