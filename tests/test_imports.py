"""What a gmmle process loads at start-up.

scipy.linalg and scipy.special take ~0.2 s to import and only mixture fits
use them, so they are imported inside ``mixture.log_responsibilities``;
scipy.spatial is not needed by any stage.  A top-level import of any of
them would add its load time to every run.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import sys
import numpy as np
import gmmle.cli
loaded = sorted(m for m in ("scipy.linalg", "scipy.special", "scipy.spatial")
                if m in sys.modules)
assert not loaded, f"importing gmmle.cli loaded {loaded}"
from gmmle.mixture import fit_gmm
points = np.array(
    [[0.0, 0.1], [0.2, 0.0], [0.1, 0.2], [5.0, 5.1], [5.2, 5.0], [5.1, 5.2]]
)
model, labels = fit_gmm(points, 2, seed=0)
assert labels.n_clusters == 2 and len(labels) == 6
assert "scipy.linalg" in sys.modules and "scipy.special" in sys.modules
"""


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
