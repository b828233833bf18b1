import json
import os
import stat
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gmmle import cli, community, core_matrix, features, layout, mixture, qc, spectral, validate
from gmmle.cli import (
    _KEY_SUFFIX, ConfigError, PIPELINE_SCHEMA, StageError, build_stage_configs, main,
    parse_config_text, run_pipeline, write_atomic,
)
from gmmle.community import exact_knn, knn_graph
from gmmle.simulate import adjusted_rand_index


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SIM_CONF = """
sbm.rates = 5,0.5,0.5; 0.5,5,0.5; 0.5,0.5,5
sbm.gene_block_sizes = 60,60,60
sbm.cell_block_sizes = 70,70,70
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
features.top_k = 120
cluster.method = gmm
cluster.k_strategy = fixed
cluster.k = 3
layout.enable = true
layout.epochs = 60
output.directory = {out}
"""


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sim")
    conf = tmp / "sim.conf"
    conf.write_text(SIM_CONF.format(out=tmp / "data"))
    assert main(["simulate", "--config", str(conf)]) == 0
    return tmp / "data"


def write_sparse_8x10(tmp_path):
    """8 features x 10 cells, one count per cell: every feature mean is
    below 1, so no feature has a finite overdispersion score."""
    mtx = tmp_path / "sparse.mtx"
    entries = [f"{cell % 8 + 1} {cell + 1} 1" for cell in range(10)]
    mtx.write_text(
        "%%MatrixMarket matrix coordinate integer general\n"
        f"8 10 {len(entries)}\n" + "\n".join(entries) + "\n"
    )
    return mtx


def read_labels(path):
    rows = [line.split("\t") for line in Path(path).read_text().splitlines()[1:]]
    return {cid: int(lab) for cid, lab in rows}


class TestConfigParsing:
    def test_unknown_key_is_hard_error(self):
        raw = parse_config_text("input.path = x\nspectral.setting = 3\n")
        with pytest.raises(ConfigError, match="spectral.setting"):
            PIPELINE_SCHEMA.apply(raw)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="input.path"):
            PIPELINE_SCHEMA.apply(parse_config_text("qc.enable = true\n"))

    def test_bad_value_names_key(self):
        raw = parse_config_text("input.path = x\nfeatures.top_k = lots\n")
        with pytest.raises(ConfigError, match="features.top_k"):
            PIPELINE_SCHEMA.apply(raw)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a.b = 1\na.b = 2\n")

    def test_comments_and_blanks_ignored(self):
        raw = parse_config_text("# heading\n\ninput.path = x\n")
        assert raw == {"input.path": "x"}

    def test_defaults_mirror_documented_values(self):
        values = PIPELINE_SCHEMA.apply(parse_config_text("input.path = x\n"))
        _, policy, layout_params = build_stage_configs(values)
        assert values["features.top_k"] == 2000
        assert policy.energy_threshold == 0.01
        assert policy.drop_first is True
        assert policy.scaling_mode == "sqrt"
        assert layout_params.n_neighbors == 15
        assert layout_params.epochs == 200


class TestSimulateCommand:
    def test_artifacts_exist(self, sim_dir):
        for name in (
            "counts.mtx",
            "counts.features.txt",
            "counts.cells.txt",
            "truth_cells.tsv",
            "truth_genes.tsv",
        ):
            assert (sim_dir / name).exists()

    def test_rerun_identical(self, sim_dir, tmp_path):
        conf = tmp_path / "sim.conf"
        conf.write_text(SIM_CONF.format(out=tmp_path / "data"))
        assert main(["simulate", "--config", str(conf)]) == 0
        assert (tmp_path / "data" / "counts.mtx").read_bytes() == (
            sim_dir / "counts.mtx"
        ).read_bytes()

    def test_zero_rate_config(self, tmp_path):
        conf = write_config(
            tmp_path,
            "zero.conf",
            "sbm.rates = 0\nsbm.gene_block_sizes = 5\nsbm.cell_block_sizes = 5\n"
            f"output.directory = {tmp_path / 'z'}\n",
        )
        assert main(["simulate", "--config", conf]) == 0
        text = (tmp_path / "z" / "counts.mtx").read_text()
        assert text.splitlines()[1] == "5 5 0"

    @pytest.mark.parametrize("old,new,message", [
        ("sbm.seed = 0", "sbm.seed = 0\nsbm.cell_total = 7",
         "config key sbm.cell_total applies only to mode multinomial"),
        ("0.5,0.5,5", "0.5,0.5,700.5",
         "config key sbm.rates entry (gene block 2, cell block 2) = 700.5 is above 700"),
    ], ids=["cell-total-in-poisson-mode", "rate-above-700"])
    def test_rejected_setting_creates_no_out_dir(self, tmp_path, capsys, old, new, message):
        text = SIM_CONF.format(out=tmp_path / "data")
        assert old in text
        conf = write_config(tmp_path, "bad.conf", text.replace(old, new))
        assert main(["simulate", "--config", conf]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "data").exists()


class TestPipelineCommand:
    def test_end_to_end_recovers_blocks(self, sim_dir, tmp_path):
        out = tmp_path / "run"
        conf = write_config(
            tmp_path, "pipe.conf",
            PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=out),
        )
        assert main(["pipeline", "--config", conf]) == 0
        got = read_labels(out / "labels.tsv")
        truth = read_labels(sim_dir / "truth_cells.tsv")
        cells = sorted(got)
        ari = adjusted_rand_index(
            np.array([got[c] for c in cells]), np.array([truth[c] for c in cells])
        )
        assert ari >= 0.95
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["stages"]["cluster"]["n_clusters"] == 3
        assert "modularity_knn" in metrics
        assert metrics["stages"]["cluster"]["knn_k"] == 20
        # one search at max(knn_k, n_neighbors)
        assert metrics["stages"]["neighbours"] == {"k": 20}
        stage = metrics["stages"]["layout"]
        assert set(stage) == {"n_neighbors", "fuzzy_edges", "edge_visits"}
        assert stage["n_neighbors"] == 15
        assert stage["fuzzy_edges"] > 0
        # every edge is due at least once over 60 epochs
        assert stage["edge_visits"] >= stage["fuzzy_edges"]
        assert (out / "embedding.tsv").exists()
        assert (out / "layout.tsv").exists()
        assert (out / "qc_report.json").exists()

    def test_unknown_key_exits_nonzero_without_outputs(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "run2"
        conf = write_config(
            tmp_path, "bad.conf",
            PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=out) + "qc.bogus = 1\n",
        )
        assert main(["pipeline", "--config", conf]) == 1
        assert "qc.bogus" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_byte_identical(self, sim_dir, tmp_path):
        confs = []
        for name in ("a", "b"):
            out = tmp_path / name
            confs.append(
                write_config(
                    tmp_path, f"{name}.conf",
                    PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=out),
                )
            )
        assert main(["pipeline", "--config", confs[0]]) == 0
        assert main(["pipeline", "--config", confs[1]]) == 0
        for artifact in ("labels.tsv", "layout.tsv", "embedding.tsv"):
            assert (tmp_path / "a" / artifact).read_bytes() == (
                tmp_path / "b" / artifact
            ).read_bytes()

        def key_structure(node):
            if isinstance(node, dict):
                return [(k, key_structure(v)) for k, v in node.items()]
            return None

        metrics = [
            json.loads((tmp_path / run / "metrics.json").read_text())
            for run in ("a", "b")
        ]
        # values include wall times, but key names and ordering are stable
        assert key_structure(metrics[0]) == key_structure(metrics[1])

    @pytest.mark.parametrize("key, value", [
        ("layout.epochs", "0"),
        ("layout.epochs", "-3"),
        ("layout.negative_samples", "-1"),
        ("layout.n_neighbors", "0"),
    ])
    def test_bad_layout_setting_fails_before_ingest(
        self, sim_dir, tmp_path, capsys, key, value
    ):
        out = tmp_path / "bad_layout"
        conf = write_config(
            tmp_path, "bad_layout.conf",
            PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=out)
            .replace("layout.epochs = 60\n", "")
            + f"{key} = {value}\n",
        )
        assert main(["pipeline", "--config", conf]) == 1
        err = capsys.readouterr().err
        assert f"config key {key} must be" in err
        assert not (out / "labels.tsv").exists()
        values = PIPELINE_SCHEMA.apply(parse_config_text(Path(conf).read_text()))
        # a ConfigError, not a StageError: no stage has started
        with pytest.raises(ConfigError, match=key):
            run_pipeline(values, out, None)

    def test_bad_layout_setting_ignored_when_layout_off(self, sim_dir, tmp_path):
        out = tmp_path / "layout_off"
        conf = write_config(
            tmp_path, "layout_off.conf",
            PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=out)
            .replace("layout.enable = true", "layout.enable = false")
            .replace("layout.epochs = 60", "layout.epochs = 0"),
        )
        assert main(["pipeline", "--config", conf]) == 0
        assert not (out / "layout.tsv").exists()
        assert "layout" not in json.loads((out / "metrics.json").read_text())["stages"]

    @pytest.mark.parametrize("old, new, message", [
        ("layout.epochs = 60", "layout.epochs = 0", "layout.epochs"),
        ("cluster.k_strategy = fixed", "cluster.k_strategy = bic", "needs cluster.k_range"),
        (
            "cluster.method = gmm\ncluster.k_strategy = fixed",
            "cluster.method = kmeans\ncluster.k_strategy = bic\ncluster.k_range = 2:4",
            "requires cluster.method=gmm",
        ),
        ("qc.max_top_share = 1.0", "qc.max_top_share = 0", "config key qc.max_top_share"),
        (
            "features.top_k = 120",
            "features.top_k = 120\nspectral.energy_threshold = 0",
            "config key spectral.energy_threshold",
        ),
        (
            "features.top_k = 120",
            "features.top_k = 120\nspectral.energy_threshold = 1.5",
            "config key spectral.energy_threshold",
        ),
        ("features.top_k = 120", "features.top_k = 0", "config key features.top_k"),
        ("cluster.k = 3", "cluster.k = 0", "config key cluster.k "),
        ("cluster.k = 3", "cluster.k = 3\ncluster.knn_k = 0", "config key cluster.knn_k"),
        (
            "cluster.k_strategy = fixed",
            "cluster.k_strategy = bic\ncluster.k_range = 0:3",
            "config key cluster.k_range",
        ),
        (
            "cluster.k_strategy = fixed",
            "cluster.k_strategy = bic\ncluster.k_range = 5:2",
            "config key 'cluster.k_range': empty range '5:2'",
        ),
        (
            "cluster.k_strategy = fixed",
            "cluster.k_strategy = bic\ncluster.k_range = ,",
            "config key 'cluster.k_range': empty range ','",
        ),
    ] + [
        (
            "cluster.method = gmm",
            f"cluster.method = louvain\ncluster.resolution = {resolution}",
            "config key cluster.resolution must be finite and > 0",
        )
        for resolution in ("nan", "inf", "0", "-1")
    ] + [
        ("counts.mtx", "nope.mtx", "input.path does not exist"),
        ("qc.max_mito_share = none", "qc.max_mito_share = 0.1\nqc.mito_prefix =",
         "config key qc.mito_prefix must not be empty"),
    ], ids=[
        "layout-epochs", "bic-without-range", "bic-without-gmm", "qc-top-share",
        "energy-zero", "energy-above-one", "top-k", "cluster-k", "knn-k", "k-range",
        "k-range-empty", "k-range-empty-list",
        "resolution-nan", "resolution-inf", "resolution-zero", "resolution-negative",
        "missing-input", "mito-prefix-empty",
    ])
    def test_rejected_config_creates_no_out_dir(
        self, sim_dir, tmp_path, capsys, old, new, message
    ):
        out = tmp_path / "runout"
        text = PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=tmp_path / "unused")
        assert old in text
        conf = write_config(tmp_path, "rejected.conf", text.replace(old, new))
        assert main(["pipeline", "--config", conf, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "unused").exists()

    def test_one_restriction_per_stage(self, sim_dir, tmp_path, monkeypatch):
        callers = []
        restrict = core_matrix.submatrix

        def spy(*args):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return restrict(*args)

        # qc imports submatrix by name, so both module attributes are wrapped
        monkeypatch.setattr(core_matrix, "submatrix", spy)
        monkeypatch.setattr(qc, "submatrix", spy)
        conf = write_config(
            tmp_path, "spy.conf",
            PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=tmp_path / "spy"),
        )
        assert main(["pipeline", "--config", conf]) == 0
        assert callers == ["gmmle.qc", "gmmle.cli"]

    def test_default_top_k_keeps_every_scored_feature(self, tmp_path):
        """features.top_k left at 2000 on a 300-feature input: a warning,
        and all 300 features, each with a finite score, reach the embedding."""
        sim = write_config(tmp_path, "sim.conf", SIM_CONF.format(out=tmp_path / "data")
                           .replace("60,60,60", "100,100,100")
                           .replace("70,70,70", "40,40,40"))
        assert main(["simulate", "--config", sim]) == 0
        conf = PIPE_CONF.format(mtx=tmp_path / "data" / "counts.mtx", out=tmp_path / "run")
        conf = write_config(tmp_path, "run.conf", conf.replace("features.top_k = 120\n", ""))
        with pytest.warns(UserWarning, match="k=2000 but only 300 features have finite scores"):
            assert main(["pipeline", "--config", conf]) == 0
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert metrics["stages"]["features"]["n_features"] == 300
        assert metrics["warnings"] == [{
            "stage": "features",
            "category": "UserWarning",
            "message": "k=2000 but only 300 features have finite scores; "
                       "selecting all of them",
        }]

    def test_stage_warning_reissued_with_stage_name_on_failure(
        self, sim_dir, tmp_path, monkeypatch
    ):
        def warn_then_fail(*args, **kwargs):
            warnings.warn("odd input", UserWarning)
            raise RuntimeError("injected")

        monkeypatch.setattr(community, "exact_knn", warn_then_fail)
        values = PIPELINE_SCHEMA.apply(parse_config_text(
            PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=tmp_path / "out")
        ))
        with pytest.warns(UserWarning) as caught, pytest.raises(StageError):
            run_pipeline(values, tmp_path / "out", None)
        assert [str(w.message) for w in caught] == ["stage 'neighbours': odd input"]

    def test_warning_free_run_writes_no_warnings_key(self, sim_dir, tmp_path):
        out = tmp_path / "out"
        values = PIPELINE_SCHEMA.apply(parse_config_text(
            PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=out)
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_pipeline(values, out, None)
        assert "warnings" not in json.loads((out / "metrics.json").read_text())

    def test_neighbour_counts_clamped_to_n_cells_minus_one(self, tmp_path):
        sim = write_config(tmp_path, "sim.conf", (
            "sbm.rates = 20,1,1; 1,20,1; 1,1,20\n"
            "sbm.gene_block_sizes = 10,10,10\n"
            "sbm.cell_block_sizes = 4,4,4\n"
            "sbm.seed = 0\n"
            f"output.directory = {tmp_path / 'data'}\n"
        ))
        assert main(["simulate", "--config", sim]) == 0
        out = tmp_path / "run"
        conf = write_config(tmp_path, "run.conf", (
            f"input.path = {tmp_path / 'data' / 'counts.mtx'}\n"
            "qc.enable = false\nfeatures.enable = false\n"
            "cluster.method = louvain\nlayout.enable = true\n"
            f"output.directory = {out}\n"
        ))
        assert main(["pipeline", "--config", conf]) == 0
        stages = json.loads((out / "metrics.json").read_text())["stages"]
        assert stages["neighbours"]["k"] == 11
        assert stages["cluster"]["knn_k"] == 11
        assert stages["layout"]["n_neighbors"] == 11

    def test_stage_named_on_failure(self, tmp_path, capsys):
        # the 8 x 10 input of test_no_scorable_feature_fails_at_features_stage
        # passes every config check and fails inside the features stage
        mtx = write_sparse_8x10(tmp_path)
        conf = write_config(
            tmp_path, "sparse.conf",
            f"input.path = {mtx}\nqc.enable = false\nfeatures.top_k = 4\n"
            f"output.directory = {tmp_path / 'r'}\n",
        )
        assert main(["pipeline", "--config", conf]) == 1
        err = capsys.readouterr().err
        assert "stage 'features'" in err
        assert "none of 8 features has a finite score" in err

    def test_non_finite_embedding_fails_at_neighbours_stage(
        self, sim_dir, tmp_path, monkeypatch, capsys
    ):
        real_embed = spectral.embed

        def embed_with_nan(*args, **kwargs):
            embedding = real_embed(*args, **kwargs)
            embedding.coords[7, 0] = np.nan
            return embedding

        monkeypatch.setattr(spectral, "embed", embed_with_nan)
        conf = write_config(
            tmp_path, "nan.conf",
            PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=tmp_path / "nan"),
        )
        assert main(["pipeline", "--config", conf]) == 1
        err = capsys.readouterr().err
        assert "stage 'neighbours'" in err
        assert "coordinates must be finite" in err

    def test_missing_input_named_on_stderr(self, tmp_path, capsys):
        conf = write_config(
            tmp_path, "missing.conf",
            PIPE_CONF.format(mtx=tmp_path / "nope.mtx", out=tmp_path / "r"),
        )
        assert main(["pipeline", "--config", conf]) == 1
        err = capsys.readouterr().err
        assert "input.path does not exist" in err
        assert "nope.mtx" in err

    def test_seed_override_changes_layout(self, sim_dir, tmp_path):
        base_conf = PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=tmp_path / "s1")
        conf1 = write_config(tmp_path, "s1.conf", base_conf)
        conf2 = write_config(
            tmp_path, "s2.conf",
            PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=tmp_path / "s2"),
        )
        assert main(["pipeline", "--config", conf1]) == 0
        assert main(["pipeline", "--config", conf2, "--seed", "9"]) == 0
        assert (tmp_path / "s1" / "layout.tsv").read_bytes() != (
            tmp_path / "s2" / "layout.tsv"
        ).read_bytes()

    def test_louvain_method(self, sim_dir, tmp_path, monkeypatch):
        # modularity maximization may legitimately split blocks at the
        # default resolution; at resolution 0.5 the three blocks are the
        # optimum on this fixture
        built = []

        def counting_knn_graph(indices):
            built.append(indices.shape[1])
            return knn_graph(indices)

        monkeypatch.setattr(community, "knn_graph", counting_knn_graph)
        out = tmp_path / "louv"
        conf_text = (
            PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=out)
            .replace("cluster.method = gmm", "cluster.method = louvain")
            .replace("layout.enable = true", "layout.enable = false")
            + "cluster.resolution = 0.5\n"
        )
        conf = write_config(tmp_path, "louv.conf", conf_text)
        assert main(["pipeline", "--config", conf]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["stages"]["cluster"]["method"] == "louvain"
        got = read_labels(out / "labels.tsv")
        truth = read_labels(sim_dir / "truth_cells.tsv")
        cells = sorted(got)
        ari = adjusted_rand_index(
            np.array([got[c] for c in cells]), np.array([truth[c] for c in cells])
        )
        assert ari >= 0.95
        assert metrics["stages"]["cluster"]["n_clusters"] == 3
        # Louvain and the modularity metric share one kNN graph
        assert built == [20]

    @pytest.mark.parametrize("n_neighbors, searched_k", [(25, 25), (10, 20)])
    def test_one_search_serves_both_graphs(
        self, sim_dir, tmp_path, monkeypatch, n_neighbors, searched_k
    ):
        searches = []

        def counting_exact_knn(coords, k):
            searches.append(k)
            return exact_knn(coords, k)

        monkeypatch.setattr(community, "exact_knn", counting_exact_knn)
        out = tmp_path / "one"
        conf_text = (
            PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=out)
            .replace("cluster.method = gmm", "cluster.method = louvain")
            + f"cluster.knn_k = 20\nlayout.n_neighbors = {n_neighbors}\n"
        )
        conf = write_config(tmp_path, "one.conf", conf_text)
        assert main(["pipeline", "--config", conf]) == 0
        assert searches == [searched_k]
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["stages"]["neighbours"]["k"] == searched_k
        assert metrics["stages"]["cluster"]["knn_k"] == 20
        assert metrics["stages"]["layout"]["n_neighbors"] == n_neighbors
        assert "neighbours" in metrics["timings_sec"]


    def test_d_plus_one_fits_one_more_component_than_dimensions(self, sim_dir, tmp_path):
        out = tmp_path / "dp1"
        conf = write_config(
            tmp_path, "dp1.conf",
            PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=out)
            .replace("cluster.k_strategy = fixed", "cluster.k_strategy = d_plus_one")
            .replace("layout.enable = true", "layout.enable = false"),
        )
        assert main(["pipeline", "--config", conf]) == 0
        model = json.loads((out / "model.json").read_text())
        assert model["n_components"] == model["dimension"] + 1

    def test_no_scorable_feature_fails_at_features_stage(self, tmp_path):
        mtx = write_sparse_8x10(tmp_path)
        values = PIPELINE_SCHEMA.apply(parse_config_text(
            f"input.path = {mtx}\nqc.enable = false\nfeatures.top_k = 4\n"
        ))
        with pytest.raises(StageError) as caught:
            run_pipeline(values, tmp_path / "out", None)
        assert caught.value.stage == "features"
        message = str(caught.value)
        assert "none of 8 features has a finite score" in message
        assert "mean <= 1 or zero variance" in message
        assert "features.enable = false" in message

    # the first library call of each stage, in run order
    @pytest.mark.parametrize("stage, module, name", [
        ("ingest", core_matrix, "read_matrix_market"),
        ("qc", qc, "run_qc"),
        ("features", features, "dispersion_scores"),
        ("spectral", spectral, "normalized_laplacian"),
        ("neighbours", community, "exact_knn"),
        ("cluster", mixture, "fit_gmm"),
        ("modularity", community, "modularity"),
        ("layout", layout, "fuzzy_graph"),
    ])
    def test_failure_names_its_stage(self, sim_dir, tmp_path, monkeypatch, stage, module, name):
        injected = RuntimeError("injected")

        def fail(*args, **kwargs):
            raise injected

        monkeypatch.setattr(module, name, fail)
        out = tmp_path / "out"
        values = PIPELINE_SCHEMA.apply(parse_config_text(
            PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=out)
        ))
        with pytest.raises(StageError) as caught:
            run_pipeline(values, out, None)
        assert caught.value.stage == stage
        assert caught.value.cause is injected
        assert str(caught.value) == f"stage {stage!r}: injected"
        assert not (out / "metrics.json").exists()

    def test_metrics_write_failure_names_no_stage(self, sim_dir, tmp_path, monkeypatch):
        real_write = cli.write_atomic

        def fail_on_metrics(path, text):
            if path.name == "metrics.json":
                raise OSError("disk full")
            real_write(path, text)

        monkeypatch.setattr(cli, "write_atomic", fail_on_metrics)
        out = tmp_path / "out"
        values = PIPELINE_SCHEMA.apply(parse_config_text(
            PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=out)
        ))
        # every stage has finished: the error is the write's own
        with pytest.raises(OSError) as caught:
            run_pipeline(values, out, None)
        assert str(caught.value) == "disk full"
        assert (out / "layout.tsv").exists()

    def test_peak_rss_recorded_per_stage(self, sim_dir, tmp_path):
        out = tmp_path / "peaks"
        conf = write_config(
            tmp_path, "peaks.conf", PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=out)
        )
        assert main(["pipeline", "--config", conf]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        if cli._peak_rss_mb() is None:
            pytest.skip("/proc/self/status cannot be read here")
        peaks = metrics["peak_rss_mb"]
        assert list(peaks) == list(metrics["timings_sec"])
        # a high-water mark: it never falls from one stage to the next
        values = list(peaks.values())
        assert values[0] > 0 and values == sorted(values)

    def test_rss_recorded_per_stage(self, sim_dir, tmp_path):
        out = tmp_path / "rss"
        conf = write_config(
            tmp_path, "rss.conf", PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=out)
        )
        assert main(["pipeline", "--config", conf]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        if cli._rss_mb() is None:
            pytest.skip("/proc/self/status cannot be read here")
        rss, peaks = metrics["rss_mb"], metrics["peak_rss_mb"]
        assert list(rss) == list(metrics["timings_sec"])
        # what a stage keeps, never above the high-water mark read after it
        assert all(0 < rss[stage] <= peaks[stage] for stage in rss)

    def test_peak_rss_left_out_where_proc_cannot_be_read(
        self, sim_dir, tmp_path, monkeypatch
    ):
        def unreadable(*args, **kwargs):
            raise PermissionError("no /proc here")

        with monkeypatch.context() as patch:
            patch.setattr("builtins.open", unreadable)
            assert cli._peak_rss_mb() is None
            assert cli._rss_mb() is None
        monkeypatch.setattr(cli, "_peak_rss_mb", lambda: None)
        out = tmp_path / "no_proc"
        conf = write_config(
            tmp_path, "no_proc.conf", PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=out)
        )
        assert main(["pipeline", "--config", conf]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert "peak_rss_mb" not in metrics
        assert "ingest" in metrics["timings_sec"]

    def test_rss_left_out_where_proc_cannot_be_read(self, sim_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_status_mb", lambda key: None)
        out = tmp_path / "no_proc_rss"
        conf = write_config(
            tmp_path, "no_proc_rss.conf", PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=out)
        )
        assert main(["pipeline", "--config", conf]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert "rss_mb" not in metrics and "peak_rss_mb" not in metrics
        assert list(metrics)[-1] == "timings_sec"


REPO = Path(__file__).resolve().parent.parent


class TestTracedPipeline:
    """bench/traced_pipeline.py wraps pipeline functions by module attribute;
    a pipeline that stopped calling one would fail the benchmark's span
    coverage check."""

    def traced_spans(self, sim_dir, tmp_path, replacements):
        conf_text = PIPE_CONF.format(mtx=sim_dir / "counts.mtx", out=tmp_path / "out")
        for old, new in replacements:
            conf_text = conf_text.replace(old, new)
        conf = write_config(tmp_path, "traced.conf", conf_text)
        spans_path = tmp_path / "spans.json"
        subprocess.run(
            [sys.executable, str(REPO / "bench" / "traced_pipeline.py"), str(spans_path),
             "pipeline", "--config", conf],
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")), check=True, timeout=300,
        )
        return {span["name"] for span in json.loads(spans_path.read_text())}

    def test_louvain_with_layout(self, sim_dir, tmp_path):
        names = self.traced_spans(sim_dir, tmp_path, [
            ("cluster.method = gmm", "cluster.method = louvain\ncluster.resolution = 0.5"),
        ])
        assert {"community.knn_graph", "community.louvain_trace",
                "layout.fuzzy_graph"} <= names

    def test_gmm_without_layout(self, sim_dir, tmp_path):
        names = self.traced_spans(sim_dir, tmp_path, [
            ("layout.enable = true", "layout.enable = false"),
        ])
        assert "community.knn_graph" in names
        assert not [name for name in names if name.startswith("layout.")]


class TestWriteAtomic:
    def test_leaves_no_temp_file_and_spares_a_foreign_one(self, tmp_path):
        foreign = tmp_path / "labels.tsv.tmp"
        foreign.write_text("another writer's data")
        write_atomic(tmp_path / "labels.tsv", "first")
        write_atomic(tmp_path / "labels.tsv", "second")
        assert (tmp_path / "labels.tsv").read_text() == "second"
        assert foreign.read_text() == "another writer's data"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.tsv", "labels.tsv.tmp"]

    def test_failed_write_removes_temp_file(self, tmp_path):
        with pytest.raises(TypeError):
            write_atomic(tmp_path / "labels.tsv", None)
        assert list(tmp_path.iterdir()) == []

    def test_pieces_streamed_and_a_failing_source_leaves_nothing(self, tmp_path):
        write_atomic(tmp_path / "m.mtx", (f"{i}\n" for i in range(3)))
        assert (tmp_path / "m.mtx").read_text() == "0\n1\n2\n"

        def broken():
            yield "partial\n"
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            write_atomic(tmp_path / "n.mtx", broken())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.mtx"]

    def test_file_mode_follows_umask(self, tmp_path):
        previous = os.umask(0o027)
        try:
            write_atomic(tmp_path / "labels.tsv", "x")
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "labels.tsv").stat().st_mode) == 0o640

    def test_temp_name_taken_draws_another(self, tmp_path, monkeypatch):
        draws = iter([b"\x00" * 6, b"\x01" * 6])
        monkeypatch.setattr(os, "urandom", lambda n: next(draws))
        foreign = tmp_path / "labels.tsv.000000000000.tmp"
        foreign.write_text("another writer's data")
        write_atomic(tmp_path / "labels.tsv", "mine")
        assert (tmp_path / "labels.tsv").read_text() == "mine"
        assert foreign.read_text() == "another writer's data"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.tsv", foreign.name]


class TestScatterCommand:
    def write_inputs(self, tmp_path, n=3, clusters=(0, 1, 0)):
        layout_path = tmp_path / "layout.tsv"
        labels_path = tmp_path / "labels.tsv"
        rows = ["cell_id\tx\ty"] + [f"c{i}\t{i}.0\t{i * 2}.0" for i in range(n)]
        layout_path.write_text("\n".join(rows) + "\n")
        rows = ["cell_id\tcluster"] + [f"c{i}\t{clusters[i]}" for i in range(n)]
        labels_path.write_text("\n".join(rows) + "\n")
        return layout_path, labels_path

    def test_svg_structure(self, tmp_path):
        layout_path, labels_path = self.write_inputs(tmp_path)
        out = tmp_path / "plot.svg"
        assert main(["scatter", str(layout_path), str(labels_path), str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<circle") == 3
        fills = {part.split('fill="')[1].split('"')[0]
                 for part in svg.split("<circle")[1:]}
        assert len(fills) == 2

    def test_svg_bytes_pinned(self):
        rows = [["c0", "0.1", "0.7"], ["c1", "-2.3", "1.9"],
                ["c2", "4.05", "-0.3333"], ["c3", "1e-3", "2.5"]]
        svg = cli.scatter_svg(rows, {"c0": 0, "c1": 1, "c2": 21, "c3": 2})
        assert svg == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" '
            'viewBox="0 0 600 600">\n'
            '<rect width="600" height="600" fill="white"/>\n'
            '<circle cx="234.09" cy="482.13" r="3" fill="#1f77b4"/>\n'
            '<circle cx="30.00" cy="380.08" r="3" fill="#aec7e8"/>\n'
            '<circle cx="570.00" cy="570.00" r="3" fill="#aec7e8"/>\n'
            '<circle cx="225.68" cy="329.06" r="3" fill="#ff7f0e"/>\n'
            "</svg>\n"
        )

    def test_rerun_byte_identical(self, tmp_path):
        layout_path, labels_path = self.write_inputs(tmp_path)
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["scatter", str(layout_path), str(labels_path), str(out1)]) == 0
        assert main(["scatter", str(layout_path), str(labels_path), str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_id_mismatch_rejected(self, tmp_path, capsys):
        layout_path, labels_path = self.write_inputs(tmp_path)
        labels_path.write_text("cell_id\tcluster\nc0\t0\nc1\t1\nGHOST\t0\n")
        out = tmp_path / "x.svg"
        assert main(["scatter", str(layout_path), str(labels_path), str(out)]) == 1
        assert "differ" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, message", [
        ("c0\t0\nc1\nc2\t0\n", "line 3: expected 'cell_id<TAB>cluster'"),
        ("c0\t0\nc1\tone\nc2\t0\n", "line 3: expected 'cell_id<TAB>cluster'"),
        ("c0\t0\nc1\t1\t7\nc2\t0\n", "line 3: expected 'cell_id<TAB>cluster'"),
        ("c0\t0\nc1\t1\nc0\t1\nc2\t0\n", "line 4: repeated cell id 'c0'"),
        ("c0\t0\nc1\t-1\nc2\t0\n", "line 3: negative cluster id -1"),
        ("c0\t0\nc1\t9223372036854775808\nc2\t0\n",
         "line 3: cluster id 9223372036854775808 is not below 2**63"),
    ], ids=["one-field", "non-integer", "three-fields", "repeated-id", "negative-cluster",
            "oversized-cluster"])
    def test_malformed_labels_rejected(self, tmp_path, capsys, rows, message):
        layout_path, labels_path = self.write_inputs(tmp_path)
        labels_path.write_text("cell_id\tcluster\n" + rows)
        out = tmp_path / "x.svg"
        assert main(["scatter", str(layout_path), str(labels_path), str(out)]) == 1
        assert f"error: {labels_path} {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_input_rejected(self, tmp_path, capsys):
        layout_path = tmp_path / "layout.tsv"
        layout_path.write_text("cell_id\tx\ty\n")
        labels_path = tmp_path / "labels.tsv"
        labels_path.write_text("cell_id\tcluster\n")
        assert main(["scatter", str(layout_path), str(labels_path),
                     str(tmp_path / "e.svg")]) == 1
        assert "empty" in capsys.readouterr().err


class TestQcCommand:
    def test_writes_filtered_matrix_and_report(self, tmp_path):
        mtx = tmp_path / "m.mtx"
        mtx.write_text(
            "%%MatrixMarket matrix coordinate integer general\n"
            "3 3 6\n1 1 5\n1 2 5\n2 1 4\n2 2 4\n2 3 4\n3 3 1\n"
        )
        conf = write_config(
            tmp_path, "qc.conf",
            f"input.path = {mtx}\nqc.min_cells_per_feature = 2\n"
            "qc.min_features_per_cell = 1\nqc.max_top_share = 1.0\n"
            "qc.max_mito_share = none\nqc.max_ribo_share = none\n"
            f"output.directory = {tmp_path / 'q'}\n",
        )
        assert main(["qc", "--config", conf]) == 0
        report = json.loads((tmp_path / "q" / "qc_report.json").read_text())
        assert report["features_out"] == 2
        assert (tmp_path / "q" / "filtered.mtx").exists()

    def test_rejected_setting_creates_no_out_dir(self, tmp_path, capsys):
        mtx = tmp_path / "m.mtx"
        mtx.write_text(
            "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 5\n2 2 4\n"
        )
        conf = write_config(
            tmp_path, "qc.conf",
            f"input.path = {mtx}\nqc.max_top_share = 0\n"
            f"output.directory = {tmp_path / 'q'}\n",
        )
        assert main(["qc", "--config", conf]) == 1
        assert "config key qc.max_top_share" in capsys.readouterr().err
        assert not (tmp_path / "q").exists()

    def test_missing_input_creates_no_out_dir(self, tmp_path, capsys):
        conf = write_config(
            tmp_path, "qc.conf",
            f"input.path = {tmp_path / 'nope.mtx'}\n"
            f"output.directory = {tmp_path / 'q'}\n",
        )
        assert main(["qc", "--config", conf]) == 1
        assert "input.path does not exist" in capsys.readouterr().err
        assert not (tmp_path / "q").exists()

    def test_enable_key_rejected(self, tmp_path, capsys):
        # qc.enable switches QC inside `pipeline`; `qc` always filters
        mtx = tmp_path / "m.mtx"
        mtx.write_text(
            "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 5\n2 2 4\n"
        )
        conf = write_config(
            tmp_path, "qc.conf",
            f"input.path = {mtx}\nqc.enable = false\n"
            f"output.directory = {tmp_path / 'q'}\n",
        )
        assert main(["qc", "--config", conf]) == 1
        assert "qc.enable" in capsys.readouterr().err
        assert not (tmp_path / "q").exists()


@pytest.mark.parametrize("command", ["qc", "validate"])
def test_seed_offered_only_where_read(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as caught:
        main([command, "--config", str(tmp_path / "any.conf"), "--seed", "1"])
    assert caught.value.code == 2
    assert "--seed" in capsys.readouterr().err


class TestValidateCommand:
    def write_inputs(self, tmp_path, gating):
        mtx = tmp_path / "m.mtx"
        # 4 features x 4 cells: A markers rows 1-2, B markers rows 3-4
        mtx.write_text(
            "%%MatrixMarket matrix coordinate integer general\n"
            "4 4 8\n1 1 5\n1 2 6\n2 1 4\n2 2 5\n3 3 7\n3 4 6\n4 3 5\n4 4 4\n"
        )
        (tmp_path / "m.features.txt").write_text("a1\na2\nb1\nb2\n")
        (tmp_path / "m.cells.txt").write_text("w\nx\ny\nz\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("cell_id\tcluster\nw\t0\nx\t0\ny\t1\nz\t1\n")
        panels = tmp_path / "panels.tsv"
        panels.write_text("A\ta1\nA\ta2\nB\tb1\nB\tb2\n")
        conf = write_config(
            tmp_path, "val.conf",
            f"input.path = {mtx}\nvalidate.labels_path = {labels}\n"
            f"validate.panels_path = {panels}\n{gating}"
            f"output.directory = {tmp_path / 'v'}\n",
        )
        return conf

    def test_typing_and_gating(self, tmp_path):
        conf = self.write_inputs(
            tmp_path, "validate.gate_positive = a1,a2\nvalidate.gate_cluster = 0\n"
        )
        assert main(["validate", "--config", conf]) == 0
        types = (tmp_path / "v" / "cluster_types.tsv").read_text().splitlines()
        assert types == ["cluster\tcell_type", "0\tA", "1\tB"]
        gated = (tmp_path / "v" / "gated_cells.tsv").read_text().splitlines()
        assert gated == ["cell_id", "w", "x"]
        assert (tmp_path / "v" / "marker_ratios.tsv").exists()

    def test_gating_without_cluster_creates_no_out_dir(self, tmp_path, capsys):
        conf = self.write_inputs(tmp_path, "validate.gate_positive = a1,a2\n")
        assert main(["validate", "--config", conf]) == 1
        assert "gating needs validate.gate_cluster" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_missing_input_creates_no_out_dir(self, tmp_path, capsys):
        conf = self.write_inputs(tmp_path, "")
        (tmp_path / "m.mtx").unlink()
        assert main(["validate", "--config", conf]) == 1
        assert "input.path does not exist" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("rows, message", [
        ("w\t0\nx\ny\t1\nz\t1\n", "line 3: expected 'cell_id<TAB>cluster'"),
        ("w\t0\nx\t0\nw\t1\ny\t1\nz\t1\n", "line 4: repeated cell id 'w'"),
        ("w\t0\nx\t-1\ny\t1\nz\t1\n", "line 3: negative cluster id -1"),
        ("w\t0\nx\t99999999999999999999\ny\t1\nz\t1\n",
         "line 3: cluster id 99999999999999999999 is not below 2**63"),
        ("w\t0\nx\t0\ny\t1\nGHOST\t7\nz\t1\nSHADE\t0\n",
         "has labels for 2 cells not in the matrix, e.g. ['GHOST', 'SHADE']"),
    ], ids=["one-field", "repeated-id", "negative-cluster", "oversized-cluster",
            "cell-not-in-matrix"])
    def test_malformed_labels_rejected(self, tmp_path, capsys, rows, message):
        conf = self.write_inputs(tmp_path, "")
        labels = tmp_path / "labels.tsv"
        labels.write_text("cell_id\tcluster\n" + rows)
        assert main(["validate", "--config", conf]) == 1
        assert f"error: {labels} {message}" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("panels, message", [
        ("A\ta1\nB\tb1\tb2\n", "panel TSV line 2: expected 2 fields"),
        ("A\ta1\nB\tnope\n", "panel 'B': no feature ids resolve against the matrix"),
    ], ids=["malformed-row", "unresolvable-panel"])
    def test_rejected_panels_create_no_out_dir(self, tmp_path, capsys, panels, message):
        conf = self.write_inputs(tmp_path, "")
        (tmp_path / "panels.tsv").write_text(panels)
        assert main(["validate", "--config", conf]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_largest_cluster_id_accepted(self, tmp_path):
        conf = self.write_inputs(tmp_path, "")
        top = 2**63 - 1
        (tmp_path / "labels.tsv").write_text(
            f"cell_id\tcluster\nw\t0\nx\t0\ny\t{top}\nz\t{top}\n"
        )
        assert main(["validate", "--config", conf]) == 0
        types = (tmp_path / "v" / "cluster_types.tsv").read_text().splitlines()
        assert types == ["cluster\tcell_type", "0\tA", f"{top}\tB"]

    def test_sparse_cluster_ids_match_dense_relabelling(self, tmp_path):
        ratios = {}
        for name, (a, b) in {"dense": (0, 1), "sparse": (7, 2007)}.items():
            run_dir = tmp_path / name
            run_dir.mkdir()
            conf = self.write_inputs(run_dir, "")
            (run_dir / "labels.tsv").write_text(
                f"cell_id\tcluster\nw\t{a}\nx\t{a}\ny\t{b}\nz\t{b}\n"
            )
            assert main(["validate", "--config", conf]) == 0
            types = (run_dir / "v" / "cluster_types.tsv").read_text().splitlines()
            assert types == ["cluster\tcell_type", f"{a}\tA", f"{b}\tB"]
            ratios[name] = (run_dir / "v" / "marker_ratios.tsv").read_bytes()
        assert ratios["sparse"] == ratios["dense"]

    def test_clusters_typed_once_and_panels_resolved_once_per_function(
        self, tmp_path, monkeypatch
    ):
        typings, contexts = [], []
        assign, resolve = validate.assign_cluster_types, validate._resolve_features

        def spy_assign(*args, **kwargs):
            typings.append(args)
            return assign(*args, **kwargs)

        def spy_resolve(counts, feature_ids, context):
            contexts.append(context)
            return resolve(counts, feature_ids, context)

        monkeypatch.setattr(validate, "assign_cluster_types", spy_assign)
        monkeypatch.setattr(validate, "_resolve_features", spy_resolve)
        for denominator in ("pooled", "per_type_mean"):
            typings.clear()
            contexts.clear()
            conf = self.write_inputs(tmp_path, f"validate.denominator = {denominator}\n")
            assert main(["validate", "--config", conf]) == 0
            assert len(typings) == 1
            # once by assign_cluster_types, once by marker_ratio_table
            assert sorted(contexts) == ["panel 'A'", "panel 'A'", "panel 'B'", "panel 'B'"]


# stage dataclass of each config section whose defaults live on the class
_STAGE_CLASSES = {"qc": qc.QcConfig, "spectral": spectral.EmbedPolicy,
                  "layout": layout.LayoutParams}


def _effective_default(key):
    """The value a pipeline key takes when the config omits it, or None."""
    if key in PIPELINE_SCHEMA.defaults:
        return PIPELINE_SCHEMA.defaults[key]
    section, name = key.split(".", 1)
    cls = _STAGE_CLASSES.get(section)
    for f in fields(cls) if cls else ():
        if _KEY_SUFFIX.get(f.name, f.name) == name:
            return f.default
    return None


def readme_pipeline_keys():
    """(key, default cell) of each row of README's pipeline key table."""
    lines = (REPO / "README.md").read_text().splitlines()
    start = lines.index("| key | default | meaning |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, default = (cell.strip() for cell in line.strip("|").split("|")[:2])
        rows.append((key.strip("`"), default))
    return rows


class TestReadmeConfigTable:
    def test_keys_match_the_schema(self):
        keys = [key for key, _ in readme_pipeline_keys()]
        assert len(keys) == len(set(keys))
        assert set(keys) == set(PIPELINE_SCHEMA.converters)

    def test_defaults_match_the_effective_defaults(self):
        for key, default in readme_pipeline_keys():
            effective = _effective_default(key)
            if default == "(required)":
                assert key in PIPELINE_SCHEMA.required, key
            elif default == "(none)":
                assert effective is None and key not in PIPELINE_SCHEMA.required, key
            else:
                assert default.startswith("`") and default.endswith("`"), key
                literal = default.strip("`")
                assert PIPELINE_SCHEMA.converters[key](literal) == effective, key
