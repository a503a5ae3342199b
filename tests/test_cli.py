"""End-to-end CLI runs through ``main(argv)`` with temp files."""

import dataclasses
import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import ufg.cli as cli
import ufg.experiments as experiments_mod
import ufg.verify as verify_mod
from ufg.cli import _build_parser, _emit_json, _experiment_config, _UsageError, main
from ufg.datasets import BinaryFeatures, generate_sbm, random_er_graph
from ufg.experiments import ExperimentConfig, train_node_classifier
from ufg.io import (
    read_coefficients,
    read_features_csv,
    read_graph_text,
    write_coefficients,
    write_features_csv,
    write_graph_text,
)
from ufg.perturb import PerturbationSpec, perturb

ROUNDTRIP_TOL = 1e-10


@pytest.fixture
def graph_files(tmp_path, rng):
    graph = random_er_graph(16, avg_degree=4.0, rng=np.random.default_rng(5))
    signal = rng.normal(size=(16, 2))
    gpath = str(tmp_path / "graph.txt")
    spath = str(tmp_path / "signal.csv")
    write_graph_text(graph, gpath)
    write_features_csv(signal, spath)
    return gpath, spath, signal


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "Subcommands" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["--frobnicate"],
        [],
        ["transform"],  # missing required flags
        ["verify", "--mode", "approximate"],
        # Node training has no early stopping, so no --patience flag.
        ["train-node", "--patience", "5"],
        # A perturbation needs both a model and a value.
        ["train-node", "--perturb-value", "2"],
        ["train-node", "--perturb-model", "edge_ratio"],
        # The graph model has no dropout layer, so no --dropout flag.
        ["train-graph", "--dropout", "0.5"],
    ],
)
def test_usage_errors_exit_one(argv, monkeypatch, capsys):
    _no_training(monkeypatch)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error" in err and "training started" not in err
    if any(word.startswith("--perturb") for word in argv):
        # The message names the two flags that must come together.
        assert "--perturb-model" in err and "--perturb-value" in err


@pytest.mark.parametrize("argv", [
    ["train-node", "--seed", "3"],
    ["bench", "--sizes", "30", "--level", "2"],
])
def test_abbreviated_flags_exit_one(argv, monkeypatch, capsys):
    def must_not_run(args):
        raise AssertionError("an abbreviated flag reached the command")

    for command in ("_cmd_train_node", "_cmd_bench"):
        monkeypatch.setattr(cli, command, must_not_run)
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_input_file_exits_two(tmp_path, capsys):
    code = main(
        ["transform", "--graph", str(tmp_path / "absent.txt"),
         "--signal", str(tmp_path / "absent.csv"),
         "--out", str(tmp_path / "c.ufgc")]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_non_finite_signal_exits_two(tmp_path, graph_files, capsys):
    gpath, spath, _ = graph_files
    with open(spath, "a", encoding="utf-8") as fh:
        fh.write("nan,1.0\n")
    out = tmp_path / "c.ufgc"
    code = main(["transform", "--graph", gpath, "--signal", spath, "--out", str(out)])
    assert code == 2
    assert ":17: non-finite value" in capsys.readouterr().err
    assert not out.exists()


def test_transform_reconstruct_round_trip(tmp_path, graph_files, capsys):
    gpath, spath, signal = graph_files
    cpath = str(tmp_path / "c.ufgc")
    rpath = str(tmp_path / "recon.csv")
    assert main(["transform", "--graph", gpath, "--signal", spath,
                 "--out", cpath]) == 0
    summary = _last_json(capsys)
    assert summary["nodes"] == 16
    assert summary["blocks"] == 3  # two levels, one high pass, plus low pass
    assert main(["reconstruct", "--graph", gpath, "--coeffs", cpath,
                 "--out", rpath, "--reference", spath]) == 0
    summary = _last_json(capsys)
    assert summary["relative_error"] <= ROUNDTRIP_TOL
    recon = read_features_csv(rpath)
    assert np.linalg.norm(recon - signal) <= ROUNDTRIP_TOL * np.linalg.norm(signal)


def test_reconstruct_non_finite_coefficients_exits_two(tmp_path, graph_files, capsys):
    gpath, spath, _ = graph_files
    cpath = str(tmp_path / "c.ufgc")
    rpath = tmp_path / "recon.csv"
    assert main(["transform", "--graph", gpath, "--signal", spath,
                 "--out", cpath]) == 0
    stack = read_coefficients(cpath)
    data = stack.data.copy()
    data[3, 0] = np.nan
    write_coefficients(stack.with_data(data), cpath)
    capsys.readouterr()
    assert main(["reconstruct", "--graph", gpath, "--coeffs", cpath,
                 "--out", str(rpath)]) == 2
    assert f"{cpath}: non-finite" in capsys.readouterr().err
    assert not rpath.exists()


# Fingerprints of the subcommands' default configs; every training summary
# prints them, so they must not move.
DEFAULT_FINGERPRINTS = [
    (["train-node"], "sbm_node", "0e1749f5344a"),
    (["train-node", "--activation", "shrinkage"], "sbm_node", "b50d613e2ec9"),
    (["train-graph"], "cycles-stars", "d701cf410257"),
]


@pytest.mark.parametrize("argv, task, fingerprint", DEFAULT_FINGERPRINTS)
def test_experiment_config_takes_dataclass_defaults(argv, task, fingerprint):
    config = _experiment_config(_build_parser().parse_args(argv), task)
    assert config.fingerprint() == fingerprint
    if argv[0] == "train-node":  # every flag default is the dataclass default
        assert config == ExperimentConfig(task=task, activation=config.activation)


def test_denoise_reports_mse_against_truth(tmp_path, graph_files, capsys):
    gpath, spath, _ = graph_files
    out = str(tmp_path / "den.csv")
    assert main(["denoise", "--graph", gpath, "--signal", spath,
                 "--out", out, "--sigma", "0.5", "--truth", spath]) == 0
    report = _last_json(capsys)
    assert set(report) >= {"sigma", "mse_denoised", "mse_noisy", "out"}
    assert report["mse_noisy"] == 0.0  # truth file is the input itself
    assert read_features_csv(out).shape == (16, 2)


@pytest.fixture
def path_files(tmp_path):
    """A 4-node path graph and a 2-column signal on it."""
    gpath, spath = str(tmp_path / "path.txt"), str(tmp_path / "x.csv")
    with open(gpath, "w") as fh:
        fh.write("4 3\n0 1\n1 2\n2 3\n")
    write_features_csv(np.arange(8.0).reshape(4, 2), spath)
    return gpath, spath


def test_denoise_truth_of_another_shape_exits_two(tmp_path, path_files, capsys):
    gpath, spath = path_files
    tpath, out = tmp_path / "t.csv", tmp_path / "den.csv"
    write_features_csv(np.ones((4, 1)), str(tpath))
    assert main(["denoise", "--graph", gpath, "--signal", spath, "--sigma", "1",
                 "--out", str(out), "--truth", str(tpath)]) == 2
    err = capsys.readouterr().err
    assert "truth shape (4, 1) does not match the signal shape (4, 2)" in err
    assert not out.exists()


@pytest.mark.parametrize("shape", [(1, 2), (4, 1)])
def test_reconstruct_reference_of_another_shape_exits_two(
    tmp_path, path_files, capsys, shape
):
    gpath, spath = path_files
    cpath, rpath = str(tmp_path / "c.ufgc"), str(tmp_path / "r.csv")
    out = tmp_path / "recon.csv"
    assert main(["transform", "--graph", gpath, "--signal", spath,
                 "--out", cpath]) == 0
    write_features_csv(np.ones(shape), rpath)
    capsys.readouterr()
    assert main(["reconstruct", "--graph", gpath, "--coeffs", cpath,
                 "--out", str(out), "--reference", rpath]) == 2
    err = capsys.readouterr().err
    assert f"reference shape {shape} does not match the signal shape (4, 2)" in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
def test_denoise_single_node_graph_is_identity(tmp_path, capsys, mode):
    # The universal threshold at N = 1 is sigma sqrt(2 ln 1) = 0.
    gpath, spath, out = (str(tmp_path / n) for n in ("g.txt", "s.csv", "d.csv"))
    with open(gpath, "w") as fh:
        fh.write("1 0\n")
    signal = np.array([[0.7, -1.5]])
    write_features_csv(signal, spath)
    assert main(["denoise", "--graph", gpath, "--signal", spath,
                 "--out", out, "--sigma", "1", "--mode", mode]) == 0
    assert np.max(np.abs(read_features_csv(out) - signal)) <= ROUNDTRIP_TOL


def _no_training(monkeypatch):
    """Make building the node operator or the graph union fail loudly, so a
    run that gets past its checks says "training started"."""
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(experiments_mod, "build_node_operator", no_training)
    monkeypatch.setattr(experiments_mod, "_graph_union", no_training)


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--lr", "-1", "lr"), ("--lr", "0", "lr"), ("--lr", "nan", "lr"),
        ("--lr", "inf", "lr"),
        ("--weight-decay", "-0.5", "weight_decay"),
        ("--weight-decay", "nan", "weight_decay"),
        ("--weight-decay", "inf", "weight_decay"),
        ("--sigma", "nan", "sigma"),
        ("--sigma", "-1", "sigma"),
        ("--dropout", "1", "dropout"),
        ("--dropout", "nan", "dropout"),
        ("--hidden", "0", "hidden"),
    ],
)
def test_train_node_bad_training_numbers_exit_two(
    monkeypatch, capsys, flag, value, field
):
    _no_training(monkeypatch)
    argv = ["train-node", "--sbm-sizes", "10,10", "--epochs", "1",
            "--seeds", "0", f"{flag}={value}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert field in err and "training started" not in err


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--seeds", "0-2,5-3"], "descending range '5-3'"),
        (["--seeds", "x"], "invalid int 'x'"),
        (["--seeds", "0,1-y"], "invalid int 'y'"),
        (["--sbm-sizes", "10,ten"], "invalid int 'ten'"),
    ],
)
def test_train_node_bad_list_flags_exit_one(monkeypatch, capsys, extra, named):
    _no_training(monkeypatch)
    argv = ["train-node", "--sbm-sizes", "10,10", "--epochs", "1",
            "--seeds", "0", *extra]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert named in err and "training started" not in err


@pytest.mark.parametrize("command", ["train-node"])
def test_feature_noise_with_binary_features_exits_one(monkeypatch, capsys, command):
    _no_training(monkeypatch)
    argv = [command, "--sbm-sizes", "10,10", "--epochs", "1", "--seeds", "0",
            "--feature-model", "binary", "--feature-noise", "7"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "--feature-noise" in err and "--feature-model binary" in err
    assert "training started" not in err


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--feature-noise", "-1", "noise std"),
        ("--feature-noise", "nan", "noise std"),
        ("--feature-noise", "inf", "noise std"),
        ("--feature-dim", "0", "feature dim"),
    ],
)
def test_train_node_bad_feature_model_exits_two_before_training(
    monkeypatch, capsys, flag, value, named
):
    _no_training(monkeypatch)
    argv = ["train-node", "--sbm-sizes", "10,10", "--epochs", "1",
            "--seeds", "0", f"{flag}={value}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err and "training started" not in err


def test_train_node_duplicate_seeds_exit_two(monkeypatch, capsys):
    _no_training(monkeypatch)
    argv = ["train-node", "--sbm-sizes", "10,10", "--epochs", "1",
            "--seeds", "1,1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "distinct" in err and "training started" not in err


def test_pool_lengths_match_blocks(tmp_path, graph_files, capsys):
    gpath, spath, _ = graph_files
    out = str(tmp_path / "pooled.csv")
    assert main(["pool", "--graph", gpath, "--signal", spath, "--out", out,
                 "--pool-mode", "spectrum"]) == 0
    summary = _last_json(capsys)
    assert summary["length"] == 3 * 2  # blocks x features
    assert read_features_csv(out).shape == (1, 6)


def test_train_node_tiny_run(tmp_path, capsys):
    metrics = str(tmp_path / "metrics.jsonl")
    code = main(
        ["train-node", "--sbm-sizes", "20,20", "--p-in", "0.4",
         "--p-out", "0.05", "--feature-dim", "4", "--epochs", "2",
         "--seeds", "0", "--hidden", "4", "--metrics-out", metrics]
    )
    assert code == 0
    summary = _last_json(capsys)
    assert 0.0 <= summary["mean"] <= 1.0
    assert len(summary["per_seed"]) == 1
    rows = [json.loads(line) for line in open(metrics).read().splitlines()]
    assert len(rows) == 2 * 3  # epochs x splits
    assert {r["split"] for r in rows} == {"train", "val", "test"}


def test_train_graph_tiny_run(capsys):
    code = main(
        ["train-graph", "--task", "cycles-stars", "--num-per-class", "5",
         "--epochs", "2", "--patience", "2", "--seeds", "0", "--hidden", "4"]
    )
    assert code == 0
    summary = _last_json(capsys)
    assert summary["majority_baseline"] == 0.5
    assert 0.0 <= summary["mean"] <= 1.0
    assert summary["data"] == {"task": "cycles-stars", "num_per_class": 5,
                               "data_seed": 0}


def test_train_node_summary_names_its_data(capsys):
    lines = []
    for sizes in ("10,10", "12,12"):
        argv = ["train-node", "--sbm-sizes", sizes, "--epochs", "1", "--seeds", "0"]
        assert main(argv) == 0
        lines.append(_last_json(capsys))
    # The fingerprint names the training config only; ``data`` tells the
    # two datasets apart.
    assert lines[0]["fingerprint"] == lines[1]["fingerprint"]
    assert lines[0]["data"] != lines[1]["data"]
    assert lines[0]["data"] == {
        "sbm_sizes": [10, 10], "p_in": 0.1, "p_out": 0.01,
        "feature_model": "gaussian", "feature_dim": 16, "feature_noise": 0.5,
        "data_seed": 0,
    }
    argv = ["train-node", "--sbm-sizes", "10,10", "--epochs", "1", "--seeds", "0",
            "--feature-model", "binary", "--feature-dim", "4", "--data-seed", "3"]
    assert main(argv) == 0
    assert _last_json(capsys)["data"] == {
        "sbm_sizes": [10, 10], "p_in": 0.1, "p_out": 0.01,
        "feature_model": "binary", "feature_dim": 4, "data_seed": 3,
    }


@pytest.mark.parametrize(
    "model, data_seed",
    [("bernoulli_flip", 0), ("edge_ratio", 0), ("bernoulli_flip", 4)],
)
def test_train_node_trains_on_the_perturbed_dataset(capsys, model, data_seed):
    argv = ["train-node", "--sbm-sizes", "10,10,10", "--feature-model", "binary",
            "--feature-dim", "12", "--epochs", "3", "--seeds", "0-1", "--hidden", "4",
            "--data-seed", str(data_seed), "--perturb-model", model, "--perturb-value", "2"]
    assert main(argv) == 0
    summary = _last_json(capsys)
    # The perturbation is seeded with --data-seed + 1: 1 at the default data
    # seed, as in criterion 11.
    spec = PerturbationSpec(model, 2.0, data_seed + 1)
    data = generate_sbm([10, 10, 10], 0.1, 0.01, BinaryFeatures(dim=12), seed=data_seed)
    graph, features = perturb(data.graph, data.features, spec)
    noisy = dataclasses.replace(data, graph=graph, features=features)
    config = ExperimentConfig(epochs=3, seeds=(0, 1), hidden=4)
    assert summary["per_seed"] == list(train_node_classifier(noisy, config).per_seed)
    # The line says which perturbation it was trained on.
    assert summary["perturbation"] == {"model": model, "value": 2.0, "seed": data_seed + 1}


def test_train_node_without_perturbation_prints_no_perturbation_key(capsys):
    argv = ["train-node", "--sbm-sizes", "10,10", "--epochs", "1", "--seeds", "0"]
    assert main(argv) == 0
    assert "perturbation" not in _last_json(capsys)


def test_train_node_empty_split_exits_two_before_training(monkeypatch, capsys):
    _no_training(monkeypatch)
    # Two-node blocks leave the 10/20/70 split's test part empty.
    argv = ["train-node", "--sbm-sizes", "2,2", "--epochs", "1", "--seeds", "0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "empty split(s), no nodes in: test" in err and "training started" not in err


def test_train_graph_too_few_graphs_exits_two_before_the_union(monkeypatch, capsys):
    _no_training(monkeypatch)
    argv = ["train-graph", "--num-per-class", "0", "--epochs", "1", "--seeds", "0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "too few for an 80/10/10 split" in err and "training started" not in err


@pytest.mark.parametrize("patience", ["0", "-3"])
def test_train_graph_patience_below_one_exits_two_before_training(
    monkeypatch, capsys, patience
):
    _no_training(monkeypatch)
    argv = ["train-graph", "--num-per-class", "5", "--epochs", "5", "--seeds", "0",
            f"--patience={patience}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "patience" in err and "training started" not in err


def test_perturb_reports_flip_probability(tmp_path, capsys):
    features = np.zeros((10, 4))
    features[:5, :2] = 1.0
    gpath = str(tmp_path / "g.txt")
    fpath = str(tmp_path / "x.csv")
    write_graph_text(random_er_graph(10, 2.0, np.random.default_rng(0)), gpath)
    write_features_csv(features, fpath)
    out = str(tmp_path / "xp.csv")
    code = main(
        ["perturb", "--graph", gpath, "--features", fpath,
         "--model", "bernoulli_flip",
         "--value", "0.5", "--out-features", out]
    )
    assert code == 0
    summary = _last_json(capsys)
    assert summary["flip_probability"] == pytest.approx(0.5 * 10 / 40)
    assert "nonzero" in summary["note"]
    assert read_features_csv(out).shape == features.shape


def test_perturb_edge_ratio_reports_integer_edge_counts(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    fpath = str(tmp_path / "x.csv")
    out_graph = str(tmp_path / "gp.txt")
    write_graph_text(random_er_graph(12, 3.0, np.random.default_rng(2)), gpath)
    write_features_csv(np.ones((12, 2)), fpath)
    code = main(
        ["perturb", "--graph", gpath, "--features", fpath,
         "--model", "edge_ratio",
         "--value", "1.5", "--out-graph", out_graph]
    )
    assert code == 0
    summary = _last_json(capsys)
    assert type(summary["edges_before"]) is int
    assert type(summary["edges_after"]) is int
    assert summary["edges_before"] == read_graph_text(gpath).num_edges
    assert summary["edges_after"] == read_graph_text(out_graph).num_edges


# Ids name what each model perturbs: the features or the edges.
@pytest.mark.parametrize(
    "model, value",
    [
        pytest.param("gaussian", "nan", id="features-gaussian-nan"),
        pytest.param("gaussian", "inf", id="features-gaussian-inf"),
        pytest.param("gaussian", "1e400", id="features-gaussian-1e400"),
        pytest.param("edge_ratio", "nan", id="edges-edge_ratio-nan"),
    ],
)
def test_perturb_non_finite_value_exits_two_and_writes_nothing(
    tmp_path, capsys, model, value
):
    gpath = str(tmp_path / "g.txt")
    fpath = str(tmp_path / "x.csv")
    write_graph_text(random_er_graph(12, 3.0, np.random.default_rng(2)), gpath)
    write_features_csv(np.ones((12, 2)), fpath)
    outs = [str(tmp_path / "gp.txt"), str(tmp_path / "xp.csv")]
    code = main(
        ["perturb", "--graph", gpath, "--features", fpath,
         "--model", model, "--value", value,
         "--out-graph", outs[0], "--out-features", outs[1]]
    )
    assert code == 2
    assert "finite and nonnegative" in capsys.readouterr().err
    assert not any(os.path.exists(p) for p in outs)


def test_json_writer_converts_numpy_scalars(capsys):
    _emit_json({"n": np.int64(12), "x": np.float32(0.5), "ok": np.bool_(True)})
    assert capsys.readouterr().out == '{"n": 12, "ok": true, "x": 0.5}\n'
    with pytest.raises(TypeError, match="ndarray"):
        _emit_json({"a": np.zeros(2)})


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_json_writer_writes_non_finite_floats_as_null(capsys):
    _emit_json({"per_seed": [float("nan"), 0.5], "std": np.float64(np.inf)})
    out = capsys.readouterr().out
    parsed = json.loads(out, parse_constant=_reject_constant)
    assert parsed == {"per_seed": [None, 0.5], "std": None}


def test_bench_prints_one_row_per_size(capsys):
    code = main(["bench", "--sizes", "30,40", "--reps", "1"])
    assert code == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["n"], r["status"]) for r in rows] == [(30, "ok"), (40, "ok")]
    for row in rows:
        assert {"build_mean_s", "build_median_s", "transform_mean_s",
                "transform_median_s", "operator_bytes"} <= set(row)


def test_transform_and_bench_report_the_applied_recurrence_degree(
    tmp_path, graph_files, monkeypatch, capsys
):
    gpath, spath, _ = graph_files
    monkeypatch.setenv("UFG_DETERMINISTIC", "1")
    commands = [
        ["transform", "--graph", gpath, "--signal", spath, "--mode", "chebyshev",
         "--out", str(tmp_path / "c.ufgc")],
        ["bench", "--sizes", "30", "--reps", "1", "--levels", "2", "--degree", "16"],
    ]
    runs = []
    for _ in range(2):
        outputs = []
        for argv in commands:
            assert main(argv) == 0, argv
            outputs.append(capsys.readouterr().out)
        runs.append(outputs)
    assert runs[0] == runs[1]
    transform_out, bench_out = (json.loads(out, parse_constant=_reject_constant)
                                for out in runs[0])
    prov = transform_out["provenance"]
    assert prov["mode"] == "chebyshev"
    assert 1 <= prov["recurrence_degree"] <= 16 + 4
    assert 0.0 <= prov["fit_residual"] <= 1e-12
    assert prov["operator_bytes"] > 0
    # K = 0 at two levels and t = 16: 15 of the 20 fitted degrees are kept.
    assert bench_out["recurrence_degree"] == 15


def test_verify_passes_and_prints_report(capsys):
    assert main(["verify", "--n", "30", "--seed", "7"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 19
    assert all(set(r) == {"name", "passed", "detail", "value", "tol"} for r in rows)
    assert all(r["passed"] for r in rows)
    by_name = {r["name"]: r for r in rows}
    assert by_name["round_trip"]["tol"] == 1e-10
    assert 0.0 <= by_name["round_trip"]["value"] <= 1e-10
    assert by_name["shrinkage_laws"]["value"] is None
    assert by_name["shrinkage_laws"]["tol"] is None


def test_verify_failure_exits_three(monkeypatch, capsys):
    def fake_verify(mode, n, seed):
        return [{"name": "round_trip", "passed": False, "detail": "bad",
                 "value": 1.0, "tol": 1e-10}]

    monkeypatch.setattr(verify_mod, "run_verify", fake_verify)
    assert main(["verify"]) == 3
    assert _last_json(capsys) == {
        "name": "round_trip", "passed": False, "detail": "bad",
        "value": 1.0, "tol": 1e-10,
    }


def _every_subcommand(tmp_path, gpath, spath):
    """One tiny run of each subcommand, two of ``train-node``;
    ``reconstruct`` reads ``transform``'s file."""
    coeffs = str(tmp_path / "c.ufgc")
    node = ["--sbm-sizes", "15,15", "--feature-dim", "4", "--epochs", "1",
            "--seeds", "0", "--hidden", "4"]
    return [
        ["transform", "--graph", gpath, "--signal", spath, "--out", coeffs],
        ["reconstruct", "--graph", gpath, "--coeffs", coeffs,
         "--out", str(tmp_path / "r.csv"), "--reference", spath],
        ["denoise", "--graph", gpath, "--signal", spath, "--sigma", "1",
         "--truth", spath, "--out", str(tmp_path / "d.csv")],
        ["pool", "--graph", gpath, "--signal", spath, "--out", str(tmp_path / "p.csv")],
        ["train-node", *node],
        ["train-node", *node, "--perturb-model", "edge_ratio", "--perturb-value", "2"],
        ["train-graph", "--num-per-class", "5", "--epochs", "2", "--patience", "2",
         "--seeds", "0", "--hidden", "4"],
        ["perturb", "--graph", gpath, "--features", spath,
         "--model", "edge_ratio", "--value", "1.5",
         "--out-graph", str(tmp_path / "gp.txt")],
        ["bench", "--sizes", "30", "--reps", "1"],
        ["verify", "--n", "20"],
    ]


def test_every_subcommand_prints_strict_byte_stable_json(
    tmp_path, graph_files, monkeypatch, capsys
):
    gpath, spath, _ = graph_files
    commands = _every_subcommand(tmp_path, gpath, spath)
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    assert list(dict.fromkeys(argv[0] for argv in commands)) == list(subparsers.choices)
    monkeypatch.setenv("UFG_DETERMINISTIC", "1")
    # A stray file written to the working directory would land here too.
    monkeypatch.chdir(tmp_path)
    inputs = set(tmp_path.iterdir())
    named = {Path(argv[i + 1]) for argv in commands for i, word in enumerate(argv)
             if word in ("--out", "--out-graph", "--out-features")}
    runs = []
    for _ in range(2):
        outputs = []
        for argv in commands:
            assert main(argv) == 0, argv
            out = capsys.readouterr().out
            assert out, argv
            for line in out.splitlines():
                assert isinstance(json.loads(line, parse_constant=_reject_constant), dict)
            outputs.append(out)
        runs.append(outputs)
    assert runs[0] == runs[1]
    # Besides stdout, the only results are the files the output flags name.
    assert set(tmp_path.iterdir()) - inputs == named


def _denoise_loop(tmp_path):
    """``ufg denoise`` over σ on a noisy sine along a 20-node path."""
    gpath, npath, tpath = (str(tmp_path / f) for f in ("path.txt", "noisy.csv", "truth.csv"))
    with open(gpath, "w") as fh:
        fh.write("20 19\n" + "".join(f"{i} {i + 1}\n" for i in range(19)))
    truth = np.sin(np.linspace(0.0, 6.0 * np.pi, 20))[:, None]
    noise = np.random.default_rng(0).normal(scale=0.5, size=truth.shape)
    write_features_csv(truth, tpath)
    write_features_csv(truth + noise, npath)
    return [(["denoise", "--graph", gpath, "--signal", npath, "--truth", tpath,
              "--sigma", str(s), "--out", str(tmp_path / f"d{s}.csv")], {"sigma": s})
            for s in (0.5, 1.0)]


def _robustness_loop(tmp_path):
    """README's feature-flip loop at a tiny size, relu then shrinkage."""
    node = ["train-node", "--sbm-sizes", "10,10", "--epochs", "2", "--seeds", "0",
            "--feature-model", "binary", "--feature-dim", "8",
            "--perturb-model", "bernoulli_flip"]
    return [([*node, "--perturb-value", str(r), "--activation", m],
             {"activation": m,
              "perturbation": {"model": "bernoulli_flip", "value": r, "seed": 1}})
            for r in (0.0, 1.0) for m in ("relu", "shrinkage")]


@pytest.mark.parametrize(
    "loop", [pytest.param(_denoise_loop, id="denoise"),
             pytest.param(_robustness_loop, id="robustness")],
)
def test_experiment_loop_prints_strict_json(loop, tmp_path, monkeypatch, capsys):
    runs = loop(tmp_path)
    monkeypatch.chdir(tmp_path)
    inputs = set(tmp_path.iterdir())
    for argv, expected in runs:
        assert main(argv) == 0, argv
        lines = capsys.readouterr().out.splitlines()
        rows = [json.loads(line, parse_constant=_reject_constant) for line in lines]
        assert len(rows) == 1, argv
        assert {k: rows[0][k] for k in expected} == expected
    named = {Path(argv[argv.index("--out") + 1]) for argv, _ in runs if "--out" in argv}
    assert set(tmp_path.iterdir()) - inputs == named


def _readme_commands():
    """The argv of every ``ufg`` command in README's shell code blocks.

    Backslash continuations are joined and a ``for VAR in A B ...; do``
    loop variable ``$VAR`` is replaced by each of its values in turn.
    """
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M):
        loops = re.findall(r"^\s*for (\w+) in ([^;]+); do$", block, flags=re.M)
        for line in block.replace("\\\n", " ").splitlines():
            variants = [line]
            for var, values in loops:
                if f"${var}" in line:
                    variants = [v.replace(f"${var}", x) for v in variants
                                for x in values.split()]
            for variant in variants:
                words = shlex.split(variant, comments=True)
                if words[:1] == ["ufg"]:
                    commands.append(words[1:])
    return commands


def test_every_readme_command_parses():
    commands = _readme_commands()
    parser = _build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    assert {argv[0] for argv in commands} == set(subparsers.choices)
    assert ["train-graph", "--task", "cycles-stars", "--pool-mode", "mean"] in commands
    assert ["train-node", "--feature-noise", "0.3", "--activation", "shrinkage",
            "--sigma", "4"] in commands
    # A renamed flag must not pass as an abbreviation of its new name.
    assert not any(sub.allow_abbrev for sub in subparsers.choices.values())
    for argv in commands:
        try:
            parser.parse_args(argv)
        except _UsageError as exc:
            pytest.fail(f"README command 'ufg {shlex.join(argv)}' does not parse: {exc}")
