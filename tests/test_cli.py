"""End-to-end CLI runs through ``main(argv)`` with temp files."""

import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import ufg.cli as cli
import ufg.verify as verify_mod
from ufg.cli import _build_parser, _emit_json, _experiment_config, _UsageError, main
from ufg.datasets import random_er_graph
from ufg.experiments import ExperimentConfig
from ufg.io import (
    read_coefficients,
    read_features_csv,
    read_graph_text,
    write_coefficients,
    write_features_csv,
    write_graph_text,
)

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
        ["sweep", "--patience", "5"],
        # The sweep's rows go to stdout only; it has no plot-file flag.
        ["sweep", "--out", "sweep.csv"],
    ],
)
def test_usage_errors_exit_one(argv, capsys):
    assert main(argv) == 1
    assert "error" in capsys.readouterr().err


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
    (["sweep"], "sensitivity_sweep", "76740278089f"),
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
    import ufg.experiments as experiments_mod

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(experiments_mod, "build_node_operator", no_training)


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--lr", "-1", "lr"), ("--lr", "0", "lr"), ("--lr", "nan", "lr"),
        ("--lr", "inf", "lr"),
        ("--weight-decay", "-0.5", "weight_decay"),
        ("--weight-decay", "nan", "weight_decay"),
        ("--weight-decay", "inf", "weight_decay"),
        ("--sigma", "nan", "sigma"),
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


def test_sweep_bad_dilation_grid_exits_one(monkeypatch, capsys):
    _no_training(monkeypatch)
    argv = ["sweep", "--sbm-sizes", "10,10", "--epochs", "1", "--seeds", "0",
            "--dilation-grid", "2,abc", "--scale-grid", "1"]
    assert main(argv) == 1
    assert "invalid float 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train-node", "sweep"])
def test_feature_noise_with_binary_features_exits_one(monkeypatch, capsys, command):
    _no_training(monkeypatch)
    argv = [command, "--sbm-sizes", "10,10", "--epochs", "1", "--seeds", "0",
            "--feature-model", "binary", "--feature-noise", "7"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "--feature-noise" in err and "--feature-model binary" in err
    assert "training started" not in err


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
         "--target", "features", "--model", "bernoulli_flip",
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
         "--target", "edges", "--model", "edge_ratio",
         "--value", "1.5", "--out-graph", out_graph]
    )
    assert code == 0
    summary = _last_json(capsys)
    assert type(summary["edges_before"]) is int
    assert type(summary["edges_after"]) is int
    assert summary["edges_before"] == read_graph_text(gpath).num_edges
    assert summary["edges_after"] == read_graph_text(out_graph).num_edges


@pytest.mark.parametrize(
    "target, model, value",
    [
        ("features", "gaussian", "nan"),
        ("features", "gaussian", "inf"),
        ("features", "gaussian", "1e400"),
        ("edges", "edge_ratio", "nan"),
    ],
)
def test_perturb_non_finite_value_exits_two_and_writes_nothing(
    tmp_path, capsys, target, model, value
):
    gpath = str(tmp_path / "g.txt")
    fpath = str(tmp_path / "x.csv")
    write_graph_text(random_er_graph(12, 3.0, np.random.default_rng(2)), gpath)
    write_features_csv(np.ones((12, 2)), fpath)
    outs = [str(tmp_path / "gp.txt"), str(tmp_path / "xp.csv")]
    code = main(
        ["perturb", "--graph", gpath, "--features", fpath, "--target", target,
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


def test_sweep_prints_one_row_per_grid_point(capsys):
    code = main(
        ["sweep", "--sbm-sizes", "15,15", "--feature-dim", "4",
         "--epochs", "1", "--seeds", "0", "--hidden", "4",
         "--dilation-grid", "2.0", "--scale-grid", "1"]
    )
    assert code == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["knob"], r["value"]) for r in rows] == [("dilation", 2.0), ("scale", 1)]
    assert all({"mean", "std", "fingerprint"} <= set(r) for r in rows)


def test_bench_prints_one_row_per_size(capsys):
    code = main(["bench", "--sizes", "30,40", "--reps", "1"])
    assert code == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["n"], r["status"]) for r in rows] == [(30, "ok"), (40, "ok")]
    for row in rows:
        assert {"build_mean_s", "build_median_s", "transform_mean_s",
                "transform_median_s"} <= set(row)


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
    """One tiny run of each subcommand; ``reconstruct`` reads ``transform``'s file."""
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
        ["train-graph", "--num-per-class", "5", "--epochs", "2", "--patience", "2",
         "--seeds", "0", "--hidden", "4"],
        ["perturb", "--graph", gpath, "--features", spath, "--target", "edges",
         "--model", "edge_ratio", "--value", "1.5",
         "--out-graph", str(tmp_path / "gp.txt")],
        ["sweep", *node, "--dilation-grid", "2", "--scale-grid", "1"],
        ["bench", "--sizes", "30", "--reps", "1"],
        ["verify", "--n", "20"],
    ]


def test_every_subcommand_prints_strict_byte_stable_json(
    tmp_path, graph_files, monkeypatch, capsys
):
    gpath, spath, _ = graph_files
    commands = _every_subcommand(tmp_path, gpath, spath)
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    assert [argv[0] for argv in commands] == list(subparsers.choices)
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
