"""End-to-end CLI runs through ``main(argv)`` with temp files."""

import argparse
import dataclasses
import inspect
import itertools
import json
import os
import re
import shlex
import shutil
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import reseal, write_citation_fixture
import ufg.cli as cli
import ufg.experiments as experiments_mod
import ufg.verify as verify_mod
from ufg import datasets, nn, shrinkage, transform
from ufg.cli import _build_parser, _emit_json, _experiment_config, _UsageError, main
from ufg.datasets import BinaryFeatures, GraphData, SBMData, generate_sbm, random_er_graph
from ufg.experiments import ExperimentConfig, fingerprint, train_node_classifier
from ufg.filters import FilterBank
from ufg.io import (
    read_coefficients,
    read_features_csv,
    read_graph_text,
    write_coefficients,
    write_features_csv,
    write_graph_text,
)
from ufg.perturb import PerturbationSpec, perturb
from ufg.transform import (
    FrameletSystem,
    TransformSettings,
    build_operators,
    framelet_operator,
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
        # One verify run checks both backends, so it takes no --mode.
        ["verify", "--mode", "exact"],
        # Node training has no early stopping, so no --patience flag.
        ["train-node", "--patience", "5"],
        # A perturbation needs both a model and a value.
        ["train-node", "--perturb-value", "2"],
        ["train-node", "--perturb-model", "edge_ratio"],
        # The graph model has no dropout layer, so no --dropout flag.
        ["train-graph", "--dropout", "0.5"],
        # No --dataset flag: --data-dir alone selects citation data.
        ["train-node", "--dataset", "sbm"],
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
    settings, _, _, _, data = read_coefficients(cpath)
    op = framelet_operator(read_graph_text(gpath), settings)
    data = data.copy()
    data[0, 3, 0] = np.nan
    write_coefficients(op, data, cpath)
    capsys.readouterr()
    assert main(["reconstruct", "--graph", gpath, "--coeffs", cpath,
                 "--out", str(rpath)]) == 2
    assert f"{cpath}: non-finite" in capsys.readouterr().err
    assert not rpath.exists()


def test_reconstruct_reads_the_transform_from_the_file(tmp_path, graph_files, capsys):
    gpath, spath, _ = graph_files
    cpath, rpath = str(tmp_path / "c.ufgc"), str(tmp_path / "recon.csv")
    assert main(["transform", "--graph", gpath, "--signal", spath, "--out", cpath,
                 "--dilation", "3", "--levels", "3", "--mode", "chebyshev",
                 "--degree", "8"]) == 0
    provenance = _last_json(capsys)["provenance"]
    assert (provenance["dilation"], provenance["levels"]) == (3.0, 3)
    assert main(["reconstruct", "--graph", gpath, "--coeffs", cpath,
                 "--out", rpath, "--reference", spath]) == 0
    assert _last_json(capsys)["relative_error"] <= 1e-6


@pytest.mark.parametrize("flag", ["--dilation", "--levels", "--degree", "--mode"])
def test_reconstruct_takes_no_system_flags(tmp_path, graph_files, capsys, flag):
    gpath, spath, _ = graph_files
    cpath, out = str(tmp_path / "c.ufgc"), tmp_path / "recon.csv"
    assert main(["transform", "--graph", gpath, "--signal", spath, "--out", cpath]) == 0
    value = {"--dilation": "3", "--levels": "3", "--degree": "8",
             "--mode": "chebyshev"}[flag]
    assert main(["reconstruct", "--graph", gpath, "--coeffs", cpath,
                 "--out", str(out), flag, value]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def _version_1_file(path, graph_files):
    """Version 1: N, d, n, J, then a block map of (r, j) pairs, no settings."""
    blocks = ((0, 2), (1, 1), (1, 2))
    block_map = b"".join(struct.pack("<2I", r, j) for r, j in blocks)
    path.write_bytes(b"UFGC" + struct.pack("<5I", 1, 16, 2, 1, 2) + block_map
                     + np.zeros((48, 2)).tobytes())
    return graph_files[0], (f"{path}: unsupported version 1; rerun `ufg transform` "
                            "to write version 4")


def _version_2_file(path, graph_files):
    """Version 2: the settings of version 3, but no graph digest."""
    header = struct.pack("<7Id", 2, 16, 2, 1, 2, 16, 0, 2.0)
    path.write_bytes(b"UFGC" + header + np.zeros((48, 2)).tobytes())
    return graph_files[0], (f"{path}: unsupported version 2; rerun `ufg transform` "
                            "to write version 4")


def _version_3_file(path, graph_files):
    """Version 3: the header of version 4 without its checksum."""
    gpath, spath, _ = graph_files
    assert main(["transform", "--graph", gpath, "--signal", spath, "--out", str(path)]) == 0
    blob = bytearray(path.read_bytes())
    blob[4:8] = (3).to_bytes(4, "little")
    path.write_bytes(bytes(blob[:72] + blob[104:]))
    return gpath, (f"{path}: unsupported version 3; rerun `ufg transform` "
                   "to write version 4")


def _other_graph_file(path, graph_files):
    """A 16-node file, read against a 20-node graph."""
    gpath, spath, _ = graph_files
    other = str(path.parent / "other.txt")
    write_graph_text(random_er_graph(20, avg_degree=4.0, rng=np.random.default_rng(5)),
                     other)
    assert main(["transform", "--graph", gpath, "--signal", spath, "--out", str(path)]) == 0
    return other, (f"{path}: coefficients of 16 nodes and 1 high passes; "
                   "the graph's Haar operator has 20 and 1")


def _same_size_other_graph_file(path, graph_files):
    """A 16-node file, read against another 16-node graph."""
    gpath, spath, _ = graph_files
    other = str(path.parent / "other.txt")
    write_graph_text(random_er_graph(16, avg_degree=4.0, rng=np.random.default_rng(6)),
                     other)
    assert main(["transform", "--graph", gpath, "--signal", spath, "--out", str(path)]) == 0
    return other, f"{path}: written for another graph than {other}"


def _flipped_digest_file(path, graph_files):
    """The graph's own file with one byte of its graph digest flipped and
    the checksum recomputed."""
    gpath, spath, _ = graph_files
    assert main(["transform", "--graph", gpath, "--signal", spath, "--out", str(path)]) == 0
    blob = bytearray(path.read_bytes())
    blob[40 + 17] ^= 0x01  # inside the 32-byte digest after the dilation
    path.write_bytes(reseal(bytes(blob)))
    return gpath, f"{path}: written for another graph than {gpath}"


def _two_high_pass_file(path, graph_files):
    """A 16-node file of a bank with two high passes."""
    bank = FilterBank(low_pass=np.cos, high_passes=(np.sin, np.sin))
    graph = read_graph_text(graph_files[0])
    op = build_operators(
        FrameletSystem(bank, TransformSettings(levels=2)), graph.laplacian, graph.spectrum
    )
    write_coefficients(op, np.ones((op.num_blocks, 16, 2)), str(path))
    return graph_files[0], (f"{path}: coefficients of 16 nodes and 2 high passes; "
                            "the graph's Haar operator has 16 and 1")


def _unknown_mode_file(path, graph_files):
    """A file whose mode code is neither 0 (exact) nor 1 (chebyshev)."""
    gpath, spath, _ = graph_files
    assert main(["transform", "--graph", gpath, "--signal", spath, "--out", str(path)]) == 0
    blob = bytearray(path.read_bytes())
    blob[28:32] = (5).to_bytes(4, "little")
    path.write_bytes(reseal(bytes(blob)))
    return gpath, f"{path}: unknown mode code 5"


def _levels_zero_file(path, graph_files):
    """A file whose header, checksum included, records zero levels."""
    gpath, spath, _ = graph_files
    assert main(["transform", "--graph", gpath, "--signal", spath, "--out", str(path)]) == 0
    blob = bytearray(path.read_bytes())
    blob[20:24] = (0).to_bytes(4, "little")
    path.write_bytes(reseal(bytes(blob)))
    return gpath, f"{path}: levels must be >= 1"


@pytest.mark.parametrize(
    "make", [_version_1_file, _version_2_file, _version_3_file, _other_graph_file,
             _same_size_other_graph_file, _flipped_digest_file, _two_high_pass_file,
             _unknown_mode_file, _levels_zero_file],
    ids=["version-1", "version-2", "version-3", "other-graph", "same-size-other-graph",
         "flipped-digest", "two-high-passes", "unknown-mode", "levels-zero"],
)
def test_reconstruct_refuses_a_file_it_cannot_use(tmp_path, graph_files, capsys, make):
    cpath, out = tmp_path / "c.ufgc", tmp_path / "recon.csv"
    gpath, message = make(cpath, graph_files)
    capsys.readouterr()
    assert main(["reconstruct", "--graph", gpath, "--coeffs", str(cpath),
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "make", [_other_graph_file, _same_size_other_graph_file, _flipped_digest_file,
             _two_high_pass_file],
    ids=["other-graph", "same-size-other-graph", "flipped-digest", "two-high-passes"],
)
def test_reconstruct_refuses_another_graph_before_building_its_operator(
    tmp_path, graph_files, monkeypatch, capsys, make
):
    # In exact mode the operator is a full eigendecomposition, so a file of
    # another graph is refused on the graph's Laplacian alone.
    cpath, out = tmp_path / "c.ufgc", tmp_path / "recon.csv"
    gpath, message = make(cpath, graph_files)
    capsys.readouterr()

    def no_operator(*args, **kwargs):
        raise AssertionError("operator built")

    monkeypatch.setattr(cli.transform, "framelet_operator", no_operator)
    assert main(["reconstruct", "--graph", gpath, "--coeffs", str(cpath),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "operator built" not in err
    assert not out.exists()


def test_reconstruct_refuses_every_single_bit_flip_of_the_header(tmp_path, capsys):
    # Without the checksum, 19 of the 64 flips of the dilation alone reconstruct
    # (exit 0) with a relative error up to 0.98.
    gpath, spath = str(tmp_path / "g.txt"), str(tmp_path / "x.csv")
    write_graph_text(random_er_graph(12, 3.0, np.random.default_rng(0)), gpath)
    write_features_csv(np.random.default_rng(1).normal(size=(12, 2)), spath)
    cpath, out = tmp_path / "c.ufgc", tmp_path / "y.csv"
    assert main(["transform", "--graph", gpath, "--signal", spath, "--out", str(cpath)]) == 0
    blob = cpath.read_bytes()
    header_bits = 8 * 104
    # Every bit of the header, then one bit in the middle of the payload.
    for bit in [*range(header_bits), 8 * (104 + (len(blob) - 104) // 2) + 3]:
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        cpath.write_bytes(bytes(flipped))
        code = main(["reconstruct", "--graph", gpath, "--coeffs", str(cpath),
                     "--out", str(out), "--reference", spath])
        assert (code, out.exists()) == (2, False), bit
    capsys.readouterr()


@pytest.mark.parametrize("dilation", ["inf", "1e308"])
def test_transform_rejects_a_dilation_it_cannot_evaluate(
    tmp_path, graph_files, capsys, dilation
):
    gpath, spath, _ = graph_files
    cpath = tmp_path / "c.ufgc"
    assert main(["transform", "--graph", gpath, "--signal", spath,
                 "--out", str(cpath), "--dilation", dilation]) == 2
    assert "dilation" in capsys.readouterr().err
    assert not cpath.exists()


# Fingerprints of the subcommands' default runs (config and data); every
# training summary prints them, so they must not move.
DEFAULT_FINGERPRINTS = [
    (["train-node"], "sbm_node", "788b55801e47"),
    (["train-node", "--activation", "shrinkage"], "sbm_node", "9834e62652b0"),
    (["train-graph"], "cycles-stars", "19590af63277"),
]


@pytest.mark.parametrize("argv, task, expected", DEFAULT_FINGERPRINTS)
def test_experiment_config_takes_dataclass_defaults(argv, task, expected):
    args = _build_parser().parse_args(argv)
    config = _experiment_config(args, task)
    data = cli._node_data(args) if argv[0] == "train-node" else GraphData()
    assert fingerprint(config, data) == expected
    if argv[0] == "train-node":  # every flag default is the dataclass default
        assert config == ExperimentConfig(task=task, activation=config.activation)
        assert data == SBMData()


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


def _no_operator(monkeypatch):
    def no_operator(*args, **kwargs):
        raise AssertionError("operator built")

    monkeypatch.setattr(cli.transform, "framelet_operator", no_operator)


@pytest.mark.parametrize("command", ["transform", "denoise", "pool"])
def test_signal_of_another_row_count_is_refused_before_any_operator(
    tmp_path, path_files, monkeypatch, capsys, command
):
    # Refused after the exact build before, with a message naming no file.
    gpath, _ = path_files
    spath, out = str(tmp_path / "short.csv"), tmp_path / "out.csv"
    write_features_csv(np.ones((3, 2)), spath)
    _no_operator(monkeypatch)
    extra = ["--sigma", "1"] if command == "denoise" else []
    assert main([command, "--graph", gpath, "--signal", spath, "--out", str(out),
                 *extra]) == 2
    err = capsys.readouterr().err
    assert f"{spath}: signal of 3 rows, but the graph {gpath} has 4 nodes" in err
    assert "operator built" not in err and not out.exists()


def test_truth_and_reference_are_checked_before_any_operator(
    tmp_path, path_files, monkeypatch, capsys
):
    gpath, spath = path_files
    cpath, bad, out = str(tmp_path / "c.ufgc"), str(tmp_path / "bad.csv"), tmp_path / "o.csv"
    assert main(["transform", "--graph", gpath, "--signal", spath, "--out", cpath]) == 0
    write_features_csv(np.ones((4, 3)), bad)
    capsys.readouterr()
    _no_operator(monkeypatch)
    for argv, what in (
        (["denoise", "--graph", gpath, "--signal", spath, "--sigma", "1", "--truth", bad],
         "truth"),
        (["reconstruct", "--graph", gpath, "--coeffs", cpath, "--reference", bad],
         "reference"),
    ):
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: {what} shape (4, 3) does not match the signal shape (4, 2)" in err
        assert "operator built" not in err and not out.exists()


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
    """Make building the node operator or the first pass of the graph task
    fail loudly, so a run that gets past its checks says "training
    started"."""
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(experiments_mod, "build_node_operator", no_training)
    monkeypatch.setattr(experiments_mod._GraphTask, "init", no_training)


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


@pytest.mark.parametrize("flag, text", [
    ("--seeds", "0-9223372036854775806"),
    ("--seeds", "0-1048575,7"),  # one past the cap
    ("--sbm-sizes", "-9223372036854775808-9223372036854775807"),
])
def test_list_flags_count_their_entries_before_expanding(monkeypatch, capsys, flag, text):
    # Expanded first, a range of 2^63 integers died inside argparse with a
    # raw MemoryError; its count is refused before any list is made.
    _no_training(monkeypatch)
    argv = ["train-node", "--sbm-sizes", "10,10", "--epochs", "1", "--seeds", "0",
            f"{flag}={text}"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1 and peak < 2**24
    assert f"more than {cli.LIST_MAX}" in err
    assert "Traceback" not in err and "training started" not in err
    assert len(cli._parse_int_list(f"0-{cli.LIST_MAX - 1}")) == cli.LIST_MAX


@pytest.mark.parametrize("command", ["train-node"])
def test_feature_noise_with_binary_features_exits_two(monkeypatch, capsys, command):
    # ``SBMData`` refuses the pair, before any data is made.
    _no_data(monkeypatch)
    argv = [command, "--sbm-sizes", "10,10", "--epochs", "1", "--seeds", "0",
            "--feature-model", "binary", "--feature-noise", "7"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "feature_noise does not apply to feature_model 'binary'" in err
    assert "dataset generated" not in err


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


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--p-in", "2"], "got p_in = 2.0"),
        (["--p-out", "-1"], "got p_out = -1.0"),
        (["--feature-dim", "0"], "got feature_dim = 0"),
        (["--feature-model", "binary", "--feature-dim", "0"], "got feature_dim = 0"),
        (["--feature-noise", "-1"], "got feature_noise = -1.0"),
    ],
)
def test_train_node_data_flag_messages_name_their_field(monkeypatch, capsys, extra, named):
    _no_training(monkeypatch)
    argv = ["train-node", "--sbm-sizes", "10,10", "--epochs", "1", "--seeds", "0", *extra]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err and "training started" not in err


def test_transform_refuses_a_node_count_whose_keys_overflow(tmp_path, capsys):
    gpath, spath = tmp_path / "g.txt", tmp_path / "x.csv"
    gpath.write_text("99999999999 1\n0 1\n")
    spath.write_text("0.5\n")
    assert main(["transform", "--graph", str(gpath), "--signal", str(spath),
                 "--out", str(tmp_path / "c.ufgc")]) == 2
    assert "num_nodes = 99999999999 is too large" in capsys.readouterr().err
    assert not (tmp_path / "c.ufgc").exists()


def _no_data(monkeypatch):
    """Make generating or loading any dataset fail loudly."""
    def no_data(*args, **kwargs):
        raise AssertionError("dataset generated")

    for name in ("generate_sbm", "load_citation", "cycles_and_stars",
                 "sbm_graph_family"):
        monkeypatch.setattr(cli.datasets, name, no_data)
    for task in cli.datasets.GRAPH_TASKS:
        monkeypatch.setitem(cli.datasets.GRAPH_TASKS, task, no_data)


@pytest.mark.parametrize("command", ["train-node", "train-graph"])
@pytest.mark.parametrize("flag, value, message", [
    ("--levels", "0", "levels must be >= 1"),
    ("--degree", "-1", "degree must be nonnegative"),
    ("--dilation", "1", "dilation must be finite and exceed 1"),
    ("--dilation", "inf", "dilation must be finite and exceed 1"),
])
def test_bad_transform_settings_exit_two_before_any_dataset(
    monkeypatch, capsys, command, flag, value, message
):
    # The config is built, and refuses the settings, before any data is
    # generated or loaded.
    _no_data(monkeypatch)
    argv = [command, "--epochs", "1", "--seeds", "0", f"{flag}={value}"]
    argv += ["--sbm-sizes", "20,20"] if command == "train-node" else []
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "dataset generated" not in err


@pytest.mark.parametrize("command", ["train-node", "train-graph"])
@pytest.mark.parametrize("extra, message", [
    (["--seeds=-1"], "seeds must be nonempty and distinct nonnegative integers, got (-1,)"),
    (["--seeds", "0,-2"], "got (0, -2)"),
    # 1e200^(3-1) * 2 overflows; the top argument of any normalized
    # Laplacian is at least that.
    (["--dilation", "1e200", "--levels", "3"], "dilation 1e+200 overflows"),
])
def test_negative_seed_or_overflowing_dilation_exits_two_before_any_dataset(
    monkeypatch, capsys, command, extra, message
):
    _no_data(monkeypatch)
    argv = [command, "--epochs", "1", "--seeds", "0", *extra]
    argv += ["--sbm-sizes", "20,20"] if command == "train-node" else []
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "dataset generated" not in err


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
    # The fingerprint names the data too, as ``data`` does.
    assert lines[0]["fingerprint"] != lines[1]["fingerprint"]
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


@pytest.mark.parametrize("task", ["cycles-stars", "sbm-family"])
def test_train_graph_negative_graph_count_exits_two(monkeypatch, capsys, task):
    _no_training(monkeypatch)
    argv = ["train-graph", "--task", task, "--num-per-class", "-3", "--epochs", "1",
            "--seeds", "0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "num_per_class must be >= 4, got -3" in err and "training started" not in err


@pytest.mark.parametrize("count", ["1", "2", "3"])
def test_train_graph_too_few_graphs_for_a_test_split_exits_two_before_any_data(
    monkeypatch, capsys, count
):
    # 2 * count graphs leave the 80/10/10 split no test graph below count 4.
    _no_data(monkeypatch)
    argv = ["train-graph", "--num-per-class", count, "--epochs", "1", "--seeds", "0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert (f"num_per_class must be >= 4, got {count}: too few for an 80/10/10 split"
            in err)
    assert "dataset generated" not in err


@pytest.mark.parametrize("sizes, empty", [("2,2", "test"), ("1,1", "val, test")])
def test_train_node_blocks_too_small_for_every_split_exit_two_before_any_data(
    monkeypatch, capsys, sizes, empty
):
    _no_data(monkeypatch)
    argv = ["train-node", "--sbm-sizes", sizes, "--epochs", "1", "--seeds", "0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"empty split(s), no nodes in: {empty}" in err and "dataset generated" not in err


@pytest.mark.parametrize("extra", [["--sbm-sizes", "10,10"], ["--data-seed", "0"],
                                   ["--feature-model", "gaussian", "--p-in", "0.2"]])
def test_data_dir_with_an_sbm_flag_exits_one(tmp_path, monkeypatch, capsys, extra):
    _no_data(monkeypatch)
    argv = ["train-node", "--data-dir", str(tmp_path), "--epochs", "1", "--seeds", "0",
            *extra]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "--data-dir" in err and "dataset generated" not in err
    assert all(flag in err for flag in extra if flag.startswith("--"))


def test_fingerprint_names_the_config_the_data_and_the_perturbation(capsys):
    base = ["train-node", "--sbm-sizes", "10,10", "--epochs", "1", "--seeds", "0"]
    binary = ["--feature-model", "binary"]
    flip = ["--perturb-model", "bernoulli_flip", "--perturb-value", "0.5"]
    variants = [[], ["--perturb-model", "gaussian", "--perturb-value", "0.5"], binary,
                [*binary, "--feature-dim", "6", "--data-seed", "3"], [*binary, *flip],
                ["--lr", "0.02"]]
    lines = []
    for extra in variants:
        assert main([*base, *extra]) == 0
        lines.append(_last_json(capsys))
    assert len({line["fingerprint"] for line in lines}) == len(variants)
    # The library's fingerprint of the run's settings.
    config = ExperimentConfig(task="sbm_node", epochs=1, seeds=(0,))
    data = SBMData(sbm_sizes=(10, 10), feature_model="binary")
    assert lines[4]["fingerprint"] == fingerprint(
        config, data, PerturbationSpec("bernoulli_flip", 0.5, 1))
    assert lines[0]["fingerprint"] == fingerprint(config, SBMData(sbm_sizes=(10, 10)))
    # The default noise spelled out is the same run.
    assert main([*base, "--feature-noise", "0.5"]) == 0
    assert _last_json(capsys)["fingerprint"] == lines[0]["fingerprint"]


def test_citation_fingerprint_names_the_files_not_their_path(tmp_path, monkeypatch,
                                                             capsys):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        write_citation_fixture(tmp_path / name)
    monkeypatch.chdir(tmp_path)
    base = ["train-node", "--epochs", "1", "--seeds", "0", "--data-dir"]
    # One copy by a relative and by an absolute path, and another copy.
    dirs = ["a", str(tmp_path / "a"), "b"]
    lines = [_last_json(capsys) for d in dirs if main([*base, d]) == 0]
    assert [line["data"] for line in lines] == [{"data_dir": d} for d in dirs]
    assert len({line["fingerprint"] for line in lines}) == 1
    # Editing any one of the five files names other data.
    config = ExperimentConfig(task="citation_node", epochs=1, seeds=(0,))
    seen = {fingerprint(config, datasets.CitationData("b"))} | {lines[0]["fingerprint"]}
    for path in sorted((tmp_path / "b").iterdir()):
        original = path.read_bytes()
        path.write_bytes(original + b"\n")
        seen.add(fingerprint(config, datasets.CitationData("b")))
        path.write_bytes(original)
    assert len(seen) == 6
    # A missing directory still exits 2, when the data is loaded.
    assert main([*base, "missing"]) == 2
    assert capsys.readouterr().err.endswith("dataset directory not found: missing\n")


@pytest.mark.parametrize("argv, message", [
    (["perturb", "--graph", "g.txt", "--features", "x.csv", "--model", "gaussian",
      "--value", "0.3", "--seed=-1"], "seed must be a nonnegative integer, got -1"),
    (["bench", "--sizes", "30", "--reps", "1", "--seed=-1"],
     "seed must be a nonnegative integer, got -1"),
    (["verify", "--seed=-1"], "seed must be a nonnegative integer, got -1"),
    (["train-node", "--sbm-sizes", "10,10", "--epochs", "1", "--seeds", "0",
      "--data-seed=-1"], "data_seed must be a nonnegative integer, got -1"),
    (["train-graph", "--epochs", "1", "--seeds", "0", "--data-seed=-1"],
     "data_seed must be a nonnegative integer, got -1"),
])
def test_negative_seed_exits_two_before_any_file_or_data(monkeypatch, capsys, argv, message):
    # The seed is refused where it enters, before a file is read or data made.
    def no_input(*args, **kwargs):
        raise AssertionError("input read")

    _no_data(monkeypatch)
    for module, name in [(cli.io, "read_graph_text"), (cli.io, "read_features_csv"),
                         (experiments_mod, "random_er_graph"),
                         (verify_mod, "random_er_graph")]:
        monkeypatch.setattr(module, name, no_input)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "input read" not in err and "dataset generated" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_bench_average_degree_must_be_finite_and_nonnegative(capsys, value):
    # nan used to time the complete graph, -1 to fail inside NumPy.
    assert main(["bench", "--sizes", "30", "--reps", "1", f"--avg-degree={value}"]) == 2
    captured = capsys.readouterr()
    assert f"avg_degree must be finite and >= 0, got {value}" in captured.err
    assert captured.out == ""


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
    assert len(rows) == 28
    assert all(set(r) == {"name", "mode", "passed", "detail", "value", "tol"}
               for r in rows)
    assert all(r["passed"] for r in rows)
    by_key = {(r["name"], r["mode"]): r for r in rows}
    assert by_key[("round_trip", "exact")]["tol"] == 1e-10
    assert 0.0 <= by_key[("round_trip", "exact")]["value"] <= 1e-10
    assert by_key[("round_trip", "chebyshev")]["tol"] == 1e-6
    assert 0.0 <= by_key[("round_trip", "chebyshev")]["value"] <= 1e-6
    for mode in ("exact", "chebyshev"):
        assert by_key[("shrinkage_laws", mode)]["value"] is None
        assert by_key[("shrinkage_laws", mode)]["tol"] is None
    assert by_key[("csr_layout", None)]["tol"] == 1e-12


def test_verify_failure_exits_three(monkeypatch, capsys):
    def fake_verify(**settings):
        return [{"name": "round_trip", "mode": "chebyshev", "passed": False,
                 "detail": "bad", "value": 1.0, "tol": 1e-6}]

    monkeypatch.setattr(verify_mod, "run_verify", fake_verify)
    assert main(["verify"]) == 3
    assert _last_json(capsys) == {
        "name": "round_trip", "mode": "chebyshev", "passed": False, "detail": "bad",
        "value": 1.0, "tol": 1e-6,
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


def _options(command):
    """The option strings of one subcommand and their argparse actions."""
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    return {flag: action for action in subparsers.choices[command]._actions
            for flag in action.option_strings}


# Every flag whose value a library function or dataclass defaults, by
# subcommand, with that function or dataclass. A flag is named by its
# argparse dest in the library, or given as a (flag, library name) pair.
SYSTEM_FLAGS = ("--dilation", "--levels", "--degree", "--mode")
TRAINING_FLAGS = (*SYSTEM_FLAGS, "--hidden", "--lr", "--weight-decay", "--epochs",
                  "--seeds")
LIBRARY_DEFAULTED = {
    "transform": [(transform.TransformSettings, SYSTEM_FLAGS)],
    "denoise": [(transform.TransformSettings, SYSTEM_FLAGS)],
    "pool": [(transform.TransformSettings, SYSTEM_FLAGS),
             (nn.ufg_pool_forward, (("--pool-mode", "mode"),))],
    "train-node": [
        (ExperimentConfig, (*TRAINING_FLAGS, "--dropout", "--activation", "--sigma",
                            "--threshold-mode")),
        (SBMData, ("--sbm-sizes", "--p-in", "--p-out", "--feature-model", "--feature-dim",
                   "--feature-noise", "--data-seed")),
    ],
    "train-graph": [
        (ExperimentConfig, (*TRAINING_FLAGS, "--pool-mode", "--patience")),
        (GraphData, ("--task", "--num-per-class", "--data-seed")),
    ],
    "perturb": [(PerturbationSpec, ("--seed",))],
    "bench": [(experiments_mod.bench_transform,
               ("--sizes", "--avg-degree", "--levels", "--degree", "--dilation", "--reps",
                "--seed"))],
    "verify": [(verify_mod.run_verify, ("--n", "--seed"))],
}


def _library_defaults(source) -> dict:
    """Default of every field of a dataclass or parameter of a function."""
    if dataclasses.is_dataclass(source):
        return {f.name: f.default for f in dataclasses.fields(source)}
    return {name: p.default for name, p in inspect.signature(source).parameters.items()}


def _defaulted(command) -> list:
    """``(flag, source, library name, library default)`` of every
    library-defaulted flag of ``command``."""
    rows = []
    for source, flags in LIBRARY_DEFAULTED.get(command, ()):
        defaults = _library_defaults(source)
        for flag in flags:
            flag, name = flag if isinstance(flag, tuple) else (flag, _options(command)[flag].dest)
            rows.append((flag, source, name, defaults[name]))
    return rows


def test_library_defaulted_flags_have_no_default_of_their_own():
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    for command in subparsers.choices:
        options = _options(command)
        for flag, _, _, default in _defaulted(command):
            assert options[flag].default is None, (command, flag)
            assert default not in (dataclasses.MISSING, inspect.Parameter.empty)
        with_default = {flag for flag, action in options.items()
                        if action.default not in (None, argparse.SUPPRESS)}
        assert not with_default, command


@pytest.mark.parametrize("command, flag, choices", [
    *((c, "--mode", transform.MODES) for c in ("transform", "denoise", "pool",
                                               "train-node", "train-graph")),
    ("train-node", "--threshold-mode", shrinkage.THRESHOLD_MODES),
    ("train-node", "--activation", experiments_mod.ACTIVATIONS),
    ("train-graph", "--pool-mode", experiments_mod.POOL_MODES),
    ("pool", "--pool-mode", nn.READOUTS),
    ("train-node", "--feature-model", datasets.FEATURE_MODELS),
    ("train-graph", "--task", datasets.GRAPH_TASKS),
])
def test_choices_are_the_library_tuples(command, flag, choices):
    assert _options(command)[flag].choices is choices


def _spelled_out(command) -> list[str]:
    """Every library-defaulted flag of ``command`` with the library's value;
    a None default, which the library resolves itself, has no spelling."""
    argv = []
    for flag, _, _, value in _defaulted(command):
        if value is not None:
            argv += [flag, ",".join(map(str, value)) if isinstance(value, tuple) else str(value)]
    return argv


@pytest.mark.parametrize("command, module, name", [
    ("transform", transform, "TransformSettings"),
    ("denoise", transform, "TransformSettings"),
    ("pool", transform, "TransformSettings"),
    ("pool", nn, "ufg_pool_forward"),
    ("train-node", datasets, "SBMData"),
    ("train-graph", datasets, "GraphData"),
    ("perturb", cli.perturb_mod, "PerturbationSpec"),
    ("bench", experiments_mod, "bench_transform"),
    ("verify", verify_mod, "run_verify"),
])
def test_every_given_flag_reaches_the_library(
    graph_files, monkeypatch, command, module, name
):
    gpath, spath, _ = graph_files
    source = getattr(module, name)
    signature = inspect.signature(source)
    seen = {}

    def record(*args, **kwargs):
        seen.update(signature.bind(*args, **kwargs).arguments)
        raise RuntimeError("recorded")

    # A dataclass stand-in keeps its fields, which the command reads.
    fake = (type(name, (source,), {"__new__": lambda cls, *a, **k: record(*a, **k)})
            if inspect.isclass(source) else record)
    monkeypatch.setattr(module, name, fake)
    files = ["--graph", gpath, "--signal", spath, "--out", "out"]
    inputs = {"transform": files, "denoise": [*files, "--sigma", "1"], "pool": files,
              "perturb": ["--graph", gpath, "--features", spath, "--model", "gaussian",
                          "--value", "0.3"]}
    assert main([command, *inputs.get(command, []), *_spelled_out(command)]) == 2
    # The settings passed: the arguments that have a library default.
    settings = {k: v for k, v in seen.items()
                if signature.parameters[k].default is not inspect.Parameter.empty}
    assert settings == {name: default for _, src, name, default in _defaulted(command)
                        if src is source and default is not None}


# Tiny runs that give no library-defaulted flag; paths are relative.
TINY_RUNS = [
    ["transform", "--graph", "g.txt", "--signal", "x.csv", "--out", "c.ufgc"],
    ["denoise", "--graph", "g.txt", "--signal", "x.csv", "--sigma", "1",
     "--truth", "x.csv", "--out", "d.csv"],
    ["pool", "--graph", "g.txt", "--signal", "x.csv", "--out", "p.csv"],
    ["train-node", "--sbm-sizes", "8,8", "--feature-dim", "3", "--metrics-out", "m.jsonl"],
    ["train-node", "--sbm-sizes", "8,8", "--feature-dim", "3", "--activation",
     "shrinkage", "--metrics-out", "m.jsonl"],
    ["train-graph", "--num-per-class", "5", "--metrics-out", "m.jsonl"],
    ["perturb", "--graph", "g.txt", "--features", "x.csv", "--model", "gaussian",
     "--value", "0.3", "--out-features", "f.csv"],
    ["bench", "--sizes", "20"],
    ["verify"],
]


@pytest.mark.parametrize("argv", TINY_RUNS, ids=lambda argv: argv[0])
def test_a_flag_left_out_takes_the_library_default(
    tmp_path, graph_files, monkeypatch, capsys, argv
):
    gpath, spath, _ = graph_files
    monkeypatch.setenv("UFG_DETERMINISTIC", "1")
    results = []
    # A flag the run gives comes after, and so overrides, its spelled-out value.
    for name, extra in (("bare", []), ("spelled", _spelled_out(argv[0]))):
        run_dir = tmp_path / name
        run_dir.mkdir()
        shutil.copy(gpath, run_dir / "g.txt")
        shutil.copy(spath, run_dir / "x.csv")
        monkeypatch.chdir(run_dir)
        inputs = set(run_dir.iterdir())
        assert main([argv[0], *extra, *argv[1:]]) == 0, extra
        files = {p.name: p.read_bytes() for p in set(run_dir.iterdir()) - inputs}
        results.append((capsys.readouterr().out, files))
    assert results[0] == results[1]
    assert results[0][0]


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


def test_every_readme_python_example_runs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    # Padded with the lines above the block, so that a traceback names the
    # README's own line.
    blocks = ["\n" * text.count("\n", 0, m.start(1)) + m[1]
              for m in re.finditer(r"^```python\n(.*?)^```", text, flags=re.S | re.M)]
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


class _Reached(BaseException):
    """Raised by a patched data generator, graph reader or operator factory:
    a flag value got past every check. Not an ``Exception``, so ``main``
    does not turn it into exit code 2."""


# Valid required flags of every subcommand with an int or float flag. The
# flag under test comes after them, so it overrides a flag of the same name.
_FLAG_BASE = {
    "transform": ["--graph", "g.txt", "--signal", "x.csv", "--out", "c.ufgc"],
    "denoise": ["--graph", "g.txt", "--signal", "x.csv", "--out", "y.csv",
                "--sigma", "1"],
    "pool": ["--graph", "g.txt", "--signal", "x.csv", "--out", "p.csv"],
    "train-node": ["--sbm-sizes", "10,10", "--epochs", "1", "--seeds", "0",
                   "--perturb-model", "gaussian", "--perturb-value", "0.5"],
    "train-graph": ["--epochs", "1", "--seeds", "0"],
    "perturb": ["--graph", "g.txt", "--features", "x.csv", "--model", "gaussian",
                "--value", "1"],
    "bench": ["--sizes", "30", "--reps", "1"],
    "verify": [],
}
_FLAG_VALUES = ("nan", "inf", "-inf", "-1", "0")
_HUGE_INT = str(10**30)
# The values of the list above that are valid, so that they reach the data,
# the graph file or the operator, each with its reason.
_VALID_FLAG_VALUES = {
    **{(command, "--degree", "0"): "degree-0 fits are constant gains"
       for command in ("transform", "denoise", "pool", "train-node", "train-graph",
                       "bench")},
    **{(command, flag, "0"): "seeds are nonnegative integers"
       for command, flag in (("train-node", "--data-seed"), ("train-graph", "--data-seed"),
                             ("perturb", "--seed"), ("bench", "--seed"),
                             ("verify", "--seed"))},
    **{(command, flag, "0"): "no weight decay"
       for command, flag in (("train-node", "--weight-decay"),
                             ("train-graph", "--weight-decay"))},
    **{(command, "--sigma", value): reason
       for command in ("train-node", "denoise")
       for value, reason in (("0", "a zero threshold keeps every coefficient"),
                             ("inf", "an infinite threshold zeroes every high pass"))},
    ("train-node", "--p-in", "0"): "an SBM may have no edge inside a block",
    ("train-node", "--p-out", "0"): "an SBM may have no edge between blocks",
    ("train-node", "--feature-noise", "0"): "noise-free gaussian features",
    ("train-node", "--perturb-value", "0"): "a zero perturbation changes nothing",
    ("perturb", "--value", "0"): "a zero perturbation changes nothing",
    ("train-node", "--dropout", "0"): "no dropout",
    ("bench", "--avg-degree", "0"): "an edgeless ER graph",
}


def _flags(*types):
    """``(subcommand, flag, dest)`` of every flag parsed by one of ``types``."""
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    return [(command, action.option_strings[-1], action.dest)
            for command, sub in subparsers.choices.items()
            for action in sub._actions if action.type in types]


def _numeric_flags():
    """``(subcommand, flag, dest)`` of every integer and ``float`` flag."""
    return _flags(cli._int64, float)


def test_every_numeric_flag_refuses_a_bad_value_before_any_work(monkeypatch, capsys):
    # Each int and float flag of every subcommand, at NaN, +-inf, -1 and 0:
    # a value must be refused (exit 1 or 2, a message naming the flag or its
    # field) before any data is made, any graph file is read or any operator
    # is built, unless it is valid and listed with its reason. Valid values
    # reach a patched entry point and stop there, so nothing trains.
    def reached(*args, **kwargs):
        raise _Reached()

    for module, names in (
        (datasets, ("generate_sbm", "load_citation", "cycles_and_stars",
                    "sbm_graph_family", "random_er_graph")),
        (experiments_mod, ("random_er_graph", "framelet_operator")),
        (verify_mod, ("random_er_graph", "generate_sbm", "framelet_operator")),
        (cli.io, ("read_graph_text",)),
        (transform, ("framelet_operator",)),
    ):
        for name in names:
            monkeypatch.setattr(module, name, reached)
    for task in datasets.GRAPH_TASKS:
        monkeypatch.setitem(datasets.GRAPH_TASKS, task, reached)

    flags, ints, lists = _numeric_flags(), _flags(cli._int64), _flags(cli._parse_int_list)
    # An integer must fit int64, NumPy's widest integer, but 1e30 is a valid
    # float. Each integer list flag gets one huge entry after a valid one.
    cases = list(itertools.product(flags, _FLAG_VALUES))
    cases += [(flag, _HUGE_INT) for flag in ints] + [(flag, f"3,{_HUGE_INT}") for flag in lists]
    covered, passed, misses = set(), set(), []
    for (command, flag, dest), value in cases:
        key = (command, flag, value)
        try:
            code = main([command, *_FLAG_BASE[command], f"{flag}={value}"])
        except _Reached:
            code = None
            passed.add(key)
        err = capsys.readouterr().err
        covered.add((command, flag))
        if code is None:
            if key not in _VALID_FLAG_VALUES:
                misses.append(f"{key}: reached the data unrefused")
            continue
        # --perturb-value sets PerturbationSpec's field ``value``.
        names = (flag, dest, dest.removeprefix("perturb_"))
        named = any(re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", line)
                    for name in names for line in err.splitlines())
        if code not in (1, 2) or not named:
            misses.append(f"{key}: exit {code}, stderr {err!r}")
        if _HUGE_INT in value and (code != 1 or f"argument {flag}: " not in err):
            misses.append(f"{key}: exit {code} (not a usage error), stderr {err!r}")
    assert misses == []
    assert passed == set(_VALID_FLAG_VALUES)
    assert len(ints) == 26 and len(lists) == 4
    assert len(covered) == len(flags) + len(lists) == 45 + 4
