"""File formats: graph text, CSV, binary coefficients, metrics."""

import json

import numpy as np
import pytest

from ufg.graphs import build_graph
from ufg.io import (
    COEFF_MAGIC,
    deterministic_mode,
    read_coefficients,
    read_features_csv,
    read_graph_text,
    read_labels_text,
    write_coefficients,
    write_features_csv,
    write_graph_text,
    write_metrics_jsonl,
)
from ufg.transform import CoefficientStack


# -- graph text --------------------------------------------------------------


def test_graph_text_round_trip_with_weights_and_loop(tmp_path):
    graph = build_graph(4, [(0, 1, 0.25), (1, 2, 2.0), (3, 3, 0.5)])
    path = str(tmp_path / "g.txt")
    write_graph_text(graph, path)
    back = read_graph_text(path)
    assert back.num_nodes == 4
    np.testing.assert_array_equal(
        back.adjacency.to_dense(), graph.adjacency.to_dense()
    )


def test_graph_text_comments_blanks_and_default_weight(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(
        "# a toy graph\n\n3 2  # header\n0 1\n1 2 3.5 # weighted\n"
    )
    graph = read_graph_text(str(path))
    dense = graph.adjacency.to_dense()
    assert dense[0, 1] == 1.0
    assert dense[1, 2] == 3.5


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("", "empty graph file"),
        ("3\n", "header must be 'N M'"),
        ("a b\n", "two integers"),
        ("2 1\n0 1 1.0 extra\n", "edge line must be"),
        ("2 1\n0 x\n", "malformed edge line"),
        ("2 2\n0 1\n", "promises 2 edges"),
    ],
)
def test_graph_text_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ValueError, match=fragment):
        read_graph_text(str(path))


def test_graph_text_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# comment\n2 1\n0 x\n")
    with pytest.raises(ValueError, match=r":3:"):
        read_graph_text(str(path))


# -- features / labels -------------------------------------------------------


def test_features_csv_round_trip_is_exact(tmp_path, rng):
    features = rng.normal(size=(5, 3)) * np.pi
    path = str(tmp_path / "x.csv")
    write_features_csv(features, path)
    np.testing.assert_array_equal(read_features_csv(path), features)


def test_features_csv_one_dimensional_input(tmp_path):
    path = str(tmp_path / "x.csv")
    write_features_csv(np.array([1.0, 2.0, 3.0]), path)
    assert read_features_csv(path).shape == (1, 3)


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("1.0,2.0\n3.0\n", "ragged row"),
        ("1.0,oops\n", "malformed float"),
        ("", "no feature rows"),
        ("1.0,nan\n", ":1: non-finite value"),
        ("inf,2.0\n", ":1: non-finite value"),
    ],
)
def test_features_csv_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ValueError, match=fragment):
        read_features_csv(str(path))


def test_labels_round_trip_and_error(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text("0\n2\n1\n1\n")
    np.testing.assert_array_equal(read_labels_text(str(path)), [0, 2, 1, 1])
    (tmp_path / "bad.txt").write_text("0\ntwo\n")
    with pytest.raises(ValueError, match=r":2: labels must be integers"):
        read_labels_text(str(tmp_path / "bad.txt"))


def test_labels_reject_negative_ids(tmp_path):
    # A -1 would index the last class in the loss and escape labels.max().
    path = tmp_path / "y.txt"
    path.write_text("0\n1\n\n-1\n")
    with pytest.raises(ValueError, match=r"y\.txt:4: labels must be nonnegative"):
        read_labels_text(str(path))


# -- coefficient stacks ------------------------------------------------------


@pytest.fixture
def stack(rng):
    index = ((0, 2), (1, 1), (1, 2))
    data = rng.normal(size=(len(index) * 6, 3))
    return CoefficientStack(data=data, block_index=index, num_nodes=6)


def test_coefficients_binary_round_trip_is_bitwise(tmp_path, stack):
    path = str(tmp_path / "c.ufgc")
    write_coefficients(stack, path)
    back = read_coefficients(path)
    assert back.block_index == stack.block_index
    assert back.num_nodes == stack.num_nodes
    np.testing.assert_array_equal(back.data, stack.data)


def test_coefficients_bad_magic(tmp_path):
    path = tmp_path / "junk.ufgc"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError, match="bad magic"):
        read_coefficients(str(path))


def test_coefficients_truncation_errors(tmp_path, stack):
    path = tmp_path / "c.ufgc"
    write_coefficients(stack, str(path))
    blob = path.read_bytes()
    short = tmp_path / "short.ufgc"
    short.write_bytes(blob[:30])  # inside the block map
    with pytest.raises(ValueError, match="truncated block map"):
        read_coefficients(str(short))
    clipped = tmp_path / "clipped.ufgc"
    clipped.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="payload"):
        read_coefficients(str(clipped))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_coefficients_reject_non_finite_payload(tmp_path, stack, bad):
    data = stack.data.copy()
    data[4, 1] = bad
    path = str(tmp_path / "c.ufgc")
    write_coefficients(stack.with_data(data), path)
    with pytest.raises(ValueError, match="non-finite") as err:
        read_coefficients(path)
    assert path in str(err.value)


def test_coefficients_unsupported_version(tmp_path, stack):
    path = tmp_path / "c.ufgc"
    write_coefficients(stack, str(path))
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="unsupported version 99"):
        read_coefficients(str(path))
    assert blob[:4] == COEFF_MAGIC


# -- metrics ---------------------------------------------------------------


def test_metrics_jsonl_round_trip_sorted_keys(tmp_path):
    records = [{"b": 1, "a": np.float64(0.5)}, {"a": 2.0, "b": "x"}]
    path = tmp_path / "m.jsonl"
    write_metrics_jsonl(records, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == '{"a": 0.5, "b": 1}'
    back = [json.loads(line) for line in text.splitlines()]
    assert back == [{"a": 0.5, "b": 1}, {"a": 2.0, "b": "x"}]


def test_metrics_jsonl_is_strict_json(tmp_path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    record = {"n": np.int64(12), "loss": float("nan"), "acc": [np.float32(0.5), -np.inf]}
    path = tmp_path / "m.jsonl"
    write_metrics_jsonl([record], str(path))
    line = path.read_text().splitlines()[0]
    assert json.loads(line, parse_constant=reject) == {
        "acc": [0.5, None], "loss": None, "n": 12,
    }
    assert '"n": 12}' in line  # an integer stays an integer, not 12.0


@pytest.mark.parametrize(
    "value, expected",
    [("1", True), ("true", True), (" YES ", True), ("on", True),
     ("", False), ("0", False), ("off", False)],
)
def test_deterministic_mode_env_parsing(monkeypatch, value, expected):
    monkeypatch.setenv("UFG_DETERMINISTIC", value)
    assert deterministic_mode() is expected
