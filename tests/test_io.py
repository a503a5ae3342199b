"""File formats: graph text, CSV, binary coefficients, metrics."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest

from conftest import reseal
from ufg import graphs
from ufg.datasets import random_er_graph
from ufg.graphs import build_graph
from ufg.io import (
    COEFF_MAGIC,
    deterministic_mode,
    laplacian_digest,
    read_coefficients,
    read_features_csv,
    read_graph_text,
    read_labels_text,
    write_coefficients,
    write_features_csv,
    write_graph_text,
    write_metrics_jsonl,
)
from ufg.filters import FilterBank, haar_filter_bank
from ufg.sparse import SparseMatrix
from ufg.transform import (
    CoefficientStack,
    FrameletSystem,
    build_operators,
    framelet_operator,
)


# -- graph text --------------------------------------------------------------


def test_graph_text_round_trip_with_weights_and_loop(tmp_path):
    graph = build_graph(4, [(0, 1, 0.25), (1, 2, 2.0), (3, 3, 0.5)])
    path = str(tmp_path / "g.txt")
    write_graph_text(graph, path)
    back = read_graph_text(path)
    assert back.num_nodes == 4
    np.testing.assert_array_equal(
        back.adjacency.csr.toarray(), graph.adjacency.csr.toarray()
    )


def test_graph_text_comments_blanks_and_default_weight(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(
        "# a toy graph\n\n3 2  # header\n0 1\n1 2 3.5 # weighted\n"
    )
    graph = read_graph_text(str(path))
    dense = graph.adjacency.csr.toarray()
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


def test_graph_text_too_large_for_memory_names_file_and_n(tmp_path, monkeypatch):
    def out_of_memory(num_nodes, edges):
        raise MemoryError

    monkeypatch.setattr(graphs, "build_graph", out_of_memory)
    path = tmp_path / "big.txt"
    path.write_text("2000000000 1\n0 1\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: a graph of N = 2000000000 nodes does not fit in memory")):
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


def _graph(num_nodes, seed=3):
    return random_er_graph(num_nodes, avg_degree=3.0, rng=np.random.default_rng(seed))


def _stack(op, num_features, rng):
    index = op.block_index
    data = rng.normal(size=(len(index) * op.num_nodes, num_features))
    return CoefficientStack(data=data, block_index=index, num_nodes=op.num_nodes)


@pytest.fixture
def op():
    return framelet_operator(_graph(6), levels=2)


@pytest.fixture
def stack(op, rng):
    return _stack(op, 3, rng)


def _header_field(blob, k):
    """The k-th u32 after the magic: version, N, d, n, J, t, mode code."""
    return int.from_bytes(blob[4 + 4 * k: 8 + 4 * k], "little")


def test_coefficients_binary_round_trip_is_bitwise(tmp_path, op, stack):
    path = str(tmp_path / "c.ufgc")
    write_coefficients(op, stack, path)
    settings, num_high, num_nodes, digest, data = read_coefficients(path)
    assert settings == {"dilation": 2.0, "levels": 2, "degree": op.system.degree,
                        "mode": "exact"}
    assert (num_high, num_nodes) == (1, stack.num_nodes)
    assert digest == laplacian_digest(op.lap)
    np.testing.assert_array_equal(data, stack.data, strict=True)
    # The payload follows the 104-byte header bitwise; the header ends with
    # the SHA-256 of the bytes before it and of the payload.
    blob = (tmp_path / "c.ufgc").read_bytes()
    assert _header_field(blob, 0) == 4
    assert blob[40:72] == digest
    assert blob[72:104] == hashlib.sha256(blob[:72] + blob[104:]).digest()
    assert blob[104:] == stack.data.astype("<f8").tobytes()


def test_laplacian_digest_names_the_graph_not_its_index_width():
    lap = _graph(8).laplacian
    assert lap.csr.indices.dtype == np.int32
    wide = lap.csr.copy()
    wide.indptr, wide.indices = wide.indptr.astype(np.int64), wide.indices.astype(np.int64)
    assert laplacian_digest(SparseMatrix(wide)) == laplacian_digest(lap)
    assert len(laplacian_digest(lap)) == 32
    # Another graph of the same size, or the same graph reweighted, differs.
    assert laplacian_digest(_graph(8, seed=4).laplacian) != laplacian_digest(lap)
    coo = _graph(8).adjacency.csr.tocoo()
    reweighted = build_graph(8, [(int(u), int(v), 2.0 * w if u == 0 else w)
                                 for u, v, w in zip(coo.row, coo.col, coo.data) if u <= v])
    assert laplacian_digest(reweighted.laplacian) != laplacian_digest(lap)


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
@pytest.mark.parametrize("degree", [0, 8, 16])
@pytest.mark.parametrize("levels", [1, 3])
@pytest.mark.parametrize("dilation", [1.25, 2.0, 3.0])
def test_coefficient_file_records_its_transform(
    tmp_path, rng, dilation, levels, degree, mode
):
    op = framelet_operator(_graph(5), dilation, levels, degree, mode)
    stack = _stack(op, 2, rng)
    path = str(tmp_path / "c.ufgc")
    write_coefficients(op, stack, path)
    settings, num_high, num_nodes, digest, data = read_coefficients(path)
    assert settings == {"dilation": dilation, "levels": levels, "degree": degree,
                        "mode": mode}
    assert (num_high, num_nodes) == (op.system.num_high, 5)
    assert digest == laplacian_digest(_graph(5).laplacian)
    assert data.tobytes() == stack.data.tobytes()
    # The settings rebuild the system, and so its block order.
    assert FrameletSystem(haar_filter_bank(), **settings).block_index() == stack.block_index


def test_coefficients_record_every_high_pass(tmp_path, rng):
    linear = FilterBank(low_pass=np.cos, high_passes=(np.sin, np.sin))
    graph = _graph(4)
    op = build_operators(FrameletSystem(linear, levels=2), graph.laplacian, graph.spectrum)
    stack = _stack(op, 1, rng)
    path = str(tmp_path / "c.ufgc")
    write_coefficients(op, stack, path)
    _, num_high, _, _, data = read_coefficients(path)
    assert num_high == 2
    np.testing.assert_array_equal(data, stack.data)


def test_coefficients_of_another_system_are_not_written(tmp_path, stack):
    path = tmp_path / "c.ufgc"
    with pytest.raises(ValueError, match="does not match the operator"):
        write_coefficients(framelet_operator(_graph(6), levels=3), stack, str(path))
    assert not path.exists()
    # Nor those of another node count: the digest would name the wrong graph.
    with pytest.raises(ValueError, match="does not match the operator"):
        write_coefficients(framelet_operator(_graph(7), levels=2), stack, str(path))
    assert not path.exists()


def test_coefficients_bad_magic(tmp_path):
    path = tmp_path / "junk.ufgc"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError, match="bad magic"):
        read_coefficients(str(path))


def test_coefficients_truncation_errors(tmp_path, op, stack):
    path = tmp_path / "c.ufgc"
    write_coefficients(op, stack, str(path))
    blob = path.read_bytes()
    for cut in (6, 30, 39, 60):  # inside the version, sizes, dilation, digest
        short = tmp_path / "short.ufgc"
        short.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match="truncated header"):
            read_coefficients(str(short))
    clipped = tmp_path / "clipped.ufgc"
    clipped.write_bytes(reseal(blob[:-8]))
    with pytest.raises(ValueError, match="payload"):
        read_coefficients(str(clipped))
    padded = tmp_path / "padded.ufgc"
    padded.write_bytes(reseal(blob + bytes(8)))
    with pytest.raises(ValueError, match="payload is 440 bytes, expected 432"):
        read_coefficients(str(padded))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_coefficients_reject_non_finite_payload(tmp_path, op, stack, bad):
    data = stack.data.copy()
    data[4, 1] = bad
    path = str(tmp_path / "c.ufgc")
    write_coefficients(op, stack.with_data(data), path)
    with pytest.raises(ValueError, match="non-finite") as err:
        read_coefficients(path)
    assert path in str(err.value)


def test_coefficients_unsupported_version(tmp_path, op, stack):
    path = tmp_path / "c.ufgc"
    write_coefficients(op, stack, str(path))
    blob = bytearray(path.read_bytes())
    assert _header_field(blob, 0) == 4
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="unsupported version 99"):
        read_coefficients(str(path))
    assert blob[:4] == COEFF_MAGIC


def test_coefficients_version_1_is_refused(tmp_path, stack):
    # Version 1: N, d, n, J, then a block map of (r, j) pairs, no settings.
    path = tmp_path / "c.ufgc"
    block_map = b"".join(struct.pack("<2I", r, j) for r, j in stack.block_index)
    path.write_bytes(COEFF_MAGIC + struct.pack("<5I", 1, 6, 3, 1, 2) + block_map
                     + stack.data.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="unsupported version 1; rerun `ufg transform`"):
        read_coefficients(str(path))


def test_coefficients_version_2_is_refused(tmp_path, stack):
    # Version 2: the settings of version 3, but no graph digest.
    path = tmp_path / "c.ufgc"
    path.write_bytes(COEFF_MAGIC + struct.pack("<7Id", 2, 6, 3, 1, 2, 16, 0, 2.0)
                     + stack.data.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="unsupported version 2; rerun `ufg transform` "
                                         "to write version 4"):
        read_coefficients(str(path))


def test_coefficients_unknown_mode_code(tmp_path, op, stack):
    path = tmp_path / "c.ufgc"
    write_coefficients(op, stack, str(path))
    blob = bytearray(path.read_bytes())
    assert _header_field(blob, 6) == 0  # exact
    blob[28:32] = (2).to_bytes(4, "little")
    path.write_bytes(reseal(bytes(blob)))
    with pytest.raises(ValueError, match="unknown mode code 2"):
        read_coefficients(str(path))


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
