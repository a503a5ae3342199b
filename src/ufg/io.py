"""File formats and metrics emission.

Formats (all little-endian, all floats 64-bit):

- Graph text: ``#`` comment lines, then ``N M`` and exactly M edge lines
  ``u v w`` (w optional, default 1.0). Undirected; duplicate pairs sum.
- Features CSV: one row per node, comma-separated floats, no header.
  Floats are written with ``repr`` (shortest round-trip, 17 significant
  digits), so write-read is exact.
- Labels text: one nonnegative integer (class id) per line.
- Coefficient file: magic ``UFGC``, version u32, then N, d (features),
  n (high passes), J (levels) as u32, the block map as (r, j) u32 pairs in
  stack order, then the row-major f64 payload. Bitwise round-trip.
- Metrics: JSON lines written by ``encode_json``.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

COEFF_MAGIC = b"UFGC"
FORMAT_VERSION = 1


def deterministic_mode() -> bool:
    """True when UFG_DETERMINISTIC requests byte-stable outputs."""
    return os.environ.get("UFG_DETERMINISTIC", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def format_float(x) -> str:
    """Shortest decimal that round-trips to the same 64-bit float."""
    return repr(float(x))


# -- graph text --------------------------------------------------------------


def _data_lines(path: str):
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def read_graph_text(path: str):
    """Parse the graph text format; errors carry the offending line number."""
    from .graphs import build_graph

    lines = _data_lines(path)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ValueError(f"{path}: empty graph file") from None
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"{path}:{lineno}: header must be 'N M'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"{path}:{lineno}: header must be two integers") from None
    edges = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"{path}:{lineno}: edge line must be 'u v [w]'")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed edge line") from None
        edges.append((u, v, w))
    if len(edges) != m:
        raise ValueError(f"{path}: header promises {m} edges, found {len(edges)}")
    return build_graph(n, edges)


def write_graph_text(graph, path: str) -> None:
    coo = graph.adjacency.csr.tocoo()
    entries = sorted(
        (int(u), int(v), float(w))
        for u, v, w in zip(coo.row, coo.col, coo.data)
        if u <= v
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.num_nodes} {len(entries)}\n")
        for u, v, w in entries:
            fh.write(f"{u} {v} {format_float(w)}\n")


# -- features / labels -------------------------------------------------------


def read_features_csv(path: str) -> np.ndarray:
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed float") from None
            if not all(map(math.isfinite, rows[-1])):
                raise ValueError(f"{path}:{lineno}: non-finite value")
            if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: ragged row")
    if not rows:
        raise ValueError(f"{path}: no feature rows")
    return np.asarray(rows, dtype=np.float64)


def write_features_csv(features: np.ndarray, path: str) -> None:
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as fh:
        for row in features:
            fh.write(",".join(format_float(x) for x in row) + "\n")


def read_labels_text(path: str) -> np.ndarray:
    labels = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                labels.append(int(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: labels must be integers") from None
            if labels[-1] < 0:
                raise ValueError(f"{path}:{lineno}: labels must be nonnegative")
    return np.asarray(labels, dtype=np.int64)


# -- coefficient stacks ------------------------------------------------------


def write_coefficients(stack, path: str) -> None:
    n_high = max((r for r, _ in stack.block_index), default=0)
    levels = stack.block_index[0][1]
    with open(path, "wb") as fh:
        fh.write(COEFF_MAGIC)
        fh.write(
            struct.pack(
                "<5I",
                FORMAT_VERSION,
                stack.num_nodes,
                stack.num_features,
                n_high,
                levels,
            )
        )
        for r, j in stack.block_index:
            fh.write(struct.pack("<2I", r, j))
        fh.write(np.ascontiguousarray(stack.data, dtype="<f8").tobytes())


def read_coefficients(path: str):
    from .transform import CoefficientStack

    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != COEFF_MAGIC:
        raise ValueError(f"{path}: bad magic, not a coefficient file")
    if len(blob) < 24:
        raise ValueError(f"{path}: truncated header")
    version, n, d, n_high, levels = struct.unpack_from("<5I", blob, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    num_blocks = n_high * levels + 1
    offset = 24
    block_index = []
    for _ in range(num_blocks):
        if offset + 8 > len(blob):
            raise ValueError(f"{path}: truncated block map")
        r, j = struct.unpack_from("<2I", blob, offset)
        block_index.append((r, j))
        offset += 8
    expected = num_blocks * n * d * 8
    payload = blob[offset:]
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(
        num_blocks * n, d
    )
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite value in the payload")
    return CoefficientStack(
        data=data, block_index=tuple(block_index), num_nodes=n
    )


# -- metrics ---------------------------------------------------------------


def _plain(obj):
    if isinstance(obj, dict):
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(val) for val in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        return val if math.isfinite(val) else None
    return obj


def encode_json(obj) -> str:
    """Strict, byte-stable JSON text of plain data.

    Keys are sorted; NumPy integer, float and bool scalars become Python
    scalars; non-finite floats (a diverged seed's NaN) become ``null``, so
    strict parsers accept the output. Any other object that JSON cannot
    hold raises ``TypeError``.
    """
    return json.dumps(_plain(obj), sort_keys=True, allow_nan=False)


def write_metrics_jsonl(records, path: str) -> None:
    """One ``encode_json`` object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(encode_json(rec) + "\n")

