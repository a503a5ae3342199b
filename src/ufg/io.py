"""File formats and metrics emission.

Formats (all little-endian, all floats 64-bit):

- Graph text: ``#`` comment lines, then ``N M`` and exactly M edge lines
  ``u v w`` (w optional, default 1.0). Undirected; duplicate pairs sum.
- Features CSV: one row per node, comma-separated floats, no header.
  Floats are written with ``repr`` (shortest round-trip, 17 significant
  digits), so write-read is exact.
- Labels text: one nonnegative integer (class id) per line.
- Coefficient file: magic ``UFGC``, then as u32 the version (4), N, d
  (features), n (high passes), J (levels), the degree t and the mode (0
  exact, 1 chebyshev), the dilation as f64, the 32-byte
  ``laplacian_digest`` of the graph, a 32-byte SHA-256 of every byte
  before it and of the payload, and the row-major f64 ``(nJ + 1) N x d``
  payload in ``FrameletSystem.block_index`` order: the graph and the file
  rebuild the operator, the digest tells whether it is the file's graph,
  and the checksum is checked before any setting is returned. Bitwise
  round-trip.
- Metrics: JSON lines written by ``encode_json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

from . import graphs
from .transform import MODES

COEFF_MAGIC = b"UFGC"
FORMAT_VERSION = 4
# After the magic: version, N, d, n, J, t, mode code; dilation; digest. The
# 32-byte checksum follows.
_COEFF_HEADER = struct.Struct("<7Id32s")


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
    try:
        return graphs.build_graph(n, edges)
    except MemoryError:
        raise ValueError(f"{path}: a graph of N = {n} nodes does not fit in memory") from None


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


def laplacian_digest(lap) -> bytes:
    """SHA-256 of a Laplacian's CSR arrays: ``indptr`` and ``indices``
    widened to little-endian int64, so the digest does not depend on the
    index width, then ``data`` as little-endian f8. A framelet operator
    depends on its graph only through the normalized Laplacian, so a
    coefficient file records the graph by this digest."""
    csr = lap.csr
    digest = hashlib.sha256()
    for array, dtype in ((csr.indptr, "<i8"), (csr.indices, "<i8"), (csr.data, "<f8")):
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.digest()


def write_coefficients(op, stack, path: str) -> None:
    """Write ``stack``, the coefficients of a signal under the framelet
    operator ``op``, with its transform settings and graph digest."""
    system = op.system
    if (stack.block_index, stack.num_nodes) != (op.block_index, op.num_nodes):
        raise ValueError("coefficient stack does not match the operator")
    head = COEFF_MAGIC + _COEFF_HEADER.pack(
        FORMAT_VERSION, stack.num_nodes, stack.num_features, system.num_high,
        system.levels, system.degree, MODES.index(system.mode), system.dilation,
        laplacian_digest(op.lap),
    )
    payload = np.ascontiguousarray(stack.data, dtype="<f8").tobytes()
    checksum = hashlib.sha256(head)
    checksum.update(payload)
    with open(path, "wb") as fh:
        fh.write(head + checksum.digest())
        fh.write(payload)


def read_coefficients(path: str):
    """``(settings, num_high, num_nodes, digest, data)``: ``settings`` are
    the dilation, levels, degree and mode keywords of ``framelet_operator``,
    ``digest`` the ``laplacian_digest`` of the file's graph, ``data`` the
    payload."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != COEFF_MAGIC:
        raise ValueError(f"{path}: bad magic, not a coefficient file")
    if len(blob) < 8:
        raise ValueError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {version}; rerun "
                         f"`ufg transform` to write version {FORMAT_VERSION}")
    end = 4 + _COEFF_HEADER.size
    offset = end + 32
    if len(blob) < offset:
        raise ValueError(f"{path}: truncated header")
    payload = blob[offset:]
    checksum = hashlib.sha256(blob[:end])
    checksum.update(payload)
    if checksum.digest() != blob[end:offset]:
        raise ValueError(f"{path}: checksum mismatch, the header or payload is corrupt")
    header = _COEFF_HEADER.unpack_from(blob, 4)
    _, n, d, n_high, levels, degree, mode, dilation, digest = header
    if mode >= len(MODES):
        raise ValueError(f"{path}: unknown mode code {mode}")
    rows = (n_high * levels + 1) * n
    if len(payload) != rows * d * 8:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes, expected {rows * d * 8}"
        )
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(rows, d)
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite value in the payload")
    settings = {"dilation": dilation, "levels": levels, "degree": degree,
                "mode": MODES[mode]}
    return settings, n_high, n, digest, data


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

