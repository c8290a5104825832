"""Edge-list IO.

The paper's PowerLog loads graphs from HDFS; here graphs round-trip
through plain tab-separated edge-list files (``src<TAB>dst[<TAB>weight]``
with a ``# vertices <n>`` header) so experiments can be exported and
re-imported deterministically.
"""

from __future__ import annotations

import math
import os
from typing import Optional, Union

import numpy as np

from repro.graphs.graph import Graph


def write_edge_list(graph: Graph, path: Union[str, os.PathLike]) -> None:
    """Write a graph as a TSV edge list (weights included if present)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# vertices {graph.num_vertices}\n")
        handle.write(f"# name {graph.name}\n")
        if graph.weights is None:
            for src, dst in graph.edges:
                handle.write(f"{src}\t{dst}\n")
        else:
            for (src, dst), weight in zip(graph.edges, graph.weights):
                handle.write(f"{src}\t{dst}\t{weight}\n")


class EdgeListError(ValueError):
    """An edge-list file is malformed; the message starts ``path:lineno``."""

    def __init__(self, path, lineno: Optional[int], message: str):
        self.path = os.fspath(path)
        self.lineno = lineno
        where = self.path if lineno is None else f"{self.path}:{lineno}"
        super().__init__(f"{where}: {message}")


def _diagnose(fields: list) -> tuple:
    """Parse what :func:`_read_lines`' fast conversions refused.

    Returns ``(src, dst, weight)`` for the valid-but-rare spellings (a
    weight in exponent notation without a ``.``) and raises a
    ``ValueError`` naming the defect for everything else.
    """
    if len(fields) < 2:
        raise ValueError(f"expected 'src dst [weight]', got {len(fields)} field")
    try:
        src, dst = int(fields[0]), int(fields[1])
    except ValueError:
        raise ValueError(
            f"vertex ids must be integers, got {fields[0]!r} {fields[1]!r}"
        ) from None
    if src < 0 or dst < 0:
        raise ValueError(f"vertex ids must be non-negative, got {src} {dst}")
    if len(fields) < 3:
        return src, dst, None
    raw = fields[2]
    try:
        weight = float(raw)
    except ValueError:
        raise ValueError(f"weight {raw!r} is not a number") from None
    if not math.isfinite(weight):
        raise ValueError(f"weight {raw!r} is not finite")
    return src, dst, weight


#: the only bytes the columnar pass reads in a file's body
_BODY_BYTES = b"0123456789\t\n"

#: the longest field the columnar pass parses: 18 digits always fit an
#: int64 (numpy raises OverflowError, not ValueError, past it)
_MAX_DIGITS = 18

#: a row's field terminators, by width: tabs, then the newline
_ROW_ENDS = {2: np.array([9, 10], np.uint8), 3: np.array([9, 9, 10], np.uint8)}


def read_edge_list(path: Union[str, os.PathLike]) -> Graph:
    """Read a graph written by :func:`write_edge_list`.

    Also accepts plain headerless edge lists, inferring the vertex count
    as ``max id + 1``.  Weights parse as ``int`` when they are integer
    literals and as ``float`` otherwise.  Non-integer or negative vertex
    ids, non-numeric weights and NaN/infinite weights raise
    :class:`EdgeListError`.

    A file whose body is plain unsigned integers -- ``#`` and blank
    lines only above the first edge, then newline-separated rows of two
    or three tab-separated fields of 1 to 18 digits, the same number on
    every row -- is parsed in one numpy pass into a column graph
    (:meth:`Graph.from_columns`).  Every other
    file goes through the line-by-line reader, the one source of the
    line-numbered refusals and of floating-point weights; on the files
    the columnar pass takes, the two give the same graph.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    graph = _read_columns(path, data)
    return graph if graph is not None else _read_lines(path)


def _header(path, lineno: int, line: str, num_vertices, name: str) -> tuple:
    """Apply one stripped ``#`` line to the header's ``(num_vertices,
    name)``; other comments leave them as they were."""
    parts = line[1:].split()
    if len(parts) == 2 and parts[0] == "vertices":
        try:
            num_vertices = int(parts[1])
        except ValueError:
            raise EdgeListError(
                path, lineno, f"vertex count {parts[1]!r} is not an integer"
            ) from None
    elif len(parts) == 2 and parts[0] == "name":
        name = parts[1]
    return num_vertices, name


def _read_columns(path, data: bytes) -> Optional[Graph]:
    """:func:`read_edge_list`'s columnar pass: the graph, or None when
    ``data`` is outside the pass's domain."""
    # text mode reads \r as a line end and refuses what is not UTF-8
    if b"\r" in data:
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    num_vertices, name = None, "graph"
    start = lineno = 0
    # the leading blank and ``#`` lines, exactly as the line reader sees them
    while start < len(data):
        end = data.find(b"\n", start)
        end = len(data) if end < 0 else end
        line = data[start:end].decode("utf-8").strip()
        if line and not line.startswith("#"):
            break
        lineno += 1
        if line:
            num_vertices, name = _header(path, lineno, line, num_vertices, name)
        start = end + 1
    body = data[start:]
    if body.translate(None, _BODY_BYTES):
        return None
    if body and not body.endswith(b"\n"):
        body += b"\n"
    buf = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(buf < 48)  # each field's tab or newline
    if not len(ends):
        values = np.empty((0, 2), dtype=np.int64)
    else:
        width = _row_width(buf, ends)
        if width is None:
            return None
        values = np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, width)
    src = np.ascontiguousarray(values[:, 0])
    dst = np.ascontiguousarray(values[:, 1])
    weights = values[:, 2].tolist() if values.shape[1] == 3 else None
    if num_vertices is None:
        num_vertices = 1 + max(int(src.max()), int(dst.max())) if len(src) else 0
    return Graph.from_columns(num_vertices, src, dst, weights, name=name)


def _row_width(buf, ends) -> Optional[int]:
    """The fields per row of a screened body ``buf`` whose field ends
    are ``ends``: 2 or 3, the same on every row, each field 1 to 18
    digits -- else None."""
    lengths = np.diff(ends, prepend=-1)  # each field with its end
    # an empty field (a blank line, a doubled or edge tab) or a long one
    if lengths.min() < 2 or lengths.max() > _MAX_DIGITS + 1:
        return None
    kinds = buf.take(ends)
    width = int(np.argmax(kinds == 10)) + 1  # the first row's fields
    pattern = _ROW_ENDS.get(width)
    if pattern is None or len(kinds) % width:
        return None
    if not (kinds.reshape(-1, width) == pattern).all():
        return None
    return width


def _read_lines(path) -> Graph:
    """:func:`read_edge_list`'s line-by-line reader."""
    edges: list[tuple[int, int]] = []
    weights: list = []
    num_vertices = None
    name = "graph"
    isfinite = math.isfinite
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                num_vertices, name = _header(path, lineno, line, num_vertices, name)
                continue
            fields = line.split("\t")
            if len(fields) == 1:
                fields = line.split()
            # the conversions below are the whole per-line cost; anything
            # they refuse is sorted out (or rejected) off the hot path
            try:
                src, dst = int(fields[0]), int(fields[1])
                if src < 0 or dst < 0:
                    raise ValueError
                if len(fields) >= 3:
                    raw = fields[2]
                    if "." in raw:
                        weight = float(raw)
                        if not isfinite(weight):
                            raise ValueError
                        weights.append(weight)
                    else:
                        weights.append(int(raw))
            except (ValueError, IndexError):
                try:
                    src, dst, weight = _diagnose(fields)
                except ValueError as exc:
                    raise EdgeListError(path, lineno, str(exc)) from None
                if weight is not None:
                    weights.append(weight)
            edges.append((src, dst))
    if weights and len(weights) != len(edges):
        raise EdgeListError(path, None, "some edges have weights and some do not")
    if num_vertices is None:
        num_vertices = 1 + max(
            (max(src, dst) for src, dst in edges), default=-1
        )
    return Graph(num_vertices, edges, weights or None, name=name)
