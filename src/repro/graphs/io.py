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
    """Parse what :func:`read_edge_list`'s fast conversions refused.

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


def read_edge_list(path: Union[str, os.PathLike]) -> Graph:
    """Read a graph written by :func:`write_edge_list`.

    Also accepts plain headerless edge lists, inferring the vertex count
    as ``max id + 1``.  Weights parse as ``int`` when they are integer
    literals and as ``float`` otherwise.  Non-integer or negative vertex
    ids, non-numeric weights and NaN/infinite weights raise
    :class:`EdgeListError`.
    """
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
