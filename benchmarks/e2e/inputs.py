"""Seeded, benchmark-owned input graphs.

The program under test receives only the files written here, in the
repo's TSV edge-list format (``# vertices N`` then ``src\\tdst[\\tweight]``).
Both generators emit the same number of edges for every seed, and both
lay a ring ``v -> v+1`` under the random edges: every vertex is reachable
from the source vertex 0 and has an out-edge, so pagerank loses no mass
and converges in the same number of supersteps whatever the seed.  That
keeps the cost of a run a property of the workload's size, not of the
draw.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np


def rmat(n: int, samples: int, rng, a=0.57, b=0.19, c=0.19):
    """R-MAT power-law endpoints (social-network skew)."""
    bits = max(1, int(np.ceil(np.log2(n))))
    quadrant = rng.choice(4, size=(samples, bits), p=[a, b, c, 1.0 - a - b - c])
    powers = 1 << np.arange(bits - 1, -1, -1, dtype=np.int64)
    src = ((quadrant >> 1) * powers).sum(axis=1) % n
    dst = ((quadrant & 1) * powers).sum(axis=1) % n
    return src, dst


def crawl(n: int, samples: int, rng, spread=0.01, long_range=0.02):
    """Locality-crawl endpoints: mostly to ids within ``spread * n``
    (large diameter), a ``long_range`` share anywhere."""
    window = max(2, int(spread * n))
    src = rng.integers(0, n, size=samples)
    near = (src + rng.integers(-window, window + 1, size=samples)) % n
    far = rng.integers(0, n, size=samples)
    return src, np.where(rng.random(samples) < long_range, far, near)


GENERATORS = {"rmat": rmat, "crawl": crawl}


def generate(kind: str, n: int, m: int, rng):
    """The ring plus the first ``m`` distinct sampled edges that are not
    loops or ring edges, in a seeded order: exactly ``n + m`` edges."""
    ring = np.arange(n, dtype=np.int64)
    ring = ring * n + (ring + 1) % n
    samples = 2 * m
    while True:
        src, dst = GENERATORS[kind](n, samples, rng)
        code = np.concatenate([ring, src * n + dst])
        _, first = np.unique(code, return_index=True)
        code = code[np.sort(first)]
        code = code[code // n != code % n]
        if len(code) >= n + m:
            break
        samples *= 2
    code = rng.permutation(code[: n + m])
    return code // n, code % n


def write_graph(path: str, kind: str, n: int, m: int, weighted: bool, seed: int) -> dict:
    """Generate one graph file; returns ``{vertices, edges, sha256}``."""
    rng = np.random.default_rng([seed, n, m])
    src, dst = generate(kind, n, m, rng)
    columns = [src.tolist(), dst.tolist()]
    if weighted:
        columns.append(rng.integers(1, 10, size=len(src)).tolist())
    lines = [f"# vertices {n}", f"# name {kind}-{seed}"]
    lines.extend("\t".join(map(str, row)) for row in zip(*columns))
    data = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as handle:
        handle.write(data)
    return {"vertices": n, "edges": len(src), "sha256": hashlib.sha256(data).hexdigest()}


def prepare(cache_dir: str, kind: str, n: int, m: int, weighted: bool, seed: int) -> dict:
    """The cached graph file for these parameters, generated on a miss;
    returns ``{path, vertices, edges, sha256}``."""
    stem = f"{kind}-n{n}-m{m}-{'w' if weighted else 'u'}-s{seed}"
    path = os.path.join(cache_dir, stem + ".tsv")
    meta_path = os.path.join(cache_dir, stem + ".json")
    if os.path.exists(path) and os.path.exists(meta_path):
        with open(meta_path, encoding="utf-8") as handle:
            meta = json.load(handle)
    else:
        os.makedirs(cache_dir, exist_ok=True)
        meta = write_graph(path, kind, n, m, weighted, seed)
        with open(meta_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
    return dict(meta, path=path)
