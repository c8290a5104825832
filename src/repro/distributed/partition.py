"""Key partitioning across workers.

Python's built-in ``hash`` is salted per process, so a dedicated stable
hash keeps partitioning -- and therefore every simulated run --
deterministic across processes and sessions.
"""

from __future__ import annotations

import zlib


def stable_hash(key) -> int:
    """A process-independent hash for ints, floats, strings and tuples."""
    if isinstance(key, int):
        # splitmix-style mixing so consecutive vertex ids spread out
        h = (key ^ (key >> 16)) * 0x45D9F3B
        h = (h ^ (h >> 16)) * 0x45D9F3B
        return (h ^ (h >> 16)) & 0x7FFFFFFF
    if isinstance(key, tuple):
        h = 0x811C9DC5
        for part in key:
            h = (h * 0x01000193) ^ stable_hash(part)
        return h & 0x7FFFFFFF
    return zlib.crc32(repr(key).encode("utf-8")) & 0x7FFFFFFF


class HashPartitioner:
    """Assign keys to workers by stable hash."""

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers

    def owner(self, key) -> int:
        return stable_hash(key) % self.num_workers
