"""In-memory relations and databases.

Relations store tuples of plain Python values (ints, floats, strings).
Hash indexes on column subsets are built lazily and invalidated on
mutation; the join machinery in :mod:`repro.engine.rules` uses them to
avoid quadratic nested loops.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence


class Relation:
    """A named set of fixed-arity tuples with lazy hash indexes."""

    def __init__(self, name: str, arity: int, tuples: Optional[Iterable[tuple]] = None):
        self.name = name
        self.arity = arity
        self._tuples: set[tuple] = set()
        self._indexes: dict[tuple[int, ...], dict[tuple, list[tuple]]] = {}
        self._version = 0
        self._index_versions: dict[tuple[int, ...], int] = {}
        if tuples is not None:
            self.extend(tuples)

    def add(self, row: tuple) -> bool:
        """Insert a tuple; returns True if it was new."""
        if len(row) != self.arity:
            raise ValueError(
                f"relation {self.name}/{self.arity} got a {len(row)}-tuple {row!r}"
            )
        before = len(self._tuples)
        self._tuples.add(row)
        if len(self._tuples) != before:
            self._version += 1
            return True
        return False

    def extend(self, rows: Iterable[tuple]) -> int:
        """Insert many tuples; returns how many were new.

        All or nothing: a wrong-arity row raises before any is inserted.
        """
        rows = list(rows)
        if not set(map(len, rows)) <= {self.arity}:
            # ``add`` raises the arity error for the first offender
            self.add(next(row for row in rows if len(row) != self.arity))
        before = len(self._tuples)
        # one insertion per row, in order -- what repeated ``add`` does.
        # The set's layout, hence its iteration order, depends on it
        # (``update`` with a set or ``set(rows)`` would size the table
        # differently), and that order is every compiled plan's edge order
        self._tuples.update(iter(rows))
        added = len(self._tuples) - before
        self._version += added
        return added

    def clear(self) -> None:
        self._tuples.clear()
        self._version += 1

    def replace(self, rows: Iterable[tuple]) -> None:
        self._tuples = set()
        self._version += 1
        self.extend(rows)

    def patch(self, removed: Iterable[tuple], added: Iterable[tuple]) -> None:
        """Delete the ``removed`` rows and insert the ``added`` ones in
        place, walking only them; indexes are invalidated.  All or
        nothing on arity, like :meth:`extend`."""
        added = list(added)
        if not set(map(len, added)) <= {self.arity}:
            self.add(next(row for row in added if len(row) != self.arity))
        self._tuples.difference_update(removed)
        self._tuples.update(added)
        self._version += 1

    def difference(self, other: "Relation") -> "Relation":
        """The tuples of this relation that ``other`` does not hold, as a
        relation of the same name and arity (one set difference)."""
        result = Relation(self.name, self.arity)
        result._tuples = self._tuples - other._tuples
        return result

    def __contains__(self, row: tuple) -> bool:
        return row in self._tuples

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def lookup(self, positions: Sequence[int], values: tuple) -> list[tuple]:
        """All tuples whose columns at ``positions`` equal ``values``."""
        key = tuple(positions)
        if not key:
            return list(self._tuples)
        index = self._index_for(key)
        return index.get(values, [])

    def lookup_many(self, positions: Sequence[int], keys: Iterable[tuple]) -> list:
        """``lookup(positions, key)`` for each of ``keys``, in one pass."""
        index = self._index_for(tuple(positions))
        return list(map(index.get, keys, repeat(())))

    def _index_for(self, positions: tuple[int, ...]) -> dict[tuple, list[tuple]]:
        if (
            positions in self._indexes
            and self._index_versions.get(positions) == self._version
        ):
            return self._indexes[positions]
        index: dict[tuple, list[tuple]] = {}
        keys = map(itemgetter(*positions), self._tuples)
        if len(positions) == 1:  # itemgetter(p) yields the bare value
            keys = zip(keys)
        for key, row in zip(keys, self._tuples):
            index.setdefault(key, []).append(row)
        self._indexes[positions] = index
        self._index_versions[positions] = self._version
        return index

    def __repr__(self):
        return f"Relation({self.name}/{self.arity}, {len(self)} tuples)"


class Database:
    """A mutable mapping of relation names to relations."""

    def __init__(self):
        self._relations: dict[str, Relation] = {}

    def relation(self, name: str, arity: Optional[int] = None) -> Relation:
        """Fetch a relation, creating it when ``arity`` is given."""
        if name in self._relations:
            existing = self._relations[name]
            if arity is not None and existing.arity != arity:
                raise ValueError(
                    f"relation {name!r} exists with arity {existing.arity}, "
                    f"requested {arity}"
                )
            return existing
        if arity is None:
            raise KeyError(f"unknown relation {name!r}")
        created = Relation(name, arity)
        self._relations[name] = created
        return created

    def add_facts(
        self, name: str, rows: Iterable[tuple], arity: Optional[int] = None
    ) -> Relation:
        """Create/extend a relation from an iterable of tuples.

        ``arity`` is required when ``rows`` may be empty (e.g. the edge
        relation of an edgeless graph); otherwise it is inferred.
        """
        rows = list(rows)
        if not set(map(type, rows)) <= {tuple}:
            rows = list(map(tuple, rows))
        if not rows and arity is None:
            raise ValueError(f"cannot infer arity of empty relation {name!r}")
        relation = self.relation(name, arity if arity is not None else len(rows[0]))
        relation.extend(rows)
        return relation

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def names(self) -> list[str]:
        return sorted(self._relations)

    def copy(self) -> "Database":
        duplicate = Database()
        for name, relation in self._relations.items():
            duplicate._relations[name] = Relation(name, relation.arity, relation)
        return duplicate

    def __repr__(self):
        inner = ", ".join(
            f"{name}/{rel.arity}:{len(rel)}" for name, rel in sorted(self._relations.items())
        )
        return f"Database({inner})"
