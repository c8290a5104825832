"""Relation and Database storage."""

import pytest

from repro.engine import Database
from repro.engine.relation import Relation


class TestRelation:
    def test_add_deduplicates(self):
        relation = Relation("edge", 2)
        assert relation.add((1, 2))
        assert not relation.add((1, 2))
        assert len(relation) == 1

    def test_arity_enforced(self):
        relation = Relation("edge", 2)
        with pytest.raises(ValueError, match="3-tuple"):
            relation.add((1, 2, 3))

    def test_extend_counts_new(self):
        relation = Relation("edge", 2)
        assert relation.extend([(1, 2), (1, 2), (2, 3)]) == 2

    def test_lookup_many_is_lookup_per_key(self):
        relation = Relation("edge", 3, [(1, 2, 10), (1, 3, 20), (2, 3, 30)])
        keys = [(1,), (9,), (2,), (1,)]
        buckets = relation.lookup_many([0], iter(keys))
        assert [sorted(bucket) for bucket in buckets] == [
            sorted(relation.lookup([0], key)) for key in keys
        ]
        assert relation.lookup_many([1, 2], [(3, 30), (3, 31)]) == [[(2, 3, 30)], ()]

    def test_lookup_by_position(self):
        relation = Relation("edge", 3, [(1, 2, 10), (1, 3, 20), (2, 3, 30)])
        rows = relation.lookup([0], (1,))
        assert sorted(rows) == [(1, 2, 10), (1, 3, 20)]

    def test_lookup_multiple_positions(self):
        relation = Relation("edge", 3, [(1, 2, 10), (1, 3, 20)])
        assert relation.lookup([0, 1], (1, 3)) == [(1, 3, 20)]

    def test_lookup_no_positions_scans_all(self):
        relation = Relation("edge", 2, [(1, 2), (2, 3)])
        assert len(relation.lookup([], ())) == 2

    def test_index_invalidated_on_mutation(self):
        relation = Relation("edge", 2, [(1, 2)])
        assert relation.lookup([0], (1,)) == [(1, 2)]
        relation.add((1, 3))
        assert sorted(relation.lookup([0], (1,))) == [(1, 2), (1, 3)]

    def test_replace(self):
        relation = Relation("edge", 2, [(1, 2)])
        relation.replace([(5, 6)])
        assert list(relation) == [(5, 6)]

    def test_clear(self):
        relation = Relation("edge", 2, [(1, 2)])
        relation.clear()
        assert len(relation) == 0

    def test_contains(self):
        relation = Relation("edge", 2, [(1, 2)])
        assert (1, 2) in relation and (2, 1) not in relation


class TestBulkInsert:
    """``extend`` is one insertion per row in the given order, like the
    ``add`` loop it replaced: the set's layout -- so its iteration
    order, which every compiled plan's edge order inherits -- must not
    depend on which of the two filled it."""

    #: ``hash(x) == hash(x + M)`` for ints, so ``(x, w)`` and
    #: ``(x + M, w)`` are unequal tuples with one hash: every row below
    #: collides with another and lands wherever probing finds room
    M = 2**61 - 1

    def rows(self):
        rows = []
        for i in range(2500):
            rows.append((i * 7919 % 2500, i % 3))
            rows.append((i * 7919 % 2500 + self.M, i % 3))
        assert len(set(rows)) == 5000 and len(set(map(hash, rows))) == 2500
        return rows + rows[::50]  # and a few repeats

    @staticmethod
    def row_by_row(rows):
        relation = Relation("edge", 2)
        for row in rows:
            relation.add(row)
        return relation

    def test_constructor_and_extend_keep_the_add_order(self):
        rows = self.rows()
        expected = self.row_by_row(rows)
        assert list(Relation("edge", 2, rows)) == list(expected)
        assert list(Relation("edge", 2, iter(rows))) == list(expected)
        grown = Relation("edge", 2, rows[:1234])
        assert grown.extend(rows[1234:]) == 5000 - len(set(rows[:1234]))
        assert list(grown) == list(expected)

    def test_copy_and_add_facts_keep_the_add_order(self):
        db = Database()
        db.add_facts("edge", self.rows())
        original = db.relation("edge")
        assert list(original) == list(self.row_by_row(self.rows()))
        # a copy re-inserts in iteration order: not the original layout,
        # but exactly what adding those rows one at a time builds
        assert list(db.copy().relation("edge")) == list(
            self.row_by_row(list(original))
        )

    def test_a_set_argument_is_still_inserted_row_by_row(self):
        # set.update(a_set) presizes the table: a different layout
        rows = set(self.rows())
        assert list(Relation("edge", 2, rows)) == list(self.row_by_row(rows))

    def test_version_advances_once_per_new_tuple(self):
        relation = Relation("edge", 2, [(1, 2), (1, 2), (2, 3)])
        assert relation._version == 2
        assert relation.lookup([0], (1,)) == [(1, 2)]
        assert relation.extend([(2, 3), (1, 4), (5, 6), (5, 6)]) == 2
        assert relation._version == 4
        assert sorted(relation.lookup([0], (1,))) == [(1, 2), (1, 4)]
        assert relation.extend([(1, 2)]) == 0 and relation._version == 4

    def test_wrong_arity_row_inserts_nothing(self):
        relation = Relation("edge", 2, [(1, 2)])
        with pytest.raises(ValueError) as bulk:
            relation.extend([(3, 4), (5, 6, 7), (8,)])
        with pytest.raises(ValueError) as single:
            relation.add((5, 6, 7))
        assert str(bulk.value) == str(single.value)
        assert "relation edge/2 got a 3-tuple (5, 6, 7)" in str(bulk.value)
        assert list(relation) == [(1, 2)] and relation._version == 1
        with pytest.raises(ValueError, match="3-tuple"):
            Relation("edge", 2, [(1, 2, 3)])


class TestDatabase:
    def test_create_and_fetch(self):
        db = Database()
        created = db.relation("edge", 2)
        assert db.relation("edge") is created

    def test_missing_relation(self):
        with pytest.raises(KeyError):
            Database().relation("nope")

    def test_arity_conflict(self):
        db = Database()
        db.relation("edge", 2)
        with pytest.raises(ValueError):
            db.relation("edge", 3)

    def test_add_facts_infers_arity(self):
        db = Database()
        db.add_facts("edge", [(1, 2, 5)])
        assert db.relation("edge").arity == 3

    def test_add_facts_empty_rejected(self):
        with pytest.raises(ValueError):
            Database().add_facts("edge", [])

    def test_copy_is_independent(self):
        db = Database()
        db.add_facts("edge", [(1, 2)])
        duplicate = db.copy()
        duplicate.relation("edge").add((3, 4))
        assert len(db.relation("edge")) == 1
        assert len(duplicate.relation("edge")) == 2

    def test_names_sorted(self):
        db = Database()
        db.add_facts("z", [(1,)])
        db.add_facts("a", [(1,)])
        assert db.names() == ["a", "z"]
