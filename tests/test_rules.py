"""Rule-body evaluation: joins, assignments, filters, head construction."""

import pytest

from repro.datalog import AnalysisError, analyze, parse_program
from repro.engine import Database
from repro.engine.relation import Relation
from repro.engine.result import WorkCounters
from repro.engine.rules import (
    aggregate_contributions,
    evaluate_aux_rules,
    evaluate_rule_bodies,
    match_columns,
    to_number,
)
from repro.aggregates import MIN, SUM
from tests.reference_matcher import as_bindings


def bindings_of(source_rule: str, db: Database, **kwargs):
    rule = parse_program(source_rule).rules[0]
    atoms = rule.bodies[0].atoms
    return as_bindings(*match_columns(atoms, db, **kwargs))


class TestJoins:
    def test_two_way_join(self, diamond_db):
        found = bindings_of("p(X, Z) :- edge(X, Y, a), edge(Y, Z, b).", diamond_db)
        pairs = {(b["X"], b["Z"]) for b in found}
        assert (1, 2) in pairs  # 1 -> 3 -> 2
        assert (1, 4) in pairs

    def test_join_uses_shared_variable(self, diamond_db):
        found = bindings_of("p(Y) :- edge(1, Y, w).", diamond_db)
        assert {b["Y"] for b in found} == {2, 3}

    def test_wildcard_matches_anything(self, diamond_db):
        found = bindings_of("p(X) :- edge(X, _, _).", diamond_db)
        assert {b["X"] for b in found} == {1, 2, 3}

    def test_repeated_variable_filters(self):
        db = Database()
        db.add_facts("edge", [(1, 1), (1, 2)])
        found = bindings_of("p(X) :- edge(X, X).", db)
        assert [b["X"] for b in found] == [1]

    def test_counters_track_scans(self, diamond_db):
        counters = WorkCounters()
        bindings_of("p(X, Y) :- edge(X, Y, w).", diamond_db, counters=counters)
        assert counters.tuples_scanned == 5


    def test_matcher_does_not_pin_the_database(self):
        """No reference cycle keeps ``db`` alive once ``match_columns``
        has returned: a cycle would hold the database (``compile_plan``'s
        private copy of every relation) until some later GC pass -- on a
        208 k-edge plan that pass cost 10-25 ms in the middle of the solve."""
        import gc
        import weakref

        db = Database()
        db.add_facts("edge", [(1, 2), (2, 3)])
        released = weakref.ref(db)
        gc.disable()
        try:
            assert len(bindings_of("p(X, Z) :- edge(X, Y), edge(Y, Z).", db)) == 1
            del db
            assert released() is None
        finally:
            gc.enable()


class TestComparisons:
    def test_assignment(self, diamond_db):
        found = bindings_of("p(X, d) :- X = 1, d = 0.", diamond_db)
        assert found == [{"X": 1, "d": 0}]

    def test_assignment_from_joined_values(self, diamond_db):
        found = bindings_of(
            "p(Y, dy) :- edge(1, Y, w), dy = w * 2.", diamond_db
        )
        assert {(b["Y"], b["dy"]) for b in found} == {(2, 8), (3, 2)}

    def test_filter(self, diamond_db):
        found = bindings_of("p(X, Y) :- edge(X, Y, w), w > 2.", diamond_db)
        assert {(b["X"], b["Y"]) for b in found} == {(1, 2), (3, 4)}

    def test_equality_filter_on_bound_variable(self, diamond_db):
        found = bindings_of("p(X, Y) :- edge(X, Y, w), X = Y.", diamond_db)
        assert found == []

    def test_comparison_deferred_until_bound(self, diamond_db):
        # dy is defined after the predicate that binds w
        found = bindings_of(
            "p(Y) :- dy = w + 1, edge(1, Y, w).", diamond_db
        )
        assert {b["dy"] for b in found} == {5, 2}

    def test_unresolvable_comparison_raises(self, diamond_db):
        with pytest.raises(AnalysisError, match="unbound"):
            bindings_of("p(X) :- edge(X, _, _), q > 1.", diamond_db)


class TestOverrides:
    def test_override_replaces_relation(self, diamond_db):
        delta = Relation("edge", 3, [(9, 9, 9)])
        found = bindings_of(
            "p(X, Y) :- edge(X, Y, w).", diamond_db, overrides={"edge": delta}
        )
        assert [(b["X"], b["Y"]) for b in found] == [(9, 9)]


class TestHeads:
    def test_key_value_split(self, diamond_db):
        rule = parse_program("p(X, Y, w) :- edge(X, Y, w).").rules[0]
        results = evaluate_rule_bodies(rule, diamond_db)
        assert ((1, 2), 4) in results

    def test_scalar_key(self, diamond_db):
        rule = parse_program("p(Y, w) :- edge(1, Y, w).").rules[0]
        results = evaluate_rule_bodies(rule, diamond_db)
        assert set(results) == {(2, 4), (3, 1)}

    def test_count_head_contributes_one(self, diamond_db):
        rule = parse_program("deg(X, count[Y]) :- edge(X, Y, w).").rules[0]
        results = evaluate_rule_bodies(rule, diamond_db)
        assert all(value == 1 for _, value in results)

    def test_fact_rule(self):
        rule = parse_program("seed(7, 0).").rules[0]
        assert evaluate_rule_bodies(rule, Database()) == [(7, 0)]


class TestAggregation:
    def test_min_grouping(self):
        grouped = aggregate_contributions(MIN, [(1, 5), (1, 3), (2, 7)])
        assert grouped == {1: 3, 2: 7}

    def test_sum_grouping(self):
        grouped = aggregate_contributions(SUM, [(1, 5), (1, 3), (2, 7)])
        assert grouped == {1: 8, 2: 7}


class TestAuxRules:
    def test_degree_materialised(self, triangle_db, pagerank_source):
        analysis = analyze(parse_program(pagerank_source))
        db = triangle_db.copy()
        evaluate_aux_rules(analysis, db)
        degrees = {row[0]: row[1] for row in db.relation("degree")}
        assert degrees == {1: 1, 2: 2, 3: 1}

    def test_missing_dependency_detected(self):
        source = """
        a(X, v) :- b(X, v).
        b(X, v) :- missing_after(X, v).
        r(X, min[v]) :- r(Y, v), e(Y, X).
        """
        # 'a' depends on 'b' before 'b' is materialised
        program = parse_program(source)
        analysis = analyze(program)
        db = Database()
        db.add_facts("e", [(1, 2)])
        with pytest.raises(AnalysisError, match="before it is materialised"):
            evaluate_aux_rules(analysis, db)


class TestToNumber:
    def test_integral_fraction_to_int(self):
        from fractions import Fraction

        assert to_number(Fraction(4, 2)) == 2
        assert isinstance(to_number(Fraction(4, 2)), int)

    def test_nonintegral_fraction_to_float(self):
        from fractions import Fraction

        assert to_number(Fraction(1, 2)) == 0.5

    def test_passthrough(self):
        assert to_number(7) == 7
