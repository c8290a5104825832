"""The column-at-a-time join against the tuple-at-a-time reference.

``match_columns`` must enumerate exactly what the backtracking matcher
it replaced enumerated (``tests/reference_matcher.py``): the same
bindings *in the same order* -- row ``j`` of the table is the ``j``-th
binding the generator yielded, which is what keeps compiled plans
bit-identical -- holding the relations' own objects, scanning the same
number of tuples, and raising the same errors on the same inputs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import AnalysisError, analyze, parse_program
from repro.engine import Database, compile_plan
from repro.engine.relation import Relation
from repro.engine.result import WorkCounters
from repro.engine.rules import evaluate_rule_bodies, match_columns
from tests.reference_matcher import (
    as_bindings,
    reference_bindings,
    reference_head_key_and_value,
)

ARITY = {"r": 2, "s": 2, "t": 3}
#: ``1`` and ``1.0`` are one index key but two objects: whichever the
#: relation holds is the one a binding must carry
VALUES = st.sampled_from([0, 1, 1, 2, 2, 1.0, 2.5])
TERMS = st.sampled_from(["X", "X", "Y", "Y", "Z", "_", "_", "1"])
COMPARISONS = st.sampled_from(
    [
        "a = 2",  # zero-argument assignment: a column before any atom
        "X = 1",  # ... onto a join variable, bound ahead of its lookup
        "b = a + 1",  # chained assignments
        "a = X * 2",
        "c = X + Y",
        "X = Y",  # assignment or equality, by which side is bound first
        "Y = a",
        "X < Y",
        "X <= Y",
        "X != 1",
        "Y != 0",
        "a < 5",
        "X + Y > 1",
        "Z >= X",
        "1 < 2",
        "2 < 1",
        "q > 1",  # nothing binds q: unresolvable
    ]
)


def rows_of(arity):
    # mostly well filled -- a three-atom join over near-empty relations
    # has no bindings to compare -- but sometimes sparse or empty
    row = st.tuples(*[VALUES] * arity)
    return st.lists(row, min_size=5, max_size=10) | st.lists(row, max_size=3)


@st.composite
def databases(draw):
    db = Database()
    for name, arity in ARITY.items():
        db.add_facts(name, draw(rows_of(arity)), arity=arity)
    return db


@st.composite
def bodies(draw, iterated):
    atoms = []
    for name in draw(st.lists(st.sampled_from(sorted(ARITY)), min_size=1, max_size=3)):
        terms = draw(st.lists(TERMS, min_size=ARITY[name], max_size=ARITY[name]))
        if name == iterated:
            terms.insert(0, "i")
        atoms.append(f"{name}({', '.join(terms)})")
    atoms += draw(st.lists(COMPARISONS, max_size=3))
    return ", ".join(draw(st.permutations(atoms)))


def atoms_of(body: str):
    return parse_program(f"p(X) :- {body}.").rules[0].bodies[0].atoms


def exact(bindings):
    """Bindings with every value's type made part of the comparison."""
    return [
        sorted((name, type(value).__name__, value) for name, value in b.items())
        for b in bindings
    ]


def outcome(enumerate_bindings, atoms, db, **kwargs):
    counters = WorkCounters()
    try:
        bindings = enumerate_bindings(atoms, db, counters=counters, **kwargs)
    except AnalysisError as error:
        return ("raised", str(error))
    return (exact(bindings), counters.tuples_scanned)


def reference(atoms, db, **kwargs):
    return [dict(b) for b in reference_bindings(atoms, db, **kwargs)]


def columnar(atoms, db, **kwargs):
    return as_bindings(*match_columns(atoms, db, **kwargs))


def assert_same(body, db, **kwargs):
    atoms = atoms_of(body)
    expected = outcome(reference, atoms, db, **kwargs)
    assert outcome(columnar, atoms, db, **kwargs) == expected
    return expected


@settings(max_examples=300, deadline=None)
@given(data=st.data(), db=databases(), iterated=st.sampled_from([None, "r"]))
def test_match_columns_equals_the_backtracking_reference(data, db, iterated):
    body = data.draw(bodies(iterated))
    overrides = data.draw(
        st.none()
        | st.builds(lambda rows: {"r": Relation("r", 2, rows)}, rows_of(2))
    )
    assert_same(body, db, overrides=overrides, iterated_predicate=iterated)


@pytest.fixture
def db() -> Database:
    made = Database()
    made.add_facts("n", [(1,), (2,), (3,)])
    made.add_facts("m", [(10,), (20,)])
    made.add_facts("e", [(1, 2, 4), (1, 3, 1), (3, 2, 1), (2, 3, 7)])
    made.add_facts("none", [], arity=2)
    return made


class TestTraps:
    """The mistakes a set-at-a-time join invites, one case each."""

    def test_zero_argument_assignment_expands_with_the_first_atom(self, db):
        """``r = 0`` is a one-row column before any atom is joined: one
        outer row does not mean there is nothing to repeat."""
        bindings, scanned = assert_same("r = 0, n(X)", db)
        assert len(bindings) == 3 and scanned == 3
        rule = parse_program("rank(X, r) :- n(X), r = 0.").rules[0]
        assert sorted(evaluate_rule_bodies(rule, db)) == [(1, 0), (2, 0), (3, 0)]

    @pytest.mark.parametrize(
        "body, kept",
        [
            ("e(X, Y, w), w > 2", 2),  # drops some
            ("e(X, Y, w), w > 0", 4),  # drops none
            ("e(X, Y, w), w > 9", 0),  # drops all
            ("e(X, Y, w), X != 1, e(Y, Z, v), v < w", 1),  # mid-join, then last
        ],
    )
    def test_pure_filters(self, db, body, kept):
        """No registry program filters inside a compile-time join, so
        only these see the filter path."""
        bindings, _ = assert_same(body, db)
        assert len(bindings) == kept

    def test_filter_inside_a_compiled_join(self, db):
        source = """
        sp(X, d) :- X = 1, d = 0.
        sp(Y, min[dy]) :- sp(X, dx), e(X, Y, w), w < 5, dy = dx + w.
        """
        plan = compile_plan(analyze(parse_program(source)), db)
        (columns,) = plan.edge_columns
        assert sorted(zip(columns.srcs, columns.dsts, *columns.param_cols)) == [
            (1, 2, 4),
            (1, 3, 1),
            (3, 2, 1),
        ]

    def test_unresolvable_comparison_needs_a_surviving_binding(self, db):
        raised = assert_same("n(X), q > 1", db)
        assert raised[0] == "raised" and "unbound variables: [q > 1]" in raised[1]
        assert assert_same("none(X, _), q > 1", db) == ([], 0)
        assert assert_same("n(X), X > 5, q > 1", db) == ([], 3)

    def test_unsupported_term_needs_an_inspected_tuple(self, db):
        raised = assert_same("n(X), e(X+1, Y, _)", db)
        assert raised == ("raised", "unsupported body term X+1")
        assert assert_same("n(X), none(X+1, Y)", db) == ([], 3)
        # a repeated variable ahead of the term already rejected every tuple
        assert assert_same("e(X, X, Y+1)", db) == ([], 4)

    def test_nothing_is_looked_up_once_no_binding_is_left(self, db):
        # ``missing`` is not a relation: reaching it would be a KeyError
        assert assert_same("none(X, Y), missing(Y)", db) == ([], 0)
        with pytest.raises(KeyError):
            match_columns(atoms_of("n(X), missing(X)"), db)


class TestShapes:
    def test_empty_relation(self, db):
        assert assert_same("none(X, Y)", db) == ([], 0)
        assert assert_same("n(X), none(X, Y)", db) == ([], 3)

    def test_cross_product_of_two_unbound_atoms(self, db):
        _, scanned = assert_same("n(X), m(Y)", db)
        assert scanned == 3 + 3 * 2
        # outer rows major: every m under one n before the next n
        assert columnar(atoms_of("n(X), m(Y)"), db) == [
            {"X": x, "Y": y} for (x,) in db.relation("n") for (y,) in db.relation("m")
        ]

    def test_constants_only_atom_is_a_cross_product_of_its_bucket(self, db):
        bindings, scanned = assert_same("n(X), e(1, Y, _)", db)
        assert len(bindings) == 6 and scanned == 3 + 3 * 2

    def test_repeated_variable_within_an_atom(self):
        db = Database()
        db.add_facts("e", [(1, 1, 1), (1, 2, 1), (2, 2, 3), (3, 3, 3)])
        bindings, scanned = assert_same("e(X, X, X)", db)
        assert scanned == 4 and sorted(b[0][2] for b in bindings) == [1, 3]

    def test_values_are_the_relations_own_objects(self):
        db = Database()
        big = 2**53 + 1
        db.add_facts("e", [(1.0, big), (True, 0.5)])
        db.add_facts("n", [(1,)])
        rows, columns = match_columns(atoms_of("n(X), e(X, w)"), db)
        assert rows == 2 and [type(x) for x in columns["X"]] == [int, int]
        assert sorted(map(repr, columns["w"])) == ["0.5", repr(big)]
        assert_same("n(X), e(X, w)", db)

    def test_override_replaces_only_the_named_relation(self, db):
        delta = Relation("n", 1, [(3,)])
        bindings, scanned = assert_same(
            "n(X), e(X, Y, _)", db, overrides={"n": delta}
        )
        assert scanned == 1 + 1 and len(bindings) == 1


class TestHeads:
    """``evaluate_rule_bodies`` builds its pairs from columns; the
    reference builds them one binding at a time."""

    @pytest.mark.parametrize(
        "source",
        [
            "p(X, Y, w) :- e(X, Y, w).",
            "p(Y, w) :- e(1, Y, w).",
            "deg(X, count[Y]) :- e(X, Y, w).",
            "best(X, min[w]) :- e(X, _, w).",
            'tag(X, "seen", 1) :- n(X).',
            "p(7, X, 2.5) :- n(X).",
            "only(w) :- e(_, _, w).",
            "seed(7, 0).",
            "rank(i+1, X, r) :- n(X), r = 0.",
            "p(X, w) :- e(X, Y, w) ; :- n(X), w = 0.",
        ],
    )
    def test_pairs_match_the_per_binding_head(self, db, source):
        rule = parse_program(source).rules[0]
        iterated = "rank" if rule.head.name == "rank" else None
        expected = []
        counters = WorkCounters()
        for body in rule.bodies or [None]:
            atoms = body.atoms if body is not None else []
            for binding in reference_bindings(atoms, db, iterated_predicate=iterated):
                expected.append(reference_head_key_and_value(rule, binding, iterated))
        got = evaluate_rule_bodies(
            rule, db, counters=counters, iterated_predicate=iterated
        )
        assert got == expected and expected
        assert [type(v) for _, v in got] == [type(v) for _, v in expected]
        assert counters.bindings_produced == (len(expected) if rule.bodies else 0)

    def test_unsupported_head_term_needs_a_binding(self, db):
        rule = parse_program("p(_, w) :- none(_, w).").rules[0]
        assert evaluate_rule_bodies(rule, db) == []
        rule = parse_program("p(_, w) :- e(_, _, w).").rules[0]
        with pytest.raises(AnalysisError, match="unsupported head term"):
            evaluate_rule_bodies(rule, db)
