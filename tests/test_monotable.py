"""MonoTable semantics (paper Figure 7) on the reference kernel.

The paper's table -- an accumulation and an intermediate entry per key,
updated by fetch/reset/accumulate/push -- is the ``Kernel`` contract
(:mod:`repro.runtime.base`).  These cases hold the python kernel to the
figure's three-step update on an edgeless plan; ``tests/
test_runtime_kernels.py`` holds every backend to the same protocol on a
compiled one.
"""

from types import SimpleNamespace

from hypothesis import given, strategies as st

from repro.aggregates import MIN, SUM
from repro.runtime import PythonKernel

values = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5), st.integers(-20, 20)),
    max_size=30,
)


def monotable(aggregate, initial, keys=None):
    """A python kernel over an edgeless plan whose ``X⁰`` is ``initial``:
    the Figure 7 table with nothing to propagate along."""
    plan = SimpleNamespace(aggregate=aggregate, initial=initial, keys=frozenset(initial))
    return PythonKernel.from_plan(plan, keys=keys)


class TestThreeStepUpdate:
    def test_push_combines_into_intermediate(self):
        table = monotable(SUM, initial={})
        table.push("a", 2)
        table.push("a", 3)
        assert table.intermediate["a"] == 5

    def test_fetch_resets_to_identity(self):
        table = monotable(SUM, initial={})
        table.push("a", 2)
        assert table.fetch_and_reset("a") == 2
        assert table.fetch_and_reset("a") is None  # never aggregated twice

    def test_accumulate_additive(self):
        table = monotable(SUM, initial={"a": 10})
        changed, magnitude = table.accumulate("a", 5)
        assert changed and magnitude == 5
        assert table.accumulated["a"] == 15

    def test_accumulate_selective_improvement(self):
        table = monotable(MIN, initial={"a": 10})
        changed, magnitude = table.accumulate("a", 7)
        assert changed and magnitude == 3
        assert table.accumulated["a"] == 7

    def test_accumulate_selective_pruned(self):
        table = monotable(MIN, initial={"a": 5})
        changed, magnitude = table.accumulate("a", 9)
        assert not changed and magnitude == 0.0
        assert table.accumulated["a"] == 5

    def test_accumulate_fresh_key(self):
        table = monotable(MIN, initial={})
        changed, _ = table.accumulate("new", 3)
        assert changed and table.accumulated["new"] == 3


class TestDrain:
    def test_drain_all_empties(self):
        table = monotable(SUM, initial={})
        table.push_many([("a", 1), ("b", 2)])
        drained = table.drain_all()
        assert drained == {"a": 1, "b": 2}
        assert not table.has_pending()


class TestShards:
    def test_key_restriction(self):
        table = monotable(SUM, initial={"a": 1, "b": 2}, keys={"a"})
        assert table.accumulated == {"a": 1}

    def test_result_copy(self):
        table = monotable(SUM, initial={"a": 1})
        result = table.result()
        result["a"] = 99
        assert table.accumulated["a"] == 1


class TestOrderIndependence:
    """Property 1 at the data structure level: push order is irrelevant."""

    @given(updates=values)
    def test_sum_push_order_irrelevant(self, updates):
        forward = monotable(SUM, initial={})
        backward = monotable(SUM, initial={})
        forward.push_many(updates)
        backward.push_many(reversed(updates))
        assert forward.intermediate == backward.intermediate

    @given(updates=values)
    def test_min_push_order_irrelevant(self, updates):
        forward = monotable(MIN, initial={})
        backward = monotable(MIN, initial={})
        forward.push_many(updates)
        backward.push_many(reversed(updates))
        assert forward.intermediate == backward.intermediate

    @given(updates=values)
    def test_interleaving_accumulate_equals_batch(self, updates):
        """Processing deltas one at a time or all at once agree (sum)."""
        eager = monotable(SUM, initial={})
        for key, value in updates:
            eager.push(key, value)
            tmp = eager.fetch_and_reset(key)
            eager.accumulate(key, tmp)
        batch = monotable(SUM, initial={})
        batch.push_many(updates)
        for key, tmp in batch.drain_all().items():
            batch.accumulate(key, tmp)
        assert eager.accumulated == batch.accumulated
