"""The repair as it ran while it still read two compiled plans -- kept as
the oracle.

``reference_repair_plan`` is ``repro.delta.engine.repair_plan`` as it
stood before repairs went through the diff alone, moved here verbatim:
``diff_plans`` over the two plans' signature multisets, added-edge seeds
found by walking every out-edge of the new plan, the forward closure
over the adjacency of *both* plans, the boundary scan over every
out-edge of the new plan.  ``reference_apply_to`` is
``GraphDelta.apply_to`` as it stood, one Python iteration per edge.
What replaced them must return the same ``RepairResult`` / the same
graph (``tests/test_delta_path.py``).
"""

from collections import Counter

from repro.delta.engine import (
    ENGINE_NAME,
    RepairResult,
    choose_strategy,
    diff_plans,
)
from repro.delta.model import DEFAULT_WEIGHT
from repro.engine.mra import MRAEvaluator
from repro.engine.result import EvalResult, WorkCounters
from repro.engine.termination import run_rounds
from repro.graphs import Graph
from repro.obs import ensure_obs
from repro.runtime import get_kernel, resolve_backend_for_plan


def _added_edge_seeds(new_plan, added, values) -> list:
    if not added:
        return []
    remaining = Counter(added)
    bodies = new_plan.fprime_fns
    seeds: list = []
    for src, edges in new_plan.out_edges.items():
        value = values.get(src)
        for dst, params, fn in edges:
            signature = (src, dst, params, bodies.index(fn))
            if remaining.get(signature, 0) > 0:
                remaining[signature] -= 1
                if value is not None:
                    seeds.append((dst, fn(value, *params)))
    return seeds


def _forward_closure(seeds, old_plan, new_plan) -> set:
    adjacency: dict = {}
    for plan in (old_plan, new_plan):
        for src, edges in plan.out_edges.items():
            adjacency.setdefault(src, set()).update(dst for dst, _, _ in edges)
    affected = set(seeds)
    stack = list(affected)
    while stack:
        key = stack.pop()
        for dst in adjacency.get(key, ()):
            if dst not in affected:
                affected.add(dst)
                stack.append(dst)
    return affected


def reference_repair_plan(
    old_plan, new_plan, prior_values, *, mode, backend=None
) -> RepairResult:
    obs = ensure_obs(None)
    backend = resolve_backend_for_plan(new_plan, backend)
    diff = diff_plans(old_plan, new_plan)
    strategy = choose_strategy(mode, diff)

    if strategy == "recompute":
        full = MRAEvaluator(new_plan, obs=obs, backend=backend).run()
        return RepairResult(
            result=full,
            strategy="recompute",
            edges_added=sum(diff.added.values()),
            edges_removed=sum(diff.removed.values()),
        )

    counters = WorkCounters()
    kernel_cls = get_kernel(backend)

    if strategy == "frontier":
        kernel = kernel_cls.from_plan(
            new_plan, counters=counters, initial=dict(prior_values)
        )
        seeds = list(diff.improved.items())
        seeds.extend(_added_edge_seeds(new_plan, diff.added, prior_values))
        reset_keys = 0
    else:  # rederive
        lost = {key for (_, key, _, _) in diff.removed}
        lost.update(diff.regressed)
        lost.update(key for key in prior_values if key not in new_plan.keys)
        affected = _forward_closure(lost, old_plan, new_plan)
        surviving = {
            key: value
            for key, value in prior_values.items()
            if key not in affected and key in new_plan.keys
        }
        kernel = kernel_cls.from_plan(new_plan, counters=counters, initial=surviving)
        seeds = []
        for key in affected:
            if key in new_plan.initial:
                seeds.append((key, new_plan.initial[key]))
            if key in new_plan.constants:
                seeds.append((key, new_plan.constants[key]))
        for src, edges in new_plan.out_edges.items():
            value = surviving.get(src)
            if value is None:
                continue
            for dst, params, fn in edges:
                if dst in affected:
                    seeds.append((dst, fn(value, *params)))
        seeds.extend(_added_edge_seeds(new_plan, diff.added, surviving))
        seeds.extend(
            (key, value)
            for key, value in diff.improved.items()
            if key not in affected
        )
        reset_keys = len(affected)

    kernel.push_many(seeds)
    stop, trace, ops = run_rounds(
        kernel.step, new_plan.termination, counters, obs, ENGINE_NAME, event="delta.epoch"
    )

    result = EvalResult(
        values=kernel.result(),
        stop_reason=stop,
        counters=counters,
        engine=ENGINE_NAME,
        trace=trace,
        backend=backend,
    )
    return RepairResult(
        result=result,
        strategy=strategy,
        edges_added=sum(diff.added.values()),
        edges_removed=sum(diff.removed.values()),
        frontier_size=len(seeds),
        reset_keys=reset_keys,
        ops=ops,
    )


def reference_apply_to(delta, graph: Graph) -> Graph:
    delta.validate(graph)
    base = graph if graph.weights is not None else graph.with_weights()

    removed_pairs = set(delta.delete_edges)
    removed_vertices = set(delta.remove_vertices)
    updates = {(src, dst): weight for src, dst, weight in delta.update_weights}

    edges: list = []
    weights: list = []
    for (src, dst), weight in zip(base.edges, base.weights):
        if (src, dst) in removed_pairs:
            continue
        if src in removed_vertices or dst in removed_vertices:
            continue
        edges.append((src, dst))
        weights.append(updates.get((src, dst), weight))
    for src, dst, weight in delta.insert_edges:
        edges.append((src, dst))
        weights.append(DEFAULT_WEIGHT if weight is None else weight)

    return Graph(
        base.num_vertices + delta.add_vertices,
        edges,
        weights,
        name=base.name,
        seed=base.seed,
    )
