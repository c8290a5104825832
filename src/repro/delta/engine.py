"""Fixpoint repair under graph deltas (the incremental engine).

Instead of diffing raw edge lists, the engine diffs *compiled plans*:
the old and new graphs are compiled through the ordinary
:func:`~repro.engine.plan.compile_plan` path and the repair works off
the multiset difference of their dependency edges plus the diff of
their base facts (``X⁰``) and constants (``C``).  That way every EDB
builder quirk -- symmetrised edges (CC), degree-normalised parameters,
auxiliary joins -- is handled by the same code that from-scratch
evaluation uses, and the repair is provably against the same plan the
oracle would run.

Three strategies, picked per delta by :func:`choose_strategy`:

* ``frontier`` -- pure growth (no plan edge removed, no base fact
  regressed).  The kernel is built over the *new* plan with the prior
  fixpoint as its accumulation column; the pending queue is seeded with
  the improved base facts and one ``F'(x_src)`` contribution per added
  plan edge, then the ordinary MRA round loop runs to convergence.
  Exact for selective aggregates (the fixpoint of a monotone ``F'``
  under min/max is order-independent) and for additive ones (``F'``
  linear-homogeneous by the Theorem-1 pre-screen, so contributions sum
  path-by-path in any order).

* ``rederive`` -- bounded re-derivation for deletions under *selective*
  aggregates.  The affected set is the forward closure, over the union
  of old and new plan edges, of every key that lost a derivation (the
  destinations of removed plan edges and the keys whose base fact
  regressed).  The closure is forward-closed, so no plan edge leaves
  it: values outside it keep their exact justification and are carried
  over; values inside are recomputed from their base facts plus the
  boundary in-edges ``F'(x_src)`` from surviving keys.

* ``recompute`` -- everything else (additive deletions, non-monotone or
  iterated programs): delegate to the plain
  :class:`~repro.engine.mra.MRAEvaluator` on the new plan.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.delta.model import GraphDelta
from repro.delta.view import MutableGraphView
from repro.engine.mra import MRAEvaluator
from repro.engine.plan import CompiledPlan
from repro.engine.result import EvalResult, WorkCounters
from repro.engine.termination import TerminationTracker
from repro.obs import ensure_obs
from repro.runtime import get_kernel, record_backend_metrics, resolve_backend, resolve_backend_for_plan

ENGINE_NAME = "incremental"

#: strategy names, cheapest first
STRATEGIES = ("frontier", "rederive", "recompute")


# -- plan diffing --------------------------------------------------------------


@dataclass
class PlanDiff:
    """What changed between two compiles of the same program."""

    #: plan edges present in the new compile only (multiset)
    added: Counter
    #: plan edges present in the old compile only (multiset)
    removed: Counter
    #: base-fact / constant seeds to push (full value for selective
    #: aggregates, exact additive delta for additive ones)
    improved: dict
    #: keys whose base facts got worse or disappeared -- a lost
    #: derivation the frontier fast path cannot express
    regressed: set

    @property
    def is_pure_growth(self) -> bool:
        return not self.removed and not self.regressed

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.improved or self.regressed)


def _diff_values(aggregate, old: dict, new: dict, improved: dict, regressed: set) -> None:
    """Diff one base-fact map (``initial`` or ``constants``) into seeds.

    Which semiring law the aggregate's ``⊕`` satisfies decides how a
    changed base value turns into a seed: under idempotent ``⊕`` an
    improving value can simply be re-folded (``x ⊕ x = x`` absorbs the
    overlap), while under invertible ``⊕`` the seed must be the exact
    difference ``G⁻(new, old)`` so the old contribution is retracted.
    A change that is neither (a regression under idempotent ``⊕``)
    cannot be expressed as a seed at all and marks the key regressed.
    """
    combine = aggregate.combine
    for key, value in new.items():
        prior = old.get(key)
        if prior is None:
            seed = value
        elif value == prior:
            continue
        elif aggregate.plus_idempotent:
            if combine(prior, value) != prior:
                seed = value
            else:
                regressed.add(key)
                continue
        else:
            seed = aggregate.subtract(value, prior)
            if seed is None:
                continue
        current = improved.get(key)
        improved[key] = seed if current is None else combine(current, seed)
    for key in old:
        if key not in new:
            regressed.add(key)


def diff_plans(old_plan: CompiledPlan, new_plan: CompiledPlan) -> PlanDiff:
    old_signature = old_plan.signature
    new_signature = new_plan.signature
    improved: dict = {}
    regressed: set = set()
    aggregate = new_plan.aggregate
    _diff_values(aggregate, old_plan.initial, new_plan.initial, improved, regressed)
    _diff_values(aggregate, old_plan.constants, new_plan.constants, improved, regressed)
    return PlanDiff(
        added=new_signature - old_signature,
        removed=old_signature - new_signature,
        improved=improved,
        regressed=regressed,
    )


def choose_strategy(mode: str, diff: PlanDiff) -> str:
    """Pick the repair strategy for one delta.

    ``mode`` is the static verdict of
    :func:`repro.analysis.incremental.classify_incremental`, which is a
    statement about the aggregate's semiring ``⊕``: ``"full"`` needs an
    idempotent ``⊕`` over a natural order (re-deriving the deletion cone
    re-folds surviving contributions without double counting, which is
    exactly ``x ⊕ x = x``), ``"insert-only"`` needs an invertible ``⊕``
    (new edges fold in exactly, but a deletion would have to retract
    derived mass through ``G⁻`` along every path -- so pure growth
    only), and ``"none"`` means neither law holds or exactness is
    unproven.
    """
    if mode not in ("full", "insert-only"):
        return "recompute"
    if diff.is_pure_growth:
        return "frontier"
    if mode == "full":
        return "rederive"
    return "recompute"


# -- the repair ---------------------------------------------------------------


@dataclass
class RepairResult:
    """One repaired fixpoint plus how (and how hard) it was repaired."""

    result: EvalResult
    strategy: str
    edges_added: int = 0
    edges_removed: int = 0
    #: seed pushes that started the repair (frontier/rederive)
    frontier_size: int = 0
    #: keys whose value was discarded and re-derived (rederive only)
    reset_keys: int = 0
    #: cost-model currency of the repair rounds (accumulate attempts +
    #: edge applications); 0 for the recompute strategy, which is priced
    #: by the full run it delegates to
    ops: int = 0

    @property
    def values(self) -> dict:
        return self.result.values

    @property
    def counters(self) -> WorkCounters:
        return self.result.counters

    @property
    def stop_reason(self) -> str:
        return self.result.stop_reason

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "stop_reason": self.stop_reason,
            "edges_added": self.edges_added,
            "edges_removed": self.edges_removed,
            "frontier_size": self.frontier_size,
            "reset_keys": self.reset_keys,
            "ops": self.ops,
            "rounds": self.counters.iterations,
            "keys": len(self.values),
        }


def _added_edge_seeds(new_plan: CompiledPlan, added: Counter, values: dict) -> list:
    """One ``F'(x_src)`` contribution per added plan edge with a valued
    source.  Sources without a prior value need no seed: the added edge
    lives in the kernel's plan, so any value they later gain propagates
    through it during the repair rounds."""
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


def _forward_closure(seeds, old_plan: CompiledPlan, new_plan: CompiledPlan) -> set:
    """Forward closure of ``seeds`` over the union of both plans' edges."""
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


def _run_rounds(kernel, termination, counters: WorkCounters, obs) -> tuple:
    tracker = TerminationTracker(termination)
    stop = None
    ops = 0
    while stop is None:
        round_result = kernel.step()
        counters.iterations += 1
        ops += round_result.ops
        tracker.record(round_result.changed, round_result.magnitude)
        stop = tracker.stop_reason()
        if obs.enabled:
            obs.trace.emit(
                "delta.epoch",
                engine=ENGINE_NAME,
                round=counters.iterations,
                changed=round_result.changed,
                delta=round_result.magnitude,
            )
    return stop, tracker, ops


def repair_plan(
    old_plan: CompiledPlan,
    new_plan: CompiledPlan,
    prior_values: dict,
    *,
    mode: str,
    backend: Optional[str] = None,
    obs=None,
    program: str = "",
) -> RepairResult:
    """Repair ``prior_values`` (the fixpoint of ``old_plan``) into the
    fixpoint of ``new_plan``; see the module docstring for strategies."""
    obs = ensure_obs(obs)
    backend = resolve_backend_for_plan(new_plan, backend)
    diff = diff_plans(old_plan, new_plan)
    strategy = choose_strategy(mode, diff)
    label = program or new_plan.name

    if strategy == "recompute":
        full = MRAEvaluator(new_plan, obs=obs, backend=backend).run()
        repair = RepairResult(
            result=full,
            strategy="recompute",
            edges_added=sum(diff.added.values()),
            edges_removed=sum(diff.removed.values()),
        )
        _record_repair(obs, repair, label, backend, absorb=False)
        return repair

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
        # boundary: every new-plan in-edge from a surviving valued source
        for src, edges in new_plan.out_edges.items():
            value = surviving.get(src)
            if value is None:
                continue
            for dst, params, fn in edges:
                if dst in affected:
                    seeds.append((dst, fn(value, *params)))
        # growth outside the affected region (mixed insert+delete batches);
        # duplicates with the boundary seeds are absorbed by idempotence
        seeds.extend(_added_edge_seeds(new_plan, diff.added, surviving))
        seeds.extend(
            (key, value)
            for key, value in diff.improved.items()
            if key not in affected
        )
        reset_keys = len(affected)

    kernel.push_many(seeds)
    stop, tracker, ops = _run_rounds(kernel, new_plan.termination, counters, obs)

    result = EvalResult(
        values=kernel.result(),
        stop_reason=stop,
        counters=counters,
        engine=ENGINE_NAME,
        trace=tracker.history,
        backend=backend,
    )
    repair = RepairResult(
        result=result,
        strategy=strategy,
        edges_added=sum(diff.added.values()),
        edges_removed=sum(diff.removed.values()),
        frontier_size=len(seeds),
        reset_keys=reset_keys,
        ops=ops,
    )
    _record_repair(obs, repair, label, backend, absorb=True)
    return repair


def _record_repair(obs, repair: RepairResult, program: str, backend: str, absorb: bool) -> None:
    if not obs.enabled:
        return
    metrics = obs.metrics
    metrics.inc("delta.repairs", strategy=repair.strategy, program=program)
    if repair.edges_added:
        metrics.inc("delta.plan_edges_added", repair.edges_added, program=program)
    if repair.edges_removed:
        metrics.inc("delta.plan_edges_removed", repair.edges_removed, program=program)
    if repair.frontier_size:
        metrics.inc("delta.frontier_seeds", repair.frontier_size, program=program)
    if repair.reset_keys:
        metrics.inc("delta.keys_reset", repair.reset_keys, program=program)
    if absorb:
        metrics.absorb_work_counters(repair.counters, engine=ENGINE_NAME)
        record_backend_metrics(metrics, ENGINE_NAME, backend)
    obs.trace.emit(
        "delta.repair",
        program=program,
        strategy=repair.strategy,
        stop=repair.stop_reason,
        rounds=repair.counters.iterations,
        frontier=repair.frontier_size,
        reset=repair.reset_keys,
        edges_added=repair.edges_added,
        edges_removed=repair.edges_removed,
    )


# -- the engine facade --------------------------------------------------------


class IncrementalEngine:
    """Maintain one program's fixpoint over a :class:`MutableGraphView`.

    ``bootstrap()`` establishes the initial fixpoint with the plain MRA
    evaluator; every ``apply(delta)`` mutates the view and repairs the
    fixpoint in place.  The engine consults
    :func:`repro.analysis.incremental.classify_incremental` once to
    learn which strategies the program is certified for.
    """

    engine_name = ENGINE_NAME

    def __init__(
        self,
        program,
        graph=None,
        *,
        view: Optional[MutableGraphView] = None,
        backend: Optional[str] = None,
        obs=None,
    ):
        from repro.analysis.incremental import classify_incremental
        from repro.programs import get_program

        self.spec = get_program(program) if isinstance(program, str) else program
        if view is None:
            if graph is None:
                raise ValueError("IncrementalEngine needs a graph or a view")
            view = MutableGraphView(graph)
        self.view = view
        self.backend = resolve_backend(backend)
        self.obs = ensure_obs(obs)
        self.verdict = classify_incremental(self.spec.analysis())
        self._plan: Optional[CompiledPlan] = None
        self._values: Optional[dict] = None
        self._fixpoint_version: Optional[int] = None

    @property
    def values(self) -> dict:
        if self._values is None:
            raise RuntimeError("call bootstrap() (or apply a delta) first")
        return self._values

    @property
    def fixpoint_version(self) -> Optional[int]:
        """View version the maintained fixpoint corresponds to."""
        return self._fixpoint_version

    def bootstrap(self) -> EvalResult:
        """Full from-scratch evaluation at the view's current version."""
        plan = self.spec.plan(self.view.graph)
        result = MRAEvaluator(plan, obs=self.obs, backend=self.backend).run()
        self._plan = plan
        self._values = result.values
        self._fixpoint_version = self.view.version
        if self.obs.enabled:
            self.obs.trace.emit(
                "delta.bootstrap",
                program=self.spec.name,
                version=self.view.version,
                keys=len(result.values),
            )
        return result

    def apply(self, delta: GraphDelta) -> RepairResult:
        """Apply one delta to the view and repair the fixpoint."""
        if self._plan is None:
            self.bootstrap()
        self.view.apply(delta)
        return self.refresh()

    def refresh(self) -> RepairResult:
        """Re-align the fixpoint with the view's current head version
        (covers views mutated externally, possibly by several deltas)."""
        if self._plan is None or self._values is None:
            self.bootstrap()
        assert self._plan is not None and self._values is not None
        new_plan = self.spec.plan(self.view.graph)
        repair = repair_plan(
            self._plan,
            new_plan,
            self._values,
            mode=self.verdict.mode,
            backend=self.backend,
            obs=self.obs,
            program=self.spec.name,
        )
        self._plan = new_plan
        self._values = repair.result.values
        self._fixpoint_version = self.view.version
        return repair
