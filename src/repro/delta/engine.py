"""Fixpoint repair under graph deltas (the incremental engine).

A repair works off a :class:`PlanDiff`: the multiset difference of two
compiles' dependency edges plus the diff of their base facts (``X⁰``)
and constants (``C``).  There are two ways to one:

* :func:`diff_plans` subtracts the signature multisets of two compiled
  plans -- any two versions of any program (the serving layer, the
  benches, the test oracle);
* :func:`delta_join`, what :class:`IncrementalEngine` runs: join each
  recursive body against the *changed EDB rows only*
  (:func:`~repro.engine.plan.body_columns` with the rows as the
  relation's override).  The removed rows' edges ``R`` and the added
  rows' edges ``A`` cancel where they agree -- a body that ignores a
  column turns different rows into the same edge -- so the diff is
  ``added = A - R``, ``removed = R - A``, and the new plan is the old
  one patched by it (:meth:`~repro.engine.plan.CompiledPlan.patched`):
  no compile, no plan-sized multiset.

The changed rows come from the graph change.  The engine keeps the EDB
of its fixpoint; when the program's builder is edge-local
(:class:`~repro.programs.builders.EdgeLocalBuilder`: ``edge`` is a row
function of one graph edge, ``node`` the vertex ids) :func:`edb_changes`
runs the view's change records since the fixpoint through that row
function -- counted, since two edges can make one row, and cancelled
where they agree -- and the EDB is patched in place.  Any other builder
reads more than one edge per row (a degree, a BFS tree, a walk-count
certificate), so the head's EDB is rebuilt and
:func:`diff_databases` takes per-relation set differences.  Either way
the EDB is the builder's -- symmetrised edges (CC), the forward sub-DAG,
scaled probabilities and counting certificates are handled by the code
from-scratch evaluation uses -- and the repair is against the plan the
oracle would run (a patched plan holds a fresh compile's edges in its
lineage's order).

The delta join covers what is linear in the change: no auxiliary rules
(their relations would have to be maintained too), at most one atom
over a changed relation per recursive body, and unchanged broadcast
values.  Anything else, and every delta whose strategy is
``recompute``, compiles fresh and starts a new lineage.

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
  regressed).  Old ∪ new is new ∪ removed, so the closure walks the new
  plan plus the diff's removed pairs and the old plan's adjacency is
  never built.  The closure is forward-closed, so no plan edge leaves
  it: values outside it keep their exact justification and are carried
  over; values inside are recomputed from their base facts plus the
  boundary in-edges ``F'(x_src)`` from surviving keys.  Closure and
  boundary are kernel class operations
  (:meth:`~repro.runtime.base.Kernel.forward_closure`,
  :meth:`~repro.runtime.base.Kernel.boundary_contributions`): the array
  kernel runs both on the CSR.

* ``recompute`` -- everything else (additive deletions, non-monotone or
  iterated programs): delegate to the plain
  :class:`~repro.engine.mra.MRAEvaluator` on the new plan.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Optional

from repro.delta.model import GraphDelta
from repro.delta.view import MutableGraphView
from repro.engine.common import base_contributions, constant_contributions
from repro.engine.mra import MRAEvaluator
from repro.engine.plan import (
    CompiledPlan,
    body_columns,
    broadcast_names,
    edge_signatures,
)
from repro.engine.relation import Database, Relation
from repro.engine.result import EvalResult, WorkCounters
from repro.engine.rules import aggregate_contributions
from repro.engine.termination import run_rounds
from repro.obs import ensure_obs, record_run
from repro.runtime import get_kernel, resolve_backend, resolve_backend_for_plan

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


def diff_databases(old_db: Database, new_db: Database) -> Optional[dict]:
    """``name -> (removed rows, added rows)`` for every relation that
    differs between two EDBs, by set difference; ``None`` when they do
    not hold the same relations.  The rebuild path's EDB change."""
    names = new_db.names()
    if names != old_db.names():
        return None
    changed = {}
    for name in names:
        old, new = old_db.relation(name), new_db.relation(name)
        rows = old.difference(new), new.difference(old)
        if any(map(len, rows)):
            changed[name] = rows
    return changed


def edb_changes(builder, db: Database, changes: list, shared: dict) -> dict:
    """The EDB change an edge-local ``builder`` makes of ``changes`` (the
    view's records, in version order), against ``db``, the EDB of the
    graph before the first of them: ``name -> (removed rows, added
    rows)`` as :func:`diff_databases` would find it, from the records
    alone.

    With multiplicity: ``shared`` holds the ``edge`` rows more than one
    graph edge maps to (cc's two directions, a repeated pair) with that
    count, so a row leaves only with its last edge and arrives only
    with its first.  Equal rows cancel -- an edge added at one version
    and removed at a later one, a reweight to an equal value of another
    type -- and ``shared`` is left counting the graph after the changes.
    """
    edge = db.relation("edge")
    counts: dict = {}
    for change in changes:
        for rows, step in (
            (builder.edge_rows(change.removed), -1),
            (builder.edge_rows(change.added), 1),
        ):
            for row in rows:
                held = counts.get(row)
                if held is None:
                    held = shared.get(row, 1) if row in edge else 0
                counts[row] = held + step
    removed, added = [], []
    for row, held in counts.items():
        if row in edge:
            if not held:
                removed.append(row)
        elif held:
            added.append(row)
        if held > 1:
            shared[row] = held
        else:
            shared.pop(row, None)
    changed = {}
    if removed or added:
        changed["edge"] = (
            Relation("edge", edge.arity, removed),
            Relation("edge", edge.arity, added),
        )
    vertices = [(vertex,) for change in changes for vertex in change.vertices]
    if vertices:
        changed["node"] = (Relation("node", 1), Relation("node", 1, vertices))
    return changed


def shared_rows(builder, graph, db: Database) -> dict:
    """The ``edge`` rows more than one edge of ``graph`` maps to, with
    their count: what :func:`edb_changes` needs beside ``db``, the EDB
    ``builder`` made of ``graph``.  One pass over the graph's rows."""
    rows = builder.graph_rows(graph)
    if len(rows) == len(db.relation("edge")):
        return {}
    return {row: held for row, held in Counter(rows).items() if held > 1}


def delta_join(
    plan: CompiledPlan, changed: dict, db: Database
) -> Optional[tuple[PlanDiff, dict, dict]]:
    """What ``diff_plans(plan, compile_plan(analysis, db))`` would
    return, from the changed rows alone: ``changed`` maps a relation
    name to its removed and added rows (relations) between the EDB
    ``plan`` holds the edges of and ``db``, the EDB after the change.
    With it the new ``initial`` and ``constants``.  ``None`` when the
    change is not linear in the changed rows (module docstring) and only
    a fresh compile will do.
    """
    analysis = plan.analysis
    if analysis.aux_rules:
        return None
    aggregate = analysis.aggregate
    initial, constants = plan.initial, plan.constants
    base_keys = frozenset(chain(initial, constants))
    improved: dict = {}
    regressed: set = set()
    base_bodies = chain(
        analysis.constant_bodies, *(rule.bodies for rule in analysis.base_rules)
    )
    if any(
        atom.name in changed
        for body in base_bodies
        for atom in body.predicate_atoms()
    ):
        initial = aggregate_contributions(
            aggregate, base_contributions(analysis, db)
        )
        constants = aggregate_contributions(
            aggregate, constant_contributions(analysis, db)
        )
        if base_keys != frozenset(chain(initial, constants)) and any(
            broadcast_names(analysis, spec) for spec in analysis.recursions
        ):
            return None
        _diff_values(aggregate, plan.initial, initial, improved, regressed)
        _diff_values(aggregate, plan.constants, constants, improved, regressed)

    lost: Counter = Counter()
    gained: Counter = Counter()
    for body, spec in enumerate(analysis.recursions):
        touched = [atom.name for atom in spec.join_atoms if atom.name in changed]
        if len(touched) > 1:
            return None
        for name in touched:
            for edges, rows in zip((lost, gained), changed[name]):
                if len(rows):
                    columns = body_columns(
                        analysis, spec, db, base_keys, overrides={name: rows}
                    )
                    edges.update(edge_signatures(body, *columns))
    # cancel before patching: different rows can account for equal edges
    diff = PlanDiff(
        added=gained - lost,
        removed=lost - gained,
        improved=improved,
        regressed=regressed,
    )
    return diff, initial, constants


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


def _added_edge_seeds(plan: CompiledPlan, added: Counter, values: dict) -> list:
    """One ``F'(x_src)`` contribution per added plan edge with a valued
    source.  Sources without a prior value need no seed: the added edge
    lives in the kernel's plan, so any value they later gain propagates
    through it during the repair rounds."""
    fns = plan.fprime_fns
    seeds: list = []
    for (src, dst, params, body), count in added.items():
        value = values.get(src)
        if value is not None:
            seeds += [(dst, fns[body](value, *params))] * count
    return seeds


def repair_plan(
    old_plan: CompiledPlan,
    new_plan: CompiledPlan,
    prior_values: dict,
    *,
    mode: str,
    diff: Optional[PlanDiff] = None,
    backend: Optional[str] = None,
    obs=None,
    program: str = "",
) -> RepairResult:
    """Repair ``prior_values`` (the fixpoint of ``old_plan``) into the
    fixpoint of ``new_plan``; see the module docstring for strategies.

    ``diff`` is the two plans' :class:`PlanDiff` when the caller holds
    it already; the plans are diffed here otherwise.  The repair reads
    the diff and the new plan, never the old plan's edges."""
    obs = ensure_obs(obs)
    backend = resolve_backend_for_plan(new_plan, backend)
    if diff is None:
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
        _record_repair(obs, repair, label)
        return repair

    counters = WorkCounters()
    kernel_cls = get_kernel(backend)

    if strategy == "frontier":
        kernel = kernel_cls.from_plan(
            new_plan, counters=counters, initial=dict(prior_values)
        )
        seeds = list(diff.improved.items())
        seeds += _added_edge_seeds(new_plan, diff.added, prior_values)
        batches = [seeds]
        reset_keys = 0
    else:  # rederive
        lost = {dst for _, dst, _, _ in diff.removed}
        lost.update(diff.regressed)
        lost.update(key for key in prior_values if key not in new_plan.keys)
        # old ∪ new plan edges = new plan edges ∪ removed ones
        affected = kernel_cls.forward_closure(
            new_plan, lost, ((src, dst) for src, dst, _, _ in diff.removed)
        )
        surviving = {
            key: value
            for key, value in prior_values.items()
            if key not in affected and key in new_plan.keys
        }
        kernel = kernel_cls.from_plan(new_plan, counters=counters, initial=surviving)
        base = [
            item
            for facts in (new_plan.initial, new_plan.constants)
            for item in facts.items()
            if item[0] in affected
        ]
        # every new-plan in-edge from a surviving valued source
        boundary = kernel_cls.boundary_contributions(new_plan, surviving, affected)
        # growth outside the affected region (mixed insert+delete batches);
        # duplicates with the boundary seeds are absorbed by idempotence
        growth = _added_edge_seeds(new_plan, diff.added, surviving)
        growth += [
            (key, value)
            for key, value in diff.improved.items()
            if key not in affected
        ]
        batches = [base, boundary, growth]
        reset_keys = len(affected)

    kernel.push_many(*batches)
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
    repair = RepairResult(
        result=result,
        strategy=strategy,
        edges_added=sum(diff.added.values()),
        edges_removed=sum(diff.removed.values()),
        frontier_size=sum(map(len, batches)),
        reset_keys=reset_keys,
        ops=ops,
    )
    record_run(obs, result)
    _record_repair(obs, repair, label)
    return repair


def _record_repair(obs, repair: RepairResult, program: str) -> None:
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

    The engine keeps the EDB its plan holds the edges of -- the one
    ``bootstrap`` compiled from -- and moves it to the head on every
    repair: patched in place with the rows the view's change records
    map to when the program's builder is edge-local, rebuilt and diffed
    when it is not (module docstring).  A repair then goes through
    :func:`delta_join` and patches the plan where it can, and compiles
    the head graph where it cannot; which one happened is a function of
    the builder, the analysed program and the delta.  Patched plans stay
    inside the engine: their edge order is their lineage's.
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
        #: the EDB of the fixpoint's version (maintainable programs only)
        self._db: Optional[Database] = None
        #: its ``edge`` rows held by several graph edges (edge-local
        #: builders; counted on the first repair)
        self._shared: Optional[dict] = None
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
        db = self.spec.build_database(self.view.graph)
        plan = self.spec.compile(db)
        result = MRAEvaluator(plan, obs=self.obs, backend=self.backend).run()
        self._plan = plan
        self._db = db if self.verdict.maintainable else None
        self._shared = None
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
        (covers views mutated externally, possibly by several deltas:
        their change records are composed in version order).  A builder
        that refuses the head graph leaves the engine as it was."""
        if self._plan is None or self._values is None:
            self.bootstrap()
        assert self._plan is not None and self._values is not None
        new_plan = diff = None
        db = self._db
        # mode "none" always recomputes, which needs the compiled plan
        if self.verdict.maintainable:
            changed, db = self._edb_change()
            joined = None if changed is None else delta_join(self._plan, changed, db)
            if joined is not None:
                diff, initial, constants = joined
                if diff.is_empty:
                    new_plan = self._plan
                elif choose_strategy(self.verdict.mode, diff) != "recompute":
                    new_plan = self._plan.patched(
                        diff.added, diff.removed, initial, constants
                    )
        if new_plan is None:
            new_plan = self.spec.plan(self.view.graph)
        repair = repair_plan(
            self._plan,
            new_plan,
            self._values,
            mode=self.verdict.mode,
            diff=diff,
            backend=self.backend,
            obs=self.obs,
            program=self.spec.name,
        )
        self._plan = new_plan
        self._db = db
        self._values = repair.result.values
        self._fixpoint_version = self.view.version
        return repair

    def _edb_change(self) -> tuple[Optional[dict], Database]:
        """The EDB change from the fixpoint's version to the head (as
        :func:`diff_databases` returns it) and the head's EDB.  An
        edge-local builder's change is read off the view's records and
        patched into the kept EDB; any other builder rebuilds the head's
        EDB, which may refuse it (RA351) before anything changed."""
        builder = self.spec.build_database
        assert self._db is not None and self._fixpoint_version is not None
        if not hasattr(builder, "edge_rows"):
            db = builder(self.view.graph)
            return diff_databases(self._db, db), db
        if self._shared is None:
            graph = self.view.graph_at(self._fixpoint_version)
            self._shared = shared_rows(builder, graph, self._db)
        changes = self.view.changes_between(self._fixpoint_version, self.view.version)
        changed = edb_changes(builder, self._db, changes, self._shared)
        for name, (removed, added) in changed.items():
            self._db.relation(name).patch(removed, added)
        return changed, self._db
