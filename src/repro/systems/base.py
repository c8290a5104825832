"""The system row: a Datalog system as an engine route plus cost constants.

A system compiles a program, runs it on the :data:`repro.distributed.ENGINES`
entries its route names, and keeps the fastest result.  What sets the
systems apart -- which engines, with which options and cost overrides,
how much slower per tuple -- is data on the row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from repro.aggregates import AggregateKind
from repro.checker import CheckReport, check_analysis
from repro.distributed.cluster import ClusterConfig
from repro.distributed.registry import build_engine
from repro.engine.plan import CompiledPlan, compile_plan
from repro.engine.result import EvalResult
from repro.graphs.graph import Graph
from repro.programs.registry import ProgramSpec

#: one engine run of a route: ``(ENGINES name, engine options, cost overrides)``
Leg = tuple[str, Mapping, Mapping]
Route = Callable[[ProgramSpec, CompiledPlan], Sequence[Leg]]


def is_monotonic(spec: ProgramSpec) -> bool:
    """Monotonic in the baseline systems' sense: a selective (min/max)
    aggregate, for which classic semi-naive evaluation is valid.
    Additive programs fall back to naive evaluation there."""
    return spec.analysis().aggregate.kind is AggregateKind.SELECTIVE


@dataclass(frozen=True)
class DatalogSystem:
    """One system: its route over the engine registry and its constants.

    ``efficiency_factor`` scales per-tuple compute cost -- the calibrated
    engine-maturity constant (see the package docstring) -- and
    ``extra_job_overhead`` is added to every superstep's job cost.
    ``substitute`` names the system that stands in for the non-monotonic
    programs, which then run labelled ``name/substitute``.
    """

    name: str
    route: Route
    efficiency_factor: float = 1.0
    extra_job_overhead: float = 0.0
    unsupported: frozenset = frozenset()
    substitute: Optional[str] = None

    def supports(self, spec: ProgramSpec) -> bool:
        """Whether the system can run this program (paper section 6.3:
        Myria and BigDatalog do not support Adsorption/Katz/BP)."""
        return spec.name not in self.unsupported

    def compile(self, spec: ProgramSpec, graph: Graph) -> CompiledPlan:
        return compile_plan(spec.analysis(), spec.build_database(graph))

    def label(self, spec: ProgramSpec) -> str:
        if self.substitute and not is_monotonic(spec):
            return f"{self.name}/{self.substitute}"
        return self.name

    def run(
        self,
        spec: ProgramSpec,
        graph: Graph,
        cluster: Optional[ClusterConfig] = None,
        backend: Optional[str] = None,
    ) -> EvalResult:
        """Run every leg of the route; the fastest result, labelled."""
        cluster = cluster or ClusterConfig()
        cost = cluster.cost
        cluster = cluster.with_cost(
            tuple_cost=cost.tuple_cost * self.efficiency_factor,
            scan_cost=cost.scan_cost * self.efficiency_factor,
            job_overhead=cost.job_overhead + self.extra_job_overhead,
        )
        plan = self.compile(spec, graph)
        results = [
            build_engine(
                engine, plan, cluster.with_cost(**overrides), backend=backend, **options
            ).run()
            for engine, options, overrides in self.route(spec, plan)
        ]
        best = min(results, key=lambda result: result.simulated_seconds or 0.0)
        best.engine = f"{self.label(spec)}:{best.engine}"
        return best


@dataclass(frozen=True)
class PowerLogDecision:
    """Outcome of the Figure-2 routing decision for one program."""

    report: CheckReport
    evaluation: str  # "mra" or "naive"
    engine: str  # "unified sync-async" or "sync"

    def summary(self) -> str:
        return (
            f"{self.report.program_name}: {self.evaluation} evaluation on the "
            f"{self.engine} engine ({self.report.summary()})"
        )


def decide(spec: ProgramSpec) -> PowerLogDecision:
    """Figure 2: the automatic condition check picks the engine."""
    report = check_analysis(spec.analysis())
    if report.mra_satisfiable:
        return PowerLogDecision(report, "mra", "unified sync-async")
    return PowerLogDecision(report, "naive", "sync")


def _powerlog_route(spec: ProgramSpec, plan: CompiledPlan) -> list[Leg]:
    # MRA evaluation on the unified sync-async engine; otherwise naive+sync
    return [("unified" if decide(spec).evaluation == "mra" else "naive", {}, {})]


class PowerLog(DatalogSystem):
    """The PowerLog system: check, route, execute (paper Figure 2).

    The row whose route is the checker's decision; ``decide`` exposes
    it (check report, chosen engine), which Table 1 prints.
    """

    def __init__(self):
        super().__init__("PowerLog", _powerlog_route)

    decide = staticmethod(decide)
