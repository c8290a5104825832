"""Recovery-correctness harness: chaotic runs must match fault-free ones.

The harness runs a registered program twice on the same engine -- once
fault-free to establish the reference fixpoint (and the reference
simulated duration, used to place crashes *before* convergence), once
under a :class:`~repro.distributed.chaos.FaultSchedule` -- and asserts
agreement:

* **idempotent** aggregates (min/max) must agree *bit for bit*: every
  re-delivered or replayed delta is absorbed by ``g`` (Theorem 3), so
  chaos may cost time but never precision;
* **additive** aggregates (sum/count) must agree within a float
  tolerance: epsilon-terminated programs may legitimately stop at a
  slightly different point of the same convergent series.

``run_matrix`` sweeps the acceptance matrix of ISSUE-grade coverage --
one selective program, one exact sum program, one non-monotonic
epsilon program, on both the sync and async engines -- under a schedule
that crashes a worker, drops >= 1% of messages and duplicates
deliveries, all deterministically from one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.distributed.chaos import FaultSchedule, WorkerCrash
from repro.distributed.cluster import ClusterConfig
from repro.distributed.fault import Checkpointer
from repro.distributed.registry import FAULT_TOLERANT_ENGINES, build_engine
from repro.graphs import random_dag, rmat
from repro.programs import get_program

#: the default acceptance matrix: one selective (min), one exact
#: additive (count-as-sum), one non-monotonic epsilon program (sum)
DEFAULT_PROGRAMS = ("sssp", "dag_paths", "pagerank")

#: float tolerance for additive aggregates (idempotent ones use 0.0)
ADDITIVE_TOLERANCE = 5e-3


@dataclass
class ChaosReport:
    """Outcome of one chaotic run compared against its reference."""

    program: str
    engine: str
    schedule: str
    #: True when every key agrees within ``tolerance``
    agreed: bool
    #: largest |chaotic - reference| over all keys (inf on missing keys)
    max_error: float
    #: 0.0 for idempotent aggregates (bit-for-bit), float tol otherwise
    tolerance: float
    reference_seconds: float
    chaotic_seconds: float
    #: fault/recovery counters from the chaotic run
    stats: dict = field(default_factory=dict)
    reference_stop: str = ""
    chaotic_stop: str = ""

    @property
    def overhead(self) -> float:
        """Simulated-time cost of surviving the schedule (ratio - 1)."""
        if self.reference_seconds <= 0:
            return 0.0
        return self.chaotic_seconds / self.reference_seconds - 1.0

    def to_dict(self) -> dict:
        """Machine-readable form for ``repro chaos --format json``."""
        return {
            "program": self.program,
            "engine": self.engine,
            "schedule": self.schedule,
            "agreed": self.agreed,
            # strict JSON has no Infinity; missing keys surface as null
            "max_error": self.max_error if math.isfinite(self.max_error) else None,
            "tolerance": self.tolerance,
            "reference_seconds": self.reference_seconds,
            "chaotic_seconds": self.chaotic_seconds,
            "overhead": self.overhead,
            "stats": dict(sorted(self.stats.items())),
            "reference_stop": self.reference_stop,
            "chaotic_stop": self.chaotic_stop,
        }

    def row(self) -> str:
        verdict = "ok" if self.agreed else "MISMATCH"
        return (
            f"{self.program:12s} {self.engine:8s} {verdict:8s} "
            f"max_err={self.max_error:.2e} (tol {self.tolerance:.0e})  "
            f"time x{1.0 + self.overhead:.2f}  "
            f"crashes={self.stats.get('crashes', 0)} "
            f"drops={self.stats.get('dropped_messages', 0)} "
            f"dups={self.stats.get('duplicated_messages', 0)} "
            f"retrans={self.stats.get('retransmits', 0)} "
            f"replayed={self.stats.get('replayed_tuples', 0)} "
            f"rollbacks={self.stats.get('rollbacks', 0)}"
        )


def schedule_for(
    reference_seconds: float,
    num_workers: int,
    seed: int = 7,
    crash_fractions: tuple = (0.35,),
    drop_rate: float = 0.02,
    duplicate_rate: float = 0.01,
    reorder_jitter: float = 1e-4,
    restart_after: float = 0.005,
) -> FaultSchedule:
    """Build a schedule whose crashes land *during* the reference run.

    Crash times are fractions of the fault-free simulated duration, so
    the crash provably fires before convergence instead of after the
    heap drains; crashed workers rotate (1, 2, ...) to avoid always
    killing the shard that owns the seed vertex.
    """
    crashes = tuple(
        WorkerCrash(
            worker=1 + index % max(1, num_workers - 1),
            at=max(1e-6, reference_seconds * fraction),
            restart_after=restart_after,
        )
        for index, fraction in enumerate(crash_fractions)
    )
    return FaultSchedule(
        crashes=crashes,
        drop_rate=drop_rate,
        duplicate_rate=duplicate_rate,
        reorder_jitter=reorder_jitter,
        seed=seed,
    )


def default_graph(program_name: str, seed: int = 7):
    """A small graph the program is well-defined on.

    Path-counting programs need acyclic inputs (infinite path counts
    otherwise), pair-domain programs need tiny graphs; everything else
    runs on a power-law digraph.
    """
    spec = get_program(program_name)
    if program_name == "path_count":
        # multiplicity products grow fast; a smaller DAG keeps counts
        # below 2^53 so float64 backends match the exact python fold
        return random_dag(40, 120, seed=seed, name="chaos-dag")
    if program_name in ("dag_paths", "cost", "viterbi"):
        return random_dag(50, 160, seed=seed, name="chaos-dag")
    if spec.key_domain == "pair":
        return rmat(14, 40, seed=seed, name="chaos-pair")
    return rmat(60, 280, seed=seed, name="chaos")


def run_chaos(
    program_name: str,
    engine: str = "sync",
    graph=None,
    cluster: Optional[ClusterConfig] = None,
    schedule: Optional[FaultSchedule] = None,
    seed: int = 7,
    checkpoint_dir: Optional[str] = None,
    tolerance: Optional[float] = None,
    schedule_kwargs: Optional[dict] = None,
    backend: Optional[str] = None,
) -> ChaosReport:
    """Compare a chaotic run against the fault-free reference.

    When ``schedule`` is omitted, :func:`schedule_for` builds one from
    the reference run's duration (>= 1 crash, 2% drops, 1% duplicates);
    ``schedule_kwargs`` overrides its knobs (``drop_rate``,
    ``crash_fractions``, ...).  ``checkpoint_dir`` enables disk
    checkpoints for the chaotic run; it must not already hold
    checkpoints under the derived run name, or the engine's resume
    semantics would skip straight to the old fixpoint.  Fresh plans are
    compiled per run so the two executions share nothing.
    """
    spec = get_program(program_name)
    if graph is None:
        graph = default_graph(program_name, seed=seed)
    cluster = cluster or ClusterConfig(num_workers=4)
    if engine not in FAULT_TOLERANT_ENGINES:
        raise ValueError(
            f"unknown harness engine {engine!r} (choose from {FAULT_TOLERANT_ENGINES})"
        )

    reference = build_engine(engine, spec.plan(graph), cluster, backend=backend).run()

    if schedule is None:
        schedule = schedule_for(
            reference.simulated_seconds,
            cluster.num_workers,
            seed=seed,
            **(schedule_kwargs or {}),
        )
    aggregate = spec.analysis().aggregate
    if tolerance is None:
        tolerance = 0.0 if aggregate.is_idempotent else ADDITIVE_TOLERANCE

    chaotic = build_engine(
        engine,
        spec.plan(graph),
        cluster.with_faults(schedule),
        checkpointer=None if checkpoint_dir is None else Checkpointer(checkpoint_dir),
        run_name=f"chaos-{program_name}-{engine}-{schedule.seed}",
        backend=backend,
    ).run()

    max_error = 0.0
    keys = set(reference.values) | set(chaotic.values)
    for key in keys:
        ref_value = reference.values.get(key)
        got_value = chaotic.values.get(key)
        if ref_value is None or got_value is None:
            max_error = float("inf")
            break
        max_error = max(max_error, abs(float(got_value) - float(ref_value)))

    stats = chaotic.faults.snapshot() if chaotic.faults is not None else {}
    return ChaosReport(
        program=program_name,
        engine=engine,
        schedule=schedule.describe(),
        agreed=max_error <= tolerance,
        max_error=max_error,
        tolerance=tolerance,
        reference_seconds=reference.simulated_seconds or 0.0,
        chaotic_seconds=chaotic.simulated_seconds or 0.0,
        stats=stats,
        reference_stop=reference.stop_reason,
        chaotic_stop=chaotic.stop_reason,
    )


def run_matrix(
    programs: tuple = DEFAULT_PROGRAMS,
    engines: tuple = ("sync", "async"),
    graph=None,
    num_workers: int = 4,
    seed: int = 7,
    checkpoint_dir: Optional[str] = None,
    schedule_kwargs: Optional[dict] = None,
    backend: Optional[str] = None,
) -> list:
    """The acceptance matrix: every program x engine pair must agree."""
    reports = []
    for program_name in programs:
        for engine in engines:
            reports.append(
                run_chaos(
                    program_name,
                    engine=engine,
                    graph=graph,
                    cluster=ClusterConfig(num_workers=num_workers),
                    seed=seed,
                    checkpoint_dir=checkpoint_dir,
                    schedule_kwargs=schedule_kwargs,
                    backend=backend,
                )
            )
    return reports


def format_matrix(reports: list) -> str:
    lines = [
        "chaos acceptance matrix (chaotic run vs fault-free reference)",
        f"{'program':12s} {'engine':8s} {'verdict':8s} detail",
    ]
    lines.extend(report.row() for report in reports)
    failed = sum(1 for report in reports if not report.agreed)
    lines.append(
        f"{len(reports) - failed}/{len(reports)} agreed"
        + (f" -- {failed} MISMATCHED" if failed else "")
    )
    return "\n".join(lines)
