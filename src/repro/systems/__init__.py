"""Executable models of the Datalog/graph systems the paper compares.

Each system is reduced to the evaluation strategy and execution mode the
paper attributes to it (sections 6.2-6.4), running on the shared cluster
simulator.  A system is one :class:`DatalogSystem` row below: a route
over :data:`repro.distributed.ENGINES` plus its cost constants.

===============  ===========================================  ==========
system           strategy                                      mode
===============  ===========================================  ==========
SociaLite        semi-naive (monotonic) / naive (otherwise),   sync
                 delta-stepping SSSP
Myria            semi-naive (monotonic) / naive (otherwise)    async
BigDatalog       semi-naive (monotonic), per-iteration job     sync
/GraphX          overhead; GraphX incremental PageRank
PowerGraph       incremental, best of sync/async               either
Maiter           incremental (delta accumulation)              async
Prom             incremental, priority updates                 async
PowerLog         MRA when the condition check passes,          unified
                 naive+sync otherwise (Figure 2)
===============  ===========================================  ==========

Strategy and coordination differences (incremental vs full recompute,
barriers vs staleness, buffering) are *simulated from real execution*.
On top of that, each baseline carries a constant **engine efficiency
factor** -- a per-tuple cost multiplier calibrated against the relative
per-iteration throughputs implied by the paper's Figure 9 (e.g. Myria's
tuple-at-a-time relational operators vs PowerLog's compiled MonoTable
updates).  These constants are documented here and in EXPERIMENTS.md;
they scale absolute times, never orderings between a system's own
configurations.
"""

from repro.distributed.buffers import BufferPolicy
from repro.systems.base import DatalogSystem, PowerLog, PowerLogDecision, is_monotonic

#: paper section 6.3: Myria and BigDatalog lack Adsorption, Katz and BP
_NO_ADDITIVE_EXTRAS = frozenset({"adsorption", "katz", "bp"})


def _fixed_buffer(beta: float) -> dict:
    return {"buffer_policy": BufferPolicy(initial_beta=beta, adaptive=False)}


def _prom_threshold(plan) -> dict:
    # prioritised block updates: larger batches, importance-ordered
    threshold = None
    if plan.termination.epsilon is not None and plan.keys:
        threshold = 10.0 * plan.termination.epsilon / len(plan.keys)
    return {**_fixed_buffer(128), "importance_threshold": threshold}


SYSTEMS: dict[str, DatalogSystem] = {
    system.name: system
    for system in (
        # SociaLite [ICDE'13, VLDB'13]: synchronous; min/max programs
        # semi-naive, with the delta-stepping SSSP the paper credits in
        # section 6.3; everything else naive with the per-iteration re-join
        DatalogSystem(
            "SociaLite",
            lambda spec, plan: (
                [("sync", {"delta_stepping": spec.name == "sssp"}, {})]
                if is_monotonic(spec)
                else [("naive", {}, {})]
            ),
            efficiency_factor=6.0,
        ),
        # Myria [VLDB'15]: eager pipelined exchange -- small fixed
        # buffers, maximum asynchrony -- for monotonic programs; others
        # naive in synchronous rounds.  Its iterative operators keep the
        # join's hash tables between iterations, so its naive evaluation
        # pays far fewer probes per binding (join_scan_factor 1.5): why
        # its PageRank beats SociaLite's in Figure 1 though both are naive.
        DatalogSystem(
            "Myria",
            lambda spec, plan: (
                [("async", _fixed_buffer(16.0), {})]
                if is_monotonic(spec)
                else [("naive", {}, {"join_scan_factor": 1.5})]
            ),
            efficiency_factor=9.0,  # tuple-at-a-time relational operators
            unsupported=_NO_ADDITIVE_EXTRAS,
        ),
        # BigDatalog [SIGMOD'16]: semi-naive on Spark, every superstep a
        # scheduled job; the GraphX Pregel implementation substitutes for
        # PageRank-style programs, also incremental, same job cost
        DatalogSystem(
            "BigDatalog",
            lambda spec, plan: [("sync", {}, {})],
            efficiency_factor=2.0,  # compiled Spark operators
            extra_job_overhead=0.08,  # scheduling, task launch
            unsupported=_NO_ADDITIVE_EXTRAS,
            substitute="GraphX",
        ),
        # PowerGraph [OSDI'12]: GAS engine, the paper reports its best mode
        DatalogSystem(
            "PowerGraph",
            lambda spec, plan: [("sync", {}, {}), ("async", _fixed_buffer(128), {})],
            efficiency_factor=1.8,  # native C++, but a lock-heavy vertex model
        ),
        # Maiter [TPDS'14]: asynchronous delta-based accumulative iteration
        DatalogSystem(
            "Maiter",
            lambda spec, plan: [("async", _fixed_buffer(128), {})],
            efficiency_factor=1.5,
        ),
        # Prom [CIKM'14]: prioritised asynchronous belief propagation
        DatalogSystem(
            "Prom",
            lambda spec, plan: [("async", _prom_threshold(plan), {})],
            efficiency_factor=1.5,
        ),
        PowerLog(),
    )
}


def get_system(name: str) -> DatalogSystem:
    """Look up a system model by name (raises ``KeyError`` if unknown)."""
    try:
        return SYSTEMS[name]
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; expected one of {sorted(SYSTEMS)}"
        ) from None


__all__ = [
    "DatalogSystem",
    "PowerLog",
    "PowerLogDecision",
    "SYSTEMS",
    "get_system",
]
