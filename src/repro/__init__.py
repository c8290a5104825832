"""PowerLog reproduction: automating incremental and asynchronous
evaluation for recursive aggregate data processing (SIGMOD 2020).

Quickstart::

    from repro import check_source, get_program, PowerLog
    from repro.graphs import load_dataset

    report = check_source('''
        sssp(X, d) :- X = 0, d = 0.
        sssp(Y, min[dy]) :- sssp(X, dx), edge(X, Y, dxy), dy = dx + dxy.
    ''', name="sssp")
    assert report.mra_satisfiable

    system = PowerLog()
    result = system.run(get_program("sssp"), load_dataset("livej"))
    print(result.values[42], result.simulated_seconds)

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.datalog` -- parser + analyzer (G / F' / C extraction)
* :mod:`repro.checker` -- automatic MRA condition verification
* :mod:`repro.aggregates` -- min/max/sum/count/mean operators
* :mod:`repro.engine` -- naive, semi-naive and MRA evaluation
* :mod:`repro.runtime` -- the kernels: Figure 7's MonoTable and its inner loop
* :mod:`repro.distributed` -- simulated cluster: sync/async/unified/AAP
* :mod:`repro.systems` -- SociaLite/Myria/BigDatalog/... baselines + PowerLog
* :mod:`repro.programs` -- the paper's fourteen programs (Table 1) and four
  semiring families
* :mod:`repro.graphs` -- generators, Table-2 dataset stand-ins, stats
* :mod:`repro.bench` -- regenerates every paper table and figure
* :mod:`repro.reference` -- independent oracles (tests only)
"""

from repro.datalog import parse_program, analyze
from repro.checker import check_source, check_program, check_analysis, CheckReport
from repro.aggregates import get_aggregate
from repro.engine import (
    Database,
    NaiveEvaluator,
    SemiNaiveEvaluator,
    MRAEvaluator,
    compile_plan,
    CompiledPlan,
    EvalResult,
    TerminationSpec,
)
from repro.distributed import (
    ClusterConfig,
    CostModel,
    SyncEngine,
    AsyncEngine,
    UnifiedEngine,
    AAPEngine,
)
from repro.programs import PROGRAMS, get_program, program_names
from repro.systems import PowerLog, SYSTEMS, get_system
from repro.graphs import Graph, load_dataset, dataset_names

__version__ = "1.0.0"

__all__ = [
    "parse_program",
    "analyze",
    "check_source",
    "check_program",
    "check_analysis",
    "CheckReport",
    "get_aggregate",
    "Database",
    "NaiveEvaluator",
    "SemiNaiveEvaluator",
    "MRAEvaluator",
    "compile_plan",
    "CompiledPlan",
    "EvalResult",
    "TerminationSpec",
    "ClusterConfig",
    "CostModel",
    "SyncEngine",
    "AsyncEngine",
    "UnifiedEngine",
    "AAPEngine",
    "PROGRAMS",
    "get_program",
    "program_names",
    "PowerLog",
    "SYSTEMS",
    "get_system",
    "Graph",
    "load_dataset",
    "dataset_names",
    "__version__",
]
