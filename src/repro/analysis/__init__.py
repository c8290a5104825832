"""Static analysis over Datalog ASTs and compiled plans.

The analyzer front-door is :func:`analyze_source` /
:func:`analyze_program` (the multi-pass pipeline behind ``repro lint``);
the individual passes are importable on their own:

* :mod:`repro.analysis.diagnostics` -- stable ``RAxxx`` codes, spans,
  severities, text/JSON renderers;
* :mod:`repro.analysis.depgraph`    -- predicate dependency graph, SCCs,
  strata;
* :mod:`repro.analysis.structure`   -- the supported-class constraints
  (single source of truth; :func:`repro.datalog.analyze` delegates here);
* :mod:`repro.analysis.lints`       -- unbound-variable / unused /
  duplicate / singleton lints;
* :mod:`repro.analysis.prescreen`   -- the Theorem-1 structural
  pre-screen the condition checker fast-paths through;
* :mod:`repro.analysis.asynccert`   -- Theorem-3 async-eligibility
  certificates the asynchronous engines require;
* :mod:`repro.analysis.incremental` -- incremental-maintainability
  classification (RA32x) gating :mod:`repro.delta` repair strategies;
* :mod:`repro.analysis.frontier`    -- sparse-frontier scheduling
  applicability (RA33x) gating the array kernel's delta-stepping;
* :mod:`repro.analysis.comm`        -- sharding / communication-shape
  analysis surfaced through ``repro.obs`` metrics.
"""

from repro.analysis.diagnostics import (
    CODES,
    AnalysisReport,
    Diagnostic,
    Severity,
    error,
    info,
    warning,
)
from repro.analysis.depgraph import (
    DependencyGraph,
    build_graph,
    reachable_from,
    recursive_components,
    strata,
    strongly_connected_components,
)
from repro.analysis.structure import check_structure
from repro.analysis.lints import run_lints
from repro.analysis.frontier import FrontierVerdict, classify_frontier
from repro.analysis.incremental import IncrementalVerdict, classify_incremental
from repro.analysis.prescreen import PreScreenVerdict, match_pattern, prescreen
from repro.analysis.asynccert import (
    AsyncCertificate,
    AsyncIneligibleError,
    certify_async,
    require_async_certified,
)
from repro.analysis.comm import (
    BodyCommShape,
    PlanCommEstimate,
    communication_shape,
    estimate_plan_communication,
)
from repro.analysis.pipeline import (
    analyze_program,
    analyze_source,
    diagnostic_from_error,
)

__all__ = [
    "CODES",
    "AnalysisReport",
    "Diagnostic",
    "Severity",
    "error",
    "info",
    "warning",
    "DependencyGraph",
    "build_graph",
    "reachable_from",
    "recursive_components",
    "strata",
    "strongly_connected_components",
    "check_structure",
    "run_lints",
    "PreScreenVerdict",
    "match_pattern",
    "prescreen",
    "IncrementalVerdict",
    "classify_incremental",
    "FrontierVerdict",
    "classify_frontier",
    "AsyncCertificate",
    "AsyncIneligibleError",
    "certify_async",
    "require_async_certified",
    "BodyCommShape",
    "PlanCommEstimate",
    "communication_shape",
    "estimate_plan_communication",
    "analyze_program",
    "analyze_source",
    "diagnostic_from_error",
]
