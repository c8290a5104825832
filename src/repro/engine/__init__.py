"""Single-node evaluation engines for recursive aggregate programs.

Two execution paths with one semantics:

* the **relational path** (:mod:`~repro.engine.relation`,
  :mod:`~repro.engine.rules`, :mod:`~repro.engine.naive`,
  :mod:`~repro.engine.seminaive`) executes the Datalog rules directly over
  stored relations -- this is what the paper's naive evaluation (Eq. 2)
  and classic semi-naive evaluation (Eq. 3) do, joins included;
* the **compiled path** (:mod:`~repro.engine.plan`,
  :mod:`~repro.engine.mra`) pre-joins the auxiliary predicates into
  per-edge parameters (the MonoTable "Auxiliaries" columns of Figure 7)
  and runs MRA evaluation (Eq. 4) on a kernel, the MonoTable of
  :mod:`repro.runtime`; the distributed engines in
  :mod:`repro.distributed` shard exactly this representation.

Tests assert that all paths agree with each other and with the
independent oracles in :mod:`repro.reference`.
"""

from repro.engine.relation import Relation, Database
from repro.engine.rules import evaluate_rule_bodies, evaluate_aux_rules
from repro.engine.termination import TerminationSpec, TerminationTracker
from repro.engine.result import EvalResult, WorkCounters
from repro.engine.plan import CompiledPlan, compile_plan
from repro.engine.naive import NaiveEvaluator
from repro.engine.seminaive import SemiNaiveEvaluator
from repro.engine.mra import MRAEvaluator, compute_initial_delta
from repro.engine.validate import Comparison, Mismatch, compare_results, tolerance_for

__all__ = [
    "Relation",
    "Database",
    "evaluate_rule_bodies",
    "evaluate_aux_rules",
    "TerminationSpec",
    "TerminationTracker",
    "EvalResult",
    "WorkCounters",
    "CompiledPlan",
    "compile_plan",
    "NaiveEvaluator",
    "SemiNaiveEvaluator",
    "MRAEvaluator",
    "compute_initial_delta",
    "Comparison",
    "Mismatch",
    "compare_results",
    "tolerance_for",
]
