"""SLO acceptance harness for the serving layer.

The serving analogue of :func:`repro.distributed.chaos_harness.run_matrix`:
one call plays a seeded workload through the service (optionally under
chaos) and checks the robustness contract end to end:

* **no lost requests** -- every generated request reached exactly one
  terminal state (unique response per request id, status in the
  terminal set);
* **determinism** -- a second run of the same ``(spec, config, chaos,
  seed)`` from a fresh checkpoint directory produces a byte-identical
  JSON SLO report;
* **degraded-answer agreement** -- every answer the service handed out
  (fresh, cached or stale) traces back to a measured engine run; each
  distinct run is re-executed fault-free and must agree within the
  chaos harness's tolerances (bit-for-bit for idempotent aggregates,
  ``ADDITIVE_TOLERANCE`` for additive ones);
* **breaker visibility** -- when the chaos plan includes an outage, the
  trip and half-open transitions must be visible in the ``repro.obs``
  trace stream;
* **static-cost pricing** -- every computed answer's (program, graph
  version) pair traces to an abstract-interpretation cost estimate the
  SLO report records under the current schema, so deadline pricing was
  never flying blind before the first measured profile.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.distributed.chaos_harness import ADDITIVE_TOLERANCE
from repro.engine.validate import fixpoint_error
from repro.obs import Observability
from repro.programs import get_program
from repro.serving.request import TERMINAL_STATUSES
from repro.serving.service import ServeConfig, ServingService
from repro.serving.slo import SLO_REPORT_SCHEMA, build_report, report_to_json
from repro.serving.workload import WorkloadSpec


@dataclass
class AgreementCheck:
    """One measured engine run compared against its fault-free rerun."""

    program: str
    graph_version: int
    params: tuple
    engine: str
    #: "full" (cold run) or "resume" (checkpoint-restored recomputation)
    kind: str
    agreed: bool
    #: worst per-vertex error, relative to max(1, |reference|) so huge
    #: additive carriers (path_count) are judged at their own scale
    max_error: float
    tolerance: float

    def row(self) -> str:
        verdict = "ok" if self.agreed else "MISMATCH"
        params = ",".join(f"{k}={v}" for k, v in self.params) or "-"
        return (
            f"{self.program:10s} v{self.graph_version} {self.engine:8s} "
            f"{self.kind:6s} params={params:14s} {verdict:8s} "
            f"max_err={self.max_error:.2e} (tol {self.tolerance:.0e})"
        )


@dataclass
class ServeAcceptance:
    """Everything the harness verified, plus the run-1 report."""

    report: dict
    deterministic: bool
    no_lost_requests: bool
    agreements: list = field(default_factory=list)
    #: None when the chaos plan could not have tripped a breaker
    breaker_visible: Optional[bool] = None
    #: every computed answer traces to a static cost estimate the report
    #: records under the current schema (the deadline-pricing contract)
    static_pricing: bool = True

    @property
    def all_agreed(self) -> bool:
        return all(check.agreed for check in self.agreements)

    @property
    def passed(self) -> bool:
        return (
            self.deterministic
            and self.no_lost_requests
            and self.all_agreed
            and self.breaker_visible is not False
            and self.static_pricing
        )

    def summary(self) -> str:
        def mark(ok):
            if ok is None:
                return "n/a "
            return "pass" if ok else "FAIL"

        lines = [
            f"no-lost-requests   {mark(self.no_lost_requests)}",
            f"determinism        {mark(self.deterministic)}",
            f"answer-agreement   {mark(self.all_agreed)} "
            f"({len(self.agreements)} engine runs checked)",
            f"breaker-visibility {mark(self.breaker_visible)}",
            f"static-pricing     {mark(self.static_pricing)}",
        ]
        lines.extend("  " + check.row() for check in self.agreements)
        lines.append(f"acceptance: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _one_run(spec, config, chaos, seed, checkpoint_dir, obs=None):
    service = ServingService(
        config=config, chaos=chaos, obs=obs, checkpoint_dir=checkpoint_dir
    )
    outcome = service.run(spec, seed=seed)
    return service, outcome


def _check_no_lost(outcome, spec) -> bool:
    ids = [response.request_id for response in outcome.responses]
    return (
        len(ids) == spec.num_requests
        and len(set(ids)) == spec.num_requests
        and all(r.status in TERMINAL_STATUSES for r in outcome.responses)
    )


def _check_agreement(service, outcome, config, seed) -> list:
    """Re-run every measured engine execution fault-free and compare."""
    reference = ServingService(config=config, chaos=None)
    checks = []
    for memo_key in sorted(outcome.profiles, key=repr):
        profile = outcome.profiles[memo_key]
        key = profile.key
        program, graph_version, params, engine = key
        ref = reference._run_engine(key, seed, with_checkpointer=False)
        aggregate = get_program(program).analysis().aggregate
        tolerance = 0.0 if aggregate.is_idempotent else ADDITIVE_TOLERANCE
        max_error = fixpoint_error(
            ref.values, profile.values, aggregate, relative=True
        )
        checks.append(
            AgreementCheck(
                program=program,
                graph_version=graph_version,
                params=params,
                engine=engine,
                kind=memo_key[-1],
                agreed=max_error <= tolerance,
                max_error=max_error,
                tolerance=tolerance,
            )
        )
    return checks


def _check_static_pricing(outcome, report) -> bool:
    """Every computed answer's (program, version) must have had a static
    cost estimate consulted at its first dispatch, and the report must
    record it under the current schema."""
    if report.get("schema") != SLO_REPORT_SCHEMA:
        return False
    table = report.get("static_costs", {})
    return all(
        f"{r.program}@v{r.graph_version}" in table
        for r in outcome.responses
        if r.served_from == "compute"
    )


def _breaker_events(obs) -> list:
    return [e for e in obs.trace.events if e["kind"] == "serve.breaker"]


def run_serve_acceptance(
    spec: Optional[WorkloadSpec] = None,
    config: Optional[ServeConfig] = None,
    chaos=None,
    seed: int = 7,
    checkpoint_root: Optional[str] = None,
) -> ServeAcceptance:
    """Run the full acceptance check; see the module docstring."""
    spec = spec or WorkloadSpec()
    config = config or ServeConfig()

    def ckpt(name):
        if checkpoint_root is None:
            return None
        path = os.path.join(checkpoint_root, name)
        os.makedirs(path, exist_ok=True)
        return path

    obs = Observability(keep_series=False)
    service, outcome = _one_run(spec, config, chaos, seed, ckpt("run1"), obs=obs)
    report = build_report(outcome, spec, config, chaos=chaos)

    _, outcome2 = _one_run(spec, config, chaos, seed, ckpt("run2"))
    report2 = build_report(outcome2, spec, config, chaos=chaos)
    deterministic = report_to_json(report) == report_to_json(report2)

    breaker_visible = None
    if chaos is not None and chaos.outages:
        events = _breaker_events(obs)
        tripped = any(e.get("to") == "open" for e in events)
        half_opened = any(e.get("to") == "half-open" for e in events)
        breaker_visible = tripped and half_opened
    obs.close()

    return ServeAcceptance(
        report=report,
        deterministic=deterministic,
        no_lost_requests=_check_no_lost(outcome, spec),
        agreements=_check_agreement(service, outcome, config, seed),
        breaker_visible=breaker_visible,
        static_pricing=_check_static_pricing(outcome, report),
    )
