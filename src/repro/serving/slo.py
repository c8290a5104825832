"""SLO accounting and the deterministic JSON report for ``repro serve``.

The report is the serving layer's contract surface: byte-identical for
identical ``(workload, config, chaos, seed)`` inputs, which CI asserts
by diffing two runs.  To keep that promise the builder uses exact
nearest-rank percentiles (no interpolation), rounds every float to nine
decimals, sorts all keys, and never includes wall-clock time or
filesystem paths.
"""

from __future__ import annotations

import json
import math

from repro.serving.breaker import FAILURE_THRESHOLD, RESET_TIMEOUT
from repro.serving.request import (
    OK,
    OK_STALE,
    SERVED_STATUSES,
    TERMINAL_STATUSES,
)

#: bump when the report layout changes
#: (3: static-cost deadline pricing -- ``config.cost_model`` constants
#: and the per-(program, version) ``static_costs`` section)
SLO_REPORT_SCHEMA = 3


def percentile(values, q: float) -> float:
    """Exact nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _round(value, places: int = 9):
    """Recursively round floats so report bytes are platform-stable."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return round(value, places)
    if isinstance(value, dict):
        return {k: _round(v, places) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(v, places) for v in value]
    return value


def _latency_block(latencies) -> dict:
    return {
        "count": len(latencies),
        "p50": percentile(latencies, 50.0),
        "p99": percentile(latencies, 99.0),
        "mean": sum(latencies) / len(latencies) if latencies else 0.0,
        "max": max(latencies) if latencies else 0.0,
    }


def build_report(outcome, spec, config, chaos=None) -> dict:
    """The SLO report for one :class:`ServeOutcome` (plain dict)."""
    responses = outcome.responses
    status_counts = {status: 0 for status in TERMINAL_STATUSES}
    for response in responses:
        status_counts[response.status] += 1
    served = [r for r in responses if r.status in SERVED_STATUSES]
    stale = [r for r in responses if r.status == OK_STALE]

    tenants = {}
    for tenant in spec.tenants:
        mine = [r for r in responses if r.tenant == tenant.name]
        mine_served = [r for r in mine if r.status in SERVED_STATUSES]
        in_slo = [
            r
            for r in mine_served
            if r.status == OK and r.latency <= tenant.slo_latency
        ]
        tenants[tenant.name] = {
            "requests": len(mine),
            "served": len(mine_served),
            "statuses": {
                status: sum(1 for r in mine if r.status == status)
                for status in TERMINAL_STATUSES
            },
            "slo_latency": tenant.slo_latency,
            # fraction of ALL requests answered fresh within the SLO
            # latency -- shed and degraded answers count against it
            "slo_attainment": len(in_slo) / len(mine) if mine else 1.0,
            "latency": _latency_block([r.latency for r in mine_served]),
        }

    fault_totals: dict = {}
    executions = {"full": 0, "resumed": 0, "repaired": 0}
    kind_of = {"resume": "resumed", "repair": "repaired"}
    for key, profile in sorted(outcome.profiles.items(), key=repr):
        executions[kind_of.get(key[-1], "full")] += 1
        for counter, count in profile.faults.items():
            fault_totals[counter] = fault_totals.get(counter, 0) + count

    report = {
        "schema": SLO_REPORT_SCHEMA,
        "seed": outcome.seed,
        "chaos": chaos is not None,
        "workload": {
            "num_requests": spec.num_requests,
            "arrival_rate": spec.arrival_rate,
            "burst_factor": spec.burst_factor,
            "tenants": [t.name for t in spec.tenants],
            "version_bumps": list(spec.version_bumps),
        },
        "config": {
            "executors": config.executors,
            "workers": config.workers,
            "freshness_ttl": config.freshness_ttl,
            "max_attempts": config.max_attempts,
            "breaker_threshold": FAILURE_THRESHOLD,
            "breaker_reset": RESET_TIMEOUT,
            # the cost-model currency pricing repairs and static
            # deadline predictions (schema 3)
            "cost_model": {
                "tuple_cost": config.cost_model.tuple_cost,
                "barrier_cost": config.cost_model.barrier_cost,
                "job_overhead": config.cost_model.job_overhead,
            },
        },
        "makespan": outcome.makespan,
        "throughput": len(served) / outcome.makespan if outcome.makespan else 0.0,
        "status_counts": status_counts,
        "served": len(served),
        "latency": _latency_block([r.latency for r in served]),
        "tenants": tenants,
        "counters": dict(sorted(outcome.counters.items())),
        "breakers": outcome.breakers,
        "engine_runs": {
            "distinct": executions["full"],
            "resumed": executions["resumed"],
            "repaired": executions["repaired"],
            "fault_totals": dict(sorted(fault_totals.items())),
        },
        "staleness": {
            "served_stale": len(stale),
            "max_age": max((r.stale_age or 0.0 for r in stale), default=0.0),
            "max_version_lag": max(
                (
                    outcome.final_graph_version - (r.graph_version or 0)
                    for r in stale
                ),
                default=0,
            ),
        },
        "final_graph_version": outcome.final_graph_version,
        # every abstract-interpretation cost estimate consulted for
        # deadline pricing, keyed "program@vN" (schema 3)
        "static_costs": {
            label: dict(entry)
            for label, entry in sorted(
                getattr(outcome, "static_costs", {}).items()
            )
        },
    }
    return _round(report)


def report_to_json(report: dict) -> str:
    """Canonical bytes: sorted keys, two-space indent, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_text(report: dict) -> str:
    """Human-readable SLO summary for the terminal."""
    lines = []
    chaos = "chaos" if report["chaos"] else "no chaos"
    lines.append(
        f"serve: {report['workload']['num_requests']} requests, "
        f"seed {report['seed']}, {chaos}, "
        f"makespan {report['makespan']:.3f}s, "
        f"throughput {report['throughput']:.2f} req/s"
    )
    counts = report["status_counts"]
    lines.append(
        "  status: "
        + "  ".join(f"{status}={counts[status]}" for status in TERMINAL_STATUSES)
    )
    lat = report["latency"]
    lines.append(
        f"  latency (served): p50={lat['p50']:.3f}s p99={lat['p99']:.3f}s "
        f"max={lat['max']:.3f}s"
    )
    lines.append(
        f"  cache: fresh-hits={report['counters']['cache_fresh_hits']} "
        f"stale-served={report['counters']['stale_served']} "
        f"max-stale-age={report['staleness']['max_age']:.3f}s"
    )
    lines.append(
        f"  engine runs: distinct={report['engine_runs']['distinct']} "
        f"resumed={report['engine_runs']['resumed']} "
        f"repaired={report['engine_runs']['repaired']} "
        f"attempts={report['counters']['attempts']} "
        f"failures={report['counters']['attempt_failures']} "
        f"retries={report['counters']['retries']}"
    )
    if report.get("static_costs"):
        lines.append(
            "  static pricing: "
            + "  ".join(
                f"{label}={entry['est_seconds']:.3f}s"
                for label, entry in sorted(report["static_costs"].items())
            )
        )
    fault_totals = report["engine_runs"]["fault_totals"]
    if fault_totals:
        text = ", ".join(f"{k}={v}" for k, v in sorted(fault_totals.items()))
        lines.append(f"  engine faults: {text}")
    for name, breaker in report["breakers"].items():
        if breaker["trips"] or breaker["state"] != "closed":
            lines.append(
                f"  breaker[{name}]: state={breaker['state']} "
                f"trips={breaker['trips']} half-opens={breaker['half_opens']} "
                f"closes={breaker['closes']}"
            )
    lines.append(
        "  tenant SLO attainment: "
        + "  ".join(
            f"{name}={tenants['slo_attainment']:.2%}"
            for name, tenants in sorted(report["tenants"].items())
        )
    )
    return "\n".join(lines)
