"""Reusable diagnostics core: stable codes, severities, spans, renderers.

Every finding of the static analyzer is a :class:`Diagnostic` with a
stable ``RAxxx`` error code (the public contract: golden tests, CI jobs
and engine gates all match on codes, never on message text), a severity,
an optional source span (line/column from the lexer tokens) and an
optional fix-it hint.  A :class:`AnalysisReport` collects the
diagnostics of one program together with the structured verdicts of the
later passes (Theorem-1 pre-screen, Theorem-3 async certificate,
communication shape) and renders as text or JSON.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional


class Severity(enum.Enum):
    """How bad a diagnostic is; ERROR makes ``repro lint`` exit nonzero."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


#: The stable error-code table.  Codes are append-only: a released code
#: never changes meaning, renumbering is forbidden (golden diagnostics
#: tests pin them).
CODES: dict[str, str] = {
    # syntax (RA0xx)
    "RA001": "lexical error",
    "RA002": "syntax error",
    # program-class structure (RA1xx) -- violations of the supported
    # class of section 2.1 (direct linear recursion, one aggregate head)
    "RA101": "no recursive rule",
    "RA102": "mutual or multiple recursion",
    "RA103": "indirect recursion through the recursive predicate",
    "RA104": "non-linear recursion",
    "RA105": "recursive rule has no head aggregate",
    "RA106": "aggregate is not the last head argument",
    "RA107": "misplaced iteration index",
    "RA108": "head key positions must be variables",
    "RA109": "malformed recursive atom",
    "RA110": "unstratifiable aggregation",
    "RA111": "multiple termination clauses",
    "RA112": "unsupported assume declaration",
    # extraction (RA12x) -- the G/F'/C decomposition failed
    "RA120": "aggregate variable not defined in the recursive body",
    "RA121": "variable defined more than once",
    "RA122": "cyclic definitions in recursive body",
    "RA129": "program outside the supported class",
    # lints (RA2xx)
    "RA201": "unbound head variable",
    "RA202": "unused predicate",
    "RA203": "duplicate rule",
    "RA204": "singleton body variable",
    # Theorem-1 pre-screen (RA30x)
    "RA301": "Theorem-1 pre-screen: eligible by shape",
    "RA302": "Theorem-1 pre-screen inconclusive",
    # Theorem-3 async certification (RA31x)
    "RA310": "program not certified for asynchronous execution",
    "RA311": "Theorem-3 async certificate granted",
    # incremental maintainability under graph deltas (RA32x)
    "RA320": "incrementally maintainable (inserts and deletions)",
    "RA321": "insert-only incremental maintenance; deletions recompute",
    "RA322": "not incrementally maintainable",
    # sparse-frontier scheduling applicability (RA33x)
    "RA330": "sparse frontier: bucketed delta-stepping applicable",
    "RA331": "sparse frontier: compaction only, delta-stepping inapplicable",
    # semiring classification (RA34x)
    "RA340": "semiring classified",
    "RA341": "aggregate is not the ⊕ of any semiring",
    "RA342": "F' not certified against the aggregate's semiring ⊗",
    # abstract interpretation: value range / overflow (RA35x)
    "RA350": "value range statically bounded, float64-exact",
    "RA351": "overflow or precision loss possible",
    "RA352": "range analysis inconclusive",
    # sharding / communication shape (RA4xx)
    "RA401": "communication shape",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, a severity, a message, maybe a span."""

    code: str
    severity: Severity
    message: str
    line: Optional[int] = None
    column: Optional[int] = None
    hint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def title(self) -> str:
        return CODES[self.code]

    def render(self) -> str:
        location = ""
        if self.line is not None:
            location = f":{self.line}"
            if self.column is not None:
                location += f":{self.column}"
        text = f"{self.severity.value}[{self.code}]{location}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "title": self.title,
            "message": self.message,
            "line": self.line,
            "column": self.column,
            "hint": self.hint,
        }


def error(code: str, message: str, **kwargs: Any) -> Diagnostic:
    return Diagnostic(code, Severity.ERROR, message, **kwargs)


def warning(code: str, message: str, **kwargs: Any) -> Diagnostic:
    return Diagnostic(code, Severity.WARNING, message, **kwargs)


def info(code: str, message: str, **kwargs: Any) -> Diagnostic:
    return Diagnostic(code, Severity.INFO, message, **kwargs)


def _sort_key(diagnostic: Diagnostic) -> tuple[int, int, int, str]:
    return (
        diagnostic.severity.rank,
        diagnostic.line if diagnostic.line is not None else 10**9,
        diagnostic.column if diagnostic.column is not None else 10**9,
        diagnostic.code,
    )


@dataclass
class AnalysisReport:
    """Everything the analyzer found out about one program."""

    program: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Theorem-1 pre-screen section (``None`` before the pass ran)
    theorem1: Optional[dict[str, Any]] = None
    #: Theorem-3 async-eligibility section
    theorem3: Optional[dict[str, Any]] = None
    #: incremental-maintainability section (RA32x verdict)
    incremental: Optional[dict[str, Any]] = None
    #: sparse-frontier scheduling section (RA33x verdict)
    frontier: Optional[dict[str, Any]] = None
    #: semiring classification section (RA34x verdict)
    semiring: Optional[dict[str, Any]] = None
    #: abstract-interpretation value-range section (RA35x verdict)
    ranges: Optional[dict[str, Any]] = None
    #: static cost estimate (supersteps, work, frontier, backend)
    cost: Optional[dict[str, Any]] = None
    #: per-recursive-body communication-shape section
    communication: list[dict[str, Any]] = field(default_factory=list)
    #: predicate strata, bottom-up (EDB first), from the dependency graph
    strata: list[list[str]] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def finish(self) -> "AnalysisReport":
        """Sort diagnostics into the stable presentation order."""
        self.diagnostics.sort(key=_sort_key)
        return self

    # -- verdicts ---------------------------------------------------------
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors()

    def exit_code(self, gate: str = "none") -> int:
        """0/1 verdict for the CLI.

        ``gate='async'`` additionally fails programs whose Theorem-3
        certificate was refused (code RA310), so CI can require async
        eligibility where a deployment depends on it.  ``gate='overflow'``
        fails programs with a proven overflow / precision-loss risk
        (code RA351) so CI can require a float64-exactness certificate.
        """
        if self.errors():
            return 1
        if gate == "async" and any(d.code == "RA310" for d in self.diagnostics):
            return 1
        if gate == "overflow" and any(d.code == "RA351" for d in self.diagnostics):
            return 1
        return 0

    # -- renderers --------------------------------------------------------
    def render_text(self) -> str:
        lines = [f"== {self.program} =="]
        for diagnostic in self.diagnostics:
            lines.append(diagnostic.render())
        if self.theorem1 is not None:
            verdict = "eligible" if self.theorem1.get("eligible") else "inconclusive"
            pattern = self.theorem1.get("pattern")
            suffix = f" via {pattern}" if pattern else ""
            lines.append(f"theorem-1 pre-screen: {verdict}{suffix}")
        if self.theorem3 is not None:
            verdict = "certified" if self.theorem3.get("eligible") else "refused"
            method = self.theorem3.get("method")
            suffix = f" ({method})" if method else ""
            lines.append(f"theorem-3 async: {verdict}{suffix}")
        if self.incremental is not None:
            lines.append(
                f"incremental maintenance: {self.incremental.get('mode')} "
                f"({self.incremental.get('code')})"
            )
        if self.frontier is not None:
            lines.append(
                f"sparse frontier: {self.frontier.get('mode')} "
                f"({self.frontier.get('code')})"
            )
        if self.semiring is not None:
            name = self.semiring.get("semiring") or "none"
            lines.append(
                f"semiring: {name} "
                f"[{self.semiring.get('laws')}] ({self.semiring.get('code')})"
            )
        if self.ranges is not None:
            if self.ranges.get("bounded"):
                lo, hi = self.ranges.get("bound", (0.0, 0.0))
                bound = f"[{lo:g}, {hi:g}]"
            else:
                bound = "unbounded"
            lines.append(
                f"value range: {bound} via {self.ranges.get('method')} "
                f"({self.ranges.get('code')})"
            )
        if self.cost is not None:
            lines.append(
                f"static cost: {self.cost.get('supersteps')} supersteps, "
                f"{self.cost.get('work')} work, peak frontier "
                f"{self.cost.get('peak_frontier_fraction'):.3f} "
                f"-> backend {self.cost.get('recommended_backend')}"
            )
        for entry in self.communication:
            shape = "co-partitioned" if entry.get("co_partitionable") else "cross-worker"
            lines.append(
                f"communication body[{entry.get('body')}]: {shape}, "
                f"estimated cross fraction {entry.get('estimated_cross_fraction'):.3f} "
                f"at {entry.get('workers')} workers"
            )
        errors, warnings_ = len(self.errors()), len(self.warnings())
        lines.append(f"{errors} error(s), {warnings_} warning(s)")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "program": self.program,
            "ok": self.ok,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "theorem1": self.theorem1,
            "theorem3": self.theorem3,
            "incremental": self.incremental,
            "frontier": self.frontier,
            "semiring": self.semiring,
            "ranges": self.ranges,
            "cost": self.cost,
            "communication": self.communication,
            "strata": self.strata,
        }
