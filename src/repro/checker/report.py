"""Verdicts and reports produced by the condition checker."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Status(enum.Enum):
    """Outcome of a single property check.

    ``PROVED`` corresponds to Z3 answering ``unsat`` for the negated
    property (the property always holds); ``REFUTED`` to ``sat`` with a
    model (we additionally report the concrete counterexample);
    ``UNKNOWN`` to the solver giving up -- random testing found no
    counterexample but no structural proof exists either.
    """

    PROVED = "proved"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class PropertyResult:
    """Result of checking one MRA property."""

    property_name: str
    status: Status
    #: how the verdict was reached ("structural:linear-homogeneous",
    #: "structural:monotone", "refuter:directed", "refuter:random", ...)
    method: str
    detail: str = ""
    counterexample: Optional[dict] = None

    @property
    def holds(self) -> bool:
        return self.status is Status.PROVED


@dataclass(frozen=True)
class CheckReport:
    """Full MRA-condition report for one program (one Table-1 row)."""

    program_name: str
    aggregate_name: str
    fprime_repr: str
    recursion_var: str
    property1: PropertyResult
    property2: PropertyResult
    #: the analyzer always separates the constant part C syntactically;
    #: this records that the decomposition G∘F(X) = G(F'(X) ∪ C) exists.
    decomposable: bool = True

    @property
    def mra_satisfiable(self) -> bool:
        """Can the program be executed with MRA evaluation (Theorem 1)?"""
        return (
            self.decomposable and self.property1.holds and self.property2.holds
        )

    def summary(self) -> str:
        verdict = "yes" if self.mra_satisfiable else "no"
        return (
            f"{self.program_name}: MRA sat. = {verdict} "
            f"(aggregate={self.aggregate_name}, "
            f"P1={self.property1.status.value}, "
            f"P2={self.property2.status.value} via {self.property2.method})"
        )
