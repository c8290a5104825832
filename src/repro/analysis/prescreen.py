"""Theorem-1 structural pre-screen: RA301/RA302.

Certain ``F'`` shapes are *trivially* MRA-eligible -- the pre-screen
recognises them by pure syntactic pattern matching, so the condition
checker only runs the expensive machinery (rational canonical forms,
interval-based monotonicity, and on failure the 500/800-trial refuter)
on the residue.

In semiring terms the patterns discharge the ``⊗``-side obligations of
Theorem 1: Property 1 is the declaration that ``G`` folds a semiring
``⊕`` (commutative + associative), and Property 2 asks that ``F'`` acts
like multiplication by an ``x``-free element of a ``⊗`` that is
monotone over the semiring's natural order.  A shift ``x + e`` is the
tropical/arctic ``⊗``; a scale ``c * x`` is the counting/Viterbi ``⊗``;
the identity body is multiplication by ``1̄``.

The patterns, per aggregate kind:

* selective ``G`` (min/max/or/topk -- idempotent ``⊕`` over a natural
  order) -- Property 2 needs ``F'`` monotone non-decreasing in the
  recursion variable ``x``:

  - ``identity``      ``F' = x``                         (e.g. CC)
  - ``shift``         ``F' = x + e``, ``e`` x-free       (e.g. SSSP)
  - ``scale-nonneg``  ``F' = c1*...*ck*x / d1.../dm`` with each ``ci``
    syntactically non-negative and each ``di`` syntactically positive
    (a literal constant, or a variable whose ``assume`` domain proves
    the sign)                                            (e.g. Viterbi)

* additive ``G`` (sum/count -- invertible ``⊕``) -- Property 2 needs
  ``F'`` linear and homogeneous in ``x`` (``f(x+y) = f(x)+f(y)``):

  - ``identity``
  - ``linear-homogeneous``  a ``Mul``/``Div``/``Neg`` chain in which
    ``x`` occurs exactly once, as a bare numerator factor, and every
    other factor is x-free and call-free  (e.g. PageRank's
    ``0.85 * rx / deg``)

**Soundness argument** (regression-tested against the checker on every
registry program): each pattern is a strict syntactic subset of a class
the structural prover proves.  ``identity``/``shift``/``scale-nonneg``
satisfy :func:`repro.expr.is_monotone_nondecreasing` by construction
(the prover's own interval lookup sees exactly the constants and
``assume`` domains the pattern checked); ``identity``/
``linear-homogeneous`` produce a rational form ``a(params) * x`` with
zero constant part, which :func:`repro.expr.is_linear_homogeneous`
accepts (call-freeness guarantees the canonicalisation cannot raise).
Property 1 is required via the same predefined-operator metadata the
prover uses.  Hence ``eligible`` here implies ``mra_satisfiable`` from
:mod:`repro.checker` -- the pre-screen can never whitelist a program the
checker would refute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, TYPE_CHECKING

from repro.aggregates import Aggregate, AggregateKind
from repro.expr import Expr, Interval
from repro.expr.terms import Add, Const, Div, Mul, Neg, Sub, Var

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datalog.analyzer import ProgramAnalysis


@dataclass(frozen=True)
class PreScreenVerdict:
    """Outcome of the Theorem-1 pre-screen for one program."""

    eligible: bool
    #: human-readable pattern summary, e.g. ``"shift"`` or
    #: ``"identity+scale-nonneg"``; ``None`` when inconclusive
    pattern: Optional[str]
    #: per-recursive-body pattern (``None`` where no pattern matched)
    patterns: tuple[Optional[str], ...]
    aggregate: str
    detail: str

    def to_dict(self) -> dict:
        return {
            "eligible": self.eligible,
            "pattern": self.pattern,
            "patterns": list(self.patterns),
            "aggregate": self.aggregate,
            "detail": self.detail,
        }


def _const_sign(
    expr: Expr, domains: Mapping[str, Interval], *, strict: bool
) -> bool:
    """Syntactic non-negativity (or positivity when ``strict``) of a factor.

    Only literal constants and ``assume``-constrained variables qualify;
    anything compound falls through to the full prover.
    """
    if isinstance(expr, Const):
        value = float(expr.value)
        return value > 0 if strict else value >= 0
    if isinstance(expr, Var):
        domain = domains.get(expr.name)
        if domain is None:
            return False
        from repro.expr.analysis import Sign

        if strict:
            return domain.sign() is Sign.POSITIVE
        return domain.is_nonnegative()
    return False


def _scale_factors(
    expr: Expr, var: str
) -> Optional[list[tuple[str, Expr]]]:
    """Decompose ``expr`` as a ``Mul``/``Div``/``Neg`` chain around ``var``.

    Returns ``[("mul"|"div"|"neg", factor), ...]`` when ``expr`` equals
    the product of those factors applied to a single bare occurrence of
    ``var`` in numerator position; ``None`` otherwise.
    """
    if isinstance(expr, Var) and expr.name == var:
        return []
    if isinstance(expr, Neg):
        inner = _scale_factors(expr.operand, var)
        if inner is None:
            return None
        return inner + [("neg", Const(-1))]
    if isinstance(expr, Mul):
        left_has = var in expr.left.free_vars()
        right_has = var in expr.right.free_vars()
        if left_has == right_has:  # both (non-linear) or neither (no var)
            return None
        carrier, other = (
            (expr.left, expr.right) if left_has else (expr.right, expr.left)
        )
        inner = _scale_factors(carrier, var)
        if inner is None:
            return None
        return inner + [("mul", other)]
    if isinstance(expr, Div):
        if var in expr.right.free_vars():
            return None
        inner = _scale_factors(expr.left, var)
        if inner is None:
            return None
        return inner + [("div", expr.right)]
    return None


def _is_shift(expr: Expr, var: str, sign: int = +1) -> bool:
    """Match ``expr == var + e`` (Add/Sub/Neg chain, ``e`` x-free)."""
    if isinstance(expr, Var) and expr.name == var:
        return sign > 0
    if isinstance(expr, Add):
        left_has = var in expr.left.free_vars()
        right_has = var in expr.right.free_vars()
        if left_has and right_has:
            return False
        carrier = expr.left if left_has else expr.right
        return _is_shift(carrier, var, sign)
    if isinstance(expr, Sub):
        left_has = var in expr.left.free_vars()
        right_has = var in expr.right.free_vars()
        if left_has and right_has:
            return False
        if left_has:
            return _is_shift(expr.left, var, sign)
        return _is_shift(expr.right, var, -sign)
    if isinstance(expr, Neg):
        return _is_shift(expr.operand, var, -sign)
    return False


def match_pattern(
    aggregate: Aggregate,
    fprime: Expr,
    var: str,
    domains: Mapping[str, Interval],
) -> Optional[str]:
    """Name of the matched trivially-eligible pattern, or ``None``."""
    if var not in fprime.free_vars():
        return None
    if isinstance(fprime, Var) and fprime.name == var:
        return "identity"
    if aggregate.kind is AggregateKind.SELECTIVE:
        if _is_shift(fprime, var):
            return "shift"
        factors = _scale_factors(fprime, var)
        if factors is not None and not fprime.contains_call():
            ok = all(
                _const_sign(factor, domains, strict=(role == "div"))
                for role, factor in factors
                if role != "neg"
            ) and not any(role == "neg" for role, _ in factors)
            if ok:
                return "scale-nonneg"
        return None
    if aggregate.kind is AggregateKind.ADDITIVE:
        factors = _scale_factors(fprime, var)
        if factors is not None and not fprime.contains_call():
            return "linear-homogeneous"
        return None
    return None


def prescreen(analysis: "ProgramAnalysis") -> PreScreenVerdict:
    """Run the Theorem-1 pre-screen on an analysed program.

    ``eligible=True`` means: Property 1 holds by predefined-operator
    metadata AND every recursive body's ``F'`` matches a trivially
    eligible pattern.  The checker may then skip the prover/refuter.
    """
    aggregate = analysis.aggregate
    if not (aggregate.is_commutative and aggregate.is_associative):
        return PreScreenVerdict(
            eligible=False,
            pattern=None,
            patterns=tuple(None for _ in analysis.recursions),
            aggregate=aggregate.name,
            detail=(
                f"aggregate {aggregate.name!r} is not a predefined "
                "commutative-associative operator (Property 1 fails)"
            ),
        )
    patterns = tuple(
        match_pattern(
            aggregate, spec.fprime, spec.recursion_var, analysis.domains
        )
        for spec in analysis.recursions
    )
    if all(pattern is not None for pattern in patterns):
        unique: list[str] = []
        for pattern in patterns:
            if pattern not in unique:
                unique.append(pattern)  # type: ignore[arg-type]
        summary = "+".join(unique)
        return PreScreenVerdict(
            eligible=True,
            pattern=summary,
            patterns=patterns,
            aggregate=aggregate.name,
            detail=(
                f"every recursive body matches a trivially eligible shape "
                f"({summary}) for {aggregate.kind.value} aggregate "
                f"{aggregate.name!r}"
            ),
        )
    return PreScreenVerdict(
        eligible=False,
        pattern=None,
        patterns=patterns,
        aggregate=aggregate.name,
        detail=(
            "no trivially eligible shape for at least one recursive body; "
            "deferring to the full condition checker"
        ),
    )
