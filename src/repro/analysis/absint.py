"""Abstract interpretation over compiled plans: RA35x + static cost.

This pass runs two abstract domains over the plan IR *before* any engine
executes it:

* an **interval/magnitude domain** over the program's semiring carrier:
  every key is mapped to an interval covering every value the key can
  ever hold during evaluation (including transient pre-fixpoint states
  of the async engines).  Numeric carriers track the value itself;
  non-numeric carriers (the k-tropical :class:`KTuple`) track
  ``value_magnitude`` instead, so the certificate bounds ``|x|``.

* a **cardinality / frontier-density domain** parameterised by graph
  summary statistics (``n``, ``m``, degree histogram, weight range,
  BFS level widths): a static prediction of supersteps, total work and
  peak frontier fraction -- the ``cost`` section of ``repro lint`` and
  the pricing signal of the serving layer.

The evaluator is widening-based: acyclic plans are solved exactly in
one topological pass; cyclic selective plans run a bounded per-key
Kleene iteration and, where that cannot stabilise, widen to a
closed-form threshold (simple-path bound for shifts, seeded-magnitude
cap for contractive scalings); cyclic additive plans widen directly to
a ``min(ρ_∞, ρ_1)`` norm bound over per-edge slopes.  The additive
model matches the engines' *accumulate* semantics: the iteration index
of ``p(X, i+1)`` programs is stripped before evaluation
(:func:`repro.engine.rules._strip_iteration`), so the concrete value is
the Neumann-style sum of propagated deltas ``Σ_k F^k(x⁰ ⊕ c)``, never a
per-round replacement.  Soundness arguments are recorded on the
verdict.  See DESIGN.md "Abstract interpretation".

Verdict codes (stable, append-only):

* ``RA350`` -- value range statically bounded and below ``2**53``, so
  float64 kernel arithmetic is exact for integral carriers and the
  silent ``OverflowError -> inf`` saturation path can never fire;
* ``RA351`` -- overflow or precision loss possible (proven growth with
  no epsilon termination, or a finite bound at or above ``2**53``);
* ``RA352`` -- range analysis inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.aggregates import AggregateKind
from repro.analysis.diagnostics import Diagnostic, info, warning
from repro.analysis.prescreen import match_pattern
from repro.expr.analysis import Interval, interval_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datalog.analyzer import ProgramAnalysis
    from repro.engine.plan import CompiledPlan

#: float64 holds every integer below this exactly (53-bit mantissa).
FLOAT64_EXACT_LIMIT = 2.0**53

#: relative outward inflation applied to the final hull, guarding the
#: certificate against summation-order float differences across backends
OUTWARD_SLACK = 1e-9


def _hull(a: Optional[Interval], b: Optional[Interval]) -> Optional[Interval]:
    if a is None:
        return b
    if b is None:
        return a
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi))


def _outward(interval: Interval) -> Interval:
    """Widen a finite hull outward by ``OUTWARD_SLACK`` (relative)."""
    lo, hi = interval.lo, interval.hi
    if math.isfinite(lo):
        lo = math.nextafter(lo - abs(lo) * OUTWARD_SLACK, -math.inf)
    if math.isfinite(hi):
        hi = math.nextafter(hi + abs(hi) * OUTWARD_SLACK, math.inf)
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# graph summary (the cardinality domain's parameters)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphSummary:
    """Summary statistics of one compiled plan's dependency graph."""

    num_keys: int
    num_edges: int
    max_in_degree: int
    max_out_degree: int
    #: log2-bucketed out-degree histogram, e.g. ``{"1": 30, "2-3": 12}``
    degree_histogram: dict[str, int]
    #: hull over every per-edge parameter value (the "weight range")
    weight_lo: float
    weight_hi: float
    acyclic: bool
    #: BFS levels from the seeded keys (X⁰ ∪ C): level widths in order
    levels: tuple[int, ...]
    #: keys reachable from the seeded keys (= sum of level widths)
    reached: int

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def peak_frontier_fraction(self) -> float:
        if not self.levels or not self.num_keys:
            return 0.0
        return max(self.levels) / self.num_keys

    def to_dict(self) -> dict[str, Any]:
        return {
            "keys": self.num_keys,
            "edges": self.num_edges,
            "max_in_degree": self.max_in_degree,
            "max_out_degree": self.max_out_degree,
            "degree_histogram": self.degree_histogram,
            "weight_range": [self.weight_lo, self.weight_hi],
            "acyclic": self.acyclic,
            "bfs_depth": self.depth,
            "peak_frontier_fraction": self.peak_frontier_fraction,
        }


def _degree_bucket(degree: int) -> str:
    if degree <= 1:
        return str(degree)
    low = 1 << (degree.bit_length() - 1)
    high = (low << 1) - 1
    return f"{low}-{high}"


def summarize_plan(plan: "CompiledPlan") -> GraphSummary:
    """Compute the graph summary the cost/frontier domain runs on."""
    out_degree: dict = {key: 0 for key in plan.keys}
    in_degree: dict = {key: 0 for key in plan.keys}
    weight_lo, weight_hi = math.inf, -math.inf
    for src, edges in plan.out_edges.items():
        out_degree[src] = len(edges)
        for dst, params, _fn in edges:
            in_degree[dst] = in_degree.get(dst, 0) + 1
            for value in params:
                try:
                    value = float(value)
                except (TypeError, ValueError):
                    continue
                weight_lo = min(weight_lo, value)
                weight_hi = max(weight_hi, value)
    if weight_lo > weight_hi:
        weight_lo = weight_hi = 0.0

    histogram: dict[str, int] = {}
    for degree in out_degree.values():
        bucket = _degree_bucket(degree)
        histogram[bucket] = histogram.get(bucket, 0) + 1

    # Kahn's algorithm for acyclicity over the whole dependency graph.
    pending = dict(in_degree)
    queue = sorted((key for key, deg in pending.items() if deg == 0), key=repr)
    removed = 0
    while queue:
        key = queue.pop()
        removed += 1
        for dst, _params, _fn in plan.out_edges.get(key, ()):
            pending[dst] -= 1
            if pending[dst] == 0:
                queue.append(dst)
    acyclic = removed == len(pending)

    # BFS level decomposition from the seeded keys.
    frontier = sorted(set(plan.initial) | set(plan.constants), key=repr)
    seen = set(frontier)
    levels: list[int] = []
    while frontier:
        levels.append(len(frontier))
        nxt = []
        for key in frontier:
            for dst, _params, _fn in plan.out_edges.get(key, ()):
                if dst not in seen:
                    seen.add(dst)
                    nxt.append(dst)
        frontier = nxt

    return GraphSummary(
        num_keys=len(plan.keys),
        num_edges=plan.num_edges,
        max_in_degree=max(in_degree.values(), default=0),
        max_out_degree=max(out_degree.values(), default=0),
        degree_histogram=dict(sorted(histogram.items())),
        weight_lo=weight_lo,
        weight_hi=weight_hi,
        acyclic=acyclic,
        levels=tuple(levels),
        reached=len(seen),
    )


# ---------------------------------------------------------------------------
# the interval/magnitude domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RangeVerdict:
    """Outcome of the value-range pass: an RA35x code plus the bound."""

    #: ``"RA350"`` | ``"RA351"`` | ``"RA352"``
    code: str
    lo: float
    hi: float
    #: largest magnitude the carrier can reach (``max(|lo|, |hi|)``)
    magnitude: float
    #: the bound stays below ``2**53``: float64 integer arithmetic exact
    float64_exact: bool
    #: ``"topological"`` | ``"kleene"`` | ``"widening"`` | ``"symbolic"``
    method: str
    #: True when the domain tracked ``value_magnitude`` (non-numeric carrier)
    magnitude_only: bool
    iterations: int
    detail: str

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.magnitude)

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "bound": [self.lo, self.hi],
            "magnitude": self.magnitude,
            "bounded": self.bounded,
            "float64_exact": self.float64_exact,
            "method": self.method,
            "magnitude_only": self.magnitude_only,
            "iterations": self.iterations,
            "detail": self.detail,
        }

    def diagnostic(self) -> Diagnostic:
        if self.code == "RA350":
            return info(
                "RA350",
                f"value range statically bounded to [{self.lo:g}, {self.hi:g}] "
                f"via {self.method}; float64-exact ({self.detail})",
            )
        if self.code == "RA351":
            return warning(
                "RA351",
                f"overflow or precision loss possible: {self.detail} "
                f"(bound [{self.lo:g}, {self.hi:g}], method {self.method})",
            )
        return info("RA352", f"range analysis inconclusive: {self.detail}")


def _classify(
    hull: Optional[Interval],
    *,
    method: str,
    iterations: int,
    magnitude_only: bool,
    detail: str,
    epsilon_terminated: bool,
    growth_proven: bool = False,
) -> RangeVerdict:
    """Map a final hull onto the stable RA35x codes."""
    if hull is None:
        hull = Interval.point(0.0)
    hull = _outward(hull)
    magnitude = max(abs(hull.lo), abs(hull.hi))
    if math.isfinite(magnitude):
        if magnitude < FLOAT64_EXACT_LIMIT:
            return RangeVerdict(
                code="RA350",
                lo=hull.lo,
                hi=hull.hi,
                magnitude=magnitude,
                float64_exact=True,
                method=method,
                magnitude_only=magnitude_only,
                iterations=iterations,
                detail=detail,
            )
        return RangeVerdict(
            code="RA351",
            lo=hull.lo,
            hi=hull.hi,
            magnitude=magnitude,
            float64_exact=False,
            method=method,
            magnitude_only=magnitude_only,
            iterations=iterations,
            detail=f"bound reaches 2**53 ({detail})",
        )
    code = "RA351" if growth_proven and not epsilon_terminated else "RA352"
    if code == "RA352" and epsilon_terminated:
        detail = f"{detail}; epsilon termination bounds the run, not the values"
    return RangeVerdict(
        code=code,
        lo=hull.lo,
        hi=hull.hi,
        magnitude=magnitude,
        float64_exact=False,
        method=method,
        magnitude_only=magnitude_only,
        iterations=iterations,
        detail=detail,
    )


class _EdgeTransfer:
    """One plan edge's abstract transfer function on intervals.

    ``kind`` is the pre-screen pattern of the edge's recursive body:
    ``identity`` passes the interval through, ``shift`` adds the
    edge-constant ``F'(0, params)``, ``scale`` multiplies by
    ``F'(1, params)``; anything else re-evaluates ``F'`` through
    :func:`repro.expr.analysis.interval_of` with the edge's concrete
    parameters (``opaque``), which handles the call primitives
    (``tanh``, ``relu``, ...).
    """

    __slots__ = ("src", "dst", "kind", "scalar", "fprime", "var", "params")

    def __init__(self, src, dst, kind: str, scalar: float, fprime, var, params):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.scalar = scalar
        self.fprime = fprime
        self.var = var
        self.params = params

    def apply(self, iv: Interval, *, magnitude_only: bool) -> Interval:
        if self.kind == "identity":
            return iv
        if self.kind == "shift":
            if magnitude_only:
                # |x ⊗ w| <= |x| + |w| on the k-tropical carrier
                hi = iv.hi + abs(self.scalar)
                return Interval(0.0, max(0.0, hi))
            return iv + Interval.point(self.scalar)
        if self.kind == "scale":
            return iv * Interval.point(self.scalar)
        if magnitude_only:
            return Interval(0.0, math.inf)
        domains = {self.var: iv}
        for name, value in self.params:
            domains[name] = Interval.point(value)
        try:
            return interval_of(self.fprime, domains)
        except (KeyError, TypeError, ZeroDivisionError, ValueError, OverflowError):
            return Interval.unbounded()


def _float_image(value: Any, semiring, magnitude_only: bool) -> Optional[float]:
    """Map a carrier value onto the tracked float (value or magnitude)."""
    try:
        if magnitude_only:
            if semiring is None:
                return None
            return float(semiring.value_magnitude(value))
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return None


def _edge_scalar(fn: Callable, probe: float, params: tuple) -> Optional[float]:
    try:
        return float(fn(probe, *params))
    except Exception:
        return None


def _build_transfers(
    plan: "CompiledPlan", patterns: tuple[Optional[str], ...]
) -> Optional[list[_EdgeTransfer]]:
    """Lower every plan edge to an :class:`_EdgeTransfer`.

    Returns ``None`` when an edge's scalar probe fails (non-float
    parameters with an opaque body we cannot interval-evaluate).
    """
    analysis = plan.analysis
    by_fn = {}
    for index, fn in enumerate(plan.fprime_fns):
        spec = analysis.recursions[index]
        by_fn[id(fn)] = (patterns[index], spec)
    transfers: list[_EdgeTransfer] = []
    for src, edges in plan.out_edges.items():
        for dst, params, fn in edges:
            pattern, spec = by_fn[id(fn)]
            kind, scalar = "opaque", 0.0
            if pattern == "identity":
                kind = "identity"
            elif pattern == "shift":
                value = _edge_scalar(fn, 0.0, params)
                if value is None:
                    return None
                kind, scalar = "shift", value
            elif pattern in ("scale-nonneg", "linear-homogeneous"):
                value = _edge_scalar(fn, 1.0, params)
                if value is None:
                    return None
                kind, scalar = "scale", value
            named_params = tuple(
                (name, float(value))
                for name, value in zip(spec.fprime_params, params)
                if isinstance(value, (int, float))
            )
            transfers.append(
                _EdgeTransfer(
                    src, dst, kind, scalar, spec.fprime,
                    spec.recursion_var, named_params,
                )
            )
    return transfers


def _base_hulls(
    plan: "CompiledPlan", semiring, magnitude_only: bool, *, additive: bool
) -> tuple[Optional[dict], Optional[dict]]:
    """Per-key seed hulls of ``X⁰ ⊕ C`` and of ``C`` alone.

    The seed combines a key's initial value and constant by the
    aggregate's own ``⊕``: interval *addition* for additive folds (the
    engines accumulate both into one MonoTable slot) and interval hull
    for selective folds (the fold keeps one of them).  Returns ``(None,
    None)`` when a value is outside the tracked carrier.
    """
    initial: dict = {}
    consts: dict = {}
    for source, sink in ((plan.initial, initial), (plan.constants, consts)):
        for key, value in source.items():
            image = _float_image(value, semiring, magnitude_only)
            if image is None:
                return None, None
            sink[key] = Interval.point(image)
    base = dict(initial)
    for key, iv in consts.items():
        if additive and key in base:
            base[key] = base[key] + iv
        else:
            base[key] = _hull(base.get(key), iv)
    return base, consts


def _topological_pass(
    plan: "CompiledPlan",
    transfers: list[_EdgeTransfer],
    base: dict,
    *,
    additive: bool,
    magnitude_only: bool,
) -> Optional[dict]:
    """Exact per-key solve of an acyclic plan (one pass in topo order).

    On a DAG the accumulate fixpoint ``x = x⁰ ⊕ c ⊕ F(x)`` resolves in
    one pass: each key's final value is its seed combined with the
    transfers of its (already-final) predecessors.  Additive
    contributions are summed with ``0`` joined into each edge hull (a
    concretely-unreached edge contributes nothing); selective
    contributions join into the hull.
    """
    in_edges: dict = {}
    in_degree: dict = {key: 0 for key in plan.keys}
    for transfer in transfers:
        in_edges.setdefault(transfer.dst, []).append(transfer)
        in_degree[transfer.dst] += 1
    queue = sorted((k for k, deg in in_degree.items() if deg == 0), key=repr)
    vals: dict = dict(base)
    order = 0
    while queue:
        key = queue.pop()
        order += 1
        current = vals.get(key)
        contribs = [
            t.apply(vals[t.src], magnitude_only=magnitude_only)
            for t in in_edges.get(key, ())
            if t.src in vals
        ]
        if contribs:
            if additive:
                lo = sum(min(c.lo, 0.0) for c in contribs)
                hi = sum(max(c.hi, 0.0) for c in contribs)
                acc = Interval(lo, hi)
                start = current if current is not None else Interval.point(0.0)
                vals[key] = start + acc
            else:
                for contrib in contribs:
                    current = _hull(current, contrib)
                vals[key] = current
        for transfer in plan.out_edges.get(key, ()):
            dst = transfer[0]
            in_degree[dst] -= 1
            if in_degree[dst] == 0:
                queue.append(dst)
    if order != len(in_degree):
        return None  # cycle slipped through; caller falls back
    return vals


def _kleene_round(
    vals: dict,
    in_edges: dict,
    base: dict,
    keys,
    *,
    magnitude_only: bool,
) -> tuple[dict, bool]:
    """One joint application of the *selective* abstract transfer.

    A selective fold stores one contribution per key, so the abstract
    update is the hull-join of the seed with every in-edge image;
    reaching a round with no hull growth is a genuine post-fixpoint.
    (Additive folds never take this path: their accumulate semantics is
    handled by the closed-form norm bound instead.)
    """
    new_vals = dict(vals)
    changed = False
    for key in keys:
        candidate = base.get(key)
        for t in in_edges.get(key, ()):
            if t.src in vals:
                candidate = _hull(
                    candidate, t.apply(vals[t.src], magnitude_only=magnitude_only)
                )
        if candidate is None:
            continue
        merged = _hull(new_vals.get(key), candidate)
        if merged != new_vals.get(key):
            new_vals[key] = merged
            changed = True
    return new_vals, not changed


def _lipschitz_pair(
    expr, var: str, params: dict,
) -> Optional[tuple[float, float]]:
    """Bound ``|expr(v)| <= A·|v| + B`` structurally; returns ``(A, B)``.

    Sound for every real ``v``: constants and parameters contribute
    offsets, the recursion variable contributes slope, the 1-Lipschitz
    zero-fixing primitives (``relu``, ``tanh``, ``abs``) pass the pair
    through, ``sigmoid`` is globally bounded by one.  Products are only
    admitted when at most one factor carries slope (no ``v²`` terms);
    anything else returns ``None``.
    """
    from repro.expr.terms import Add, Call, Const, Div, Mul, Neg, Sub, Var

    if isinstance(expr, Const):
        return 0.0, abs(float(expr.value))
    if isinstance(expr, Var):
        if expr.name == var:
            return 1.0, 0.0
        if expr.name in params:
            return 0.0, abs(params[expr.name])
        return None
    if isinstance(expr, Neg):
        return _lipschitz_pair(expr.operand, var, params)
    if isinstance(expr, (Add, Sub)):
        left = _lipschitz_pair(expr.left, var, params)
        right = _lipschitz_pair(expr.right, var, params)
        if left is None or right is None:
            return None
        return left[0] + right[0], left[1] + right[1]
    if isinstance(expr, Mul):
        left = _lipschitz_pair(expr.left, var, params)
        right = _lipschitz_pair(expr.right, var, params)
        if left is None or right is None:
            return None
        if left[0] == 0.0:
            return right[0] * left[1], right[1] * left[1]
        if right[0] == 0.0:
            return left[0] * right[1], left[1] * right[1]
        return None  # bilinear in the recursion variable
    if isinstance(expr, Div):
        left = _lipschitz_pair(expr.left, var, params)
        if left is None:
            return None
        point_domains = {name: Interval.point(v) for name, v in params.items()}
        try:
            denom = interval_of(expr.right, point_domains)
        except (KeyError, TypeError, ZeroDivisionError, ValueError, OverflowError):
            return None
        if denom.lo <= 0.0 <= denom.hi:
            return None
        scale = 1.0 / min(abs(denom.lo), abs(denom.hi))
        return left[0] * scale, left[1] * scale
    if isinstance(expr, Call):
        inner = _lipschitz_pair(expr.args[0], var, params)
        if expr.func in ("relu", "tanh", "abs"):
            return inner  # 1-Lipschitz and f(0) = 0
        if expr.func == "sigmoid":
            return 0.0, 1.0
        return None
    return None


def _edge_slopes(
    transfers: list[_EdgeTransfer],
) -> Optional[list[tuple["_EdgeTransfer", float]]]:
    """Per-edge slope bounds ``|fn(v)| <= slope·|v|`` for additive plans.

    Identity and scale edges carry their exact coefficient; opaque
    bodies are admitted only with a zero-offset Lipschitz bound
    (``fn(0) = 0``, e.g. ``relu(g·x)·w``), because a non-zero offset
    would re-derive itself on every propagated delta and the Neumann
    sum would not be geometric.  Returns ``None`` when any edge has no
    sound slope.
    """
    slopes: list[tuple[_EdgeTransfer, float]] = []
    for transfer in transfers:
        if transfer.kind == "identity":
            slope = 1.0
        elif transfer.kind == "scale":
            slope = abs(transfer.scalar)
        elif transfer.kind == "opaque":
            pair = _lipschitz_pair(
                transfer.fprime, transfer.var, dict(transfer.params)
            )
            if pair is None or pair[1] != 0.0:
                return None
            slope = pair[0]
        else:  # shift: adds a constant on every delta, never geometric
            return None
        slopes.append((transfer, slope))
    return slopes


def _norm_threshold(
    slopes: list[tuple[_EdgeTransfer, float]], base: dict, consts: dict
) -> Optional[tuple[float, float, str]]:
    """Widening threshold for additive recursions with per-edge slopes.

    The engines strip the iteration index, so every additive program
    runs with accumulate semantics: the final value is the Neumann-style
    delta sum ``x = Σ_k F^k(x⁰ ⊕ c)`` (seminaive/MRA) or equivalently
    the fixpoint ``x = x⁰ ⊕ c ⊕ F(x)`` (naive re-evaluation).  With
    per-edge slopes ``|fn(v)| <= s·|v|``, round deltas satisfy
    ``||d_{k+1}|| <= ρ·||d_k||`` for both the row-sum norm
    ``ρ_∞ = max_dst Σ_in s`` and the column-sum norm
    ``ρ_1 = max_src Σ_out s``; whenever either is below one, every
    per-key value -- and every prefix of the delta sum, so transient
    mid-run states too -- is bounded by ``B = ||x⁰ ⊕ c|| / (1 - ρ)`` in
    that norm.  One extra row of in-flight contributions
    (``ρ_∞·B + ||c||_∞``) is added for engines that stage a row before
    folding it.  Returns ``(lo, hi, detail)`` or ``None`` when no norm
    contracts.
    """
    row: dict = {}
    col: dict = {}
    for transfer, slope in slopes:
        row[transfer.dst] = row.get(transfer.dst, 0.0) + slope
        col[transfer.src] = col.get(transfer.src, 0.0) + slope
    rho_inf = max(row.values(), default=0.0)
    rho_1 = max(col.values(), default=0.0)

    def _norm(hulls: dict, order: str) -> float:
        magnitudes = [max(abs(iv.lo), abs(iv.hi)) for iv in hulls.values()]
        if order == "inf":
            return max(magnitudes, default=0.0)
        return sum(magnitudes)

    candidates = []
    for rho, order in ((rho_inf, "inf"), (rho_1, "1")):
        if rho >= 1.0:
            continue
        candidates.append((_norm(base, order) / (1.0 - rho), f"rho_{order}={rho:.6g}"))
    if not candidates:
        return None
    bound, which = min(candidates, key=lambda item: item[0])
    # transient partial sums of one more round of row contributions
    const_inf = _norm(consts, "inf")
    bound = bound + rho_inf * bound + const_inf
    detail = (
        f"geometric norm bound via {which}: the accumulated delta sum "
        "contracts, plus one row of transient contributions"
    )
    return -bound, bound, detail


def _selective_scale_threshold(
    transfers: list[_EdgeTransfer], base: dict
) -> Optional[tuple[float, float, str]]:
    """Widening threshold for selective scale recursions with |a| <= 1.

    A selective fold only stores single contributions, each a chain of
    per-edge scalings applied to a seeded value; when every coefficient
    has magnitude at most one, no chain can exceed the seeded magnitude
    ``M``.  The Kleene iteration cannot stabilise here (products shrink
    forever toward zero) but ``[-M, M]`` -- tightened to ``[0, M]`` for
    non-negative seeds and coefficients -- is a sound cap.
    """
    nonneg = True
    for transfer in transfers:
        if transfer.kind == "identity":
            continue
        if transfer.kind != "scale" or abs(transfer.scalar) > 1.0:
            return None
        nonneg = nonneg and transfer.scalar >= 0.0
    if not base:
        return None
    magnitude = max(max(abs(iv.lo), abs(iv.hi)) for iv in base.values())
    nonneg = nonneg and all(iv.lo >= 0.0 for iv in base.values())
    lo = 0.0 if nonneg else -magnitude
    lo = min(lo, min(iv.lo for iv in base.values()))
    detail = (
        "contraction cap: every coefficient has |a| <= 1, so no scaling "
        "chain exceeds the seeded magnitude"
    )
    return lo, magnitude, detail


def _simple_path_threshold(
    transfers: list[_EdgeTransfer],
    base: dict,
    num_keys: int,
    *,
    fold_mode: Optional[str],
    k_factor: int,
) -> Optional[tuple[float, float, str]]:
    """Widening threshold for selective shift/identity recursions.

    For an idempotent fold, a key's stored value only ever changes to an
    *improving* contribution, and a contribution propagates only after
    improving its source -- so every stored value is realised by a walk
    whose every prefix improved its endpoint.  With shift deltas that
    never improve (non-negative for ``min``-folds, non-positive for
    ``max``-folds), such walks are simple, hence at most ``num_keys``
    edges long; the k-tropical carrier allows up to ``k`` improvements
    per key (``k_factor``), scaling the walk budget.  The threshold is
    the seeded hull shifted by the longest such walk.
    """
    deltas = []
    for transfer in transfers:
        if transfer.kind == "identity":
            deltas.append(0.0)
        elif transfer.kind == "shift":
            deltas.append(transfer.scalar)
        else:
            return None
    if not base:
        return None
    lo = min(iv.lo for iv in base.values())
    hi = max(iv.hi for iv in base.values())
    walk = num_keys * k_factor
    max_delta = max(deltas, default=0.0)
    min_delta = min(deltas, default=0.0)
    if fold_mode == "min" and min_delta >= 0.0:
        return (
            lo,
            hi + walk * max_delta,
            f"simple-path bound: non-improving shifts (min delta "
            f"{min_delta:g}) cap walks at {walk} edges",
        )
    if fold_mode == "max" and max_delta <= 0.0:
        return (
            lo + walk * min_delta,
            hi,
            f"simple-path bound: non-improving shifts (max delta "
            f"{max_delta:g}) cap walks at {walk} edges",
        )
    return None


def analyze_plan_range(
    plan: "CompiledPlan", summary: Optional[GraphSummary] = None
) -> RangeVerdict:
    """Run the interval/magnitude domain over a compiled plan."""
    analysis = plan.analysis
    aggregate = analysis.aggregate
    semiring = aggregate.semiring
    magnitude_only = not aggregate.numeric_values
    epsilon_terminated = plan.termination.epsilon is not None
    if summary is None:
        summary = summarize_plan(plan)

    def inconclusive(detail: str, method: str = "none") -> RangeVerdict:
        return _classify(
            Interval.unbounded(),
            method=method,
            iterations=0,
            magnitude_only=magnitude_only,
            detail=detail,
            epsilon_terminated=epsilon_terminated,
        )

    if aggregate.kind is AggregateKind.OTHER:
        return inconclusive(
            f"aggregate {aggregate.name!r} is not a semiring ⊕; the interval "
            "domain has no sound transfer for it"
        )

    patterns = tuple(
        match_pattern(aggregate, spec.fprime, spec.recursion_var, analysis.domains)
        for spec in analysis.recursions
    )
    transfers = _build_transfers(plan, patterns)
    if transfers is None:
        return inconclusive("plan edges carry non-float parameters")
    additive = aggregate.kind is AggregateKind.ADDITIVE
    base, consts = _base_hulls(plan, semiring, magnitude_only, additive=additive)
    if base is None or consts is None:
        return inconclusive("seeded values are outside the tracked carrier")
    if magnitude_only:
        base = {k: Interval(0.0, max(0.0, iv.hi)) for k, iv in base.items()}
        consts = {k: Interval(0.0, max(0.0, iv.hi)) for k, iv in consts.items()}

    fold_mode = aggregate.fold_mode
    k_factor = 1
    if semiring is not None and semiring.name == "k-tropical":
        from repro.aggregates.semiring import KTuple

        k_factor = KTuple.k

    # -- exact: acyclic plans solve in one topological pass -----------------
    if summary.acyclic:
        vals = _topological_pass(
            plan, transfers, base,
            additive=additive, magnitude_only=magnitude_only,
        )
        if vals is not None:
            hull = None
            for iv in vals.values():
                hull = _hull(hull, iv)
            return _classify(
                hull,
                method="topological",
                iterations=1,
                magnitude_only=magnitude_only,
                detail=(
                    "acyclic dependency graph: one topological pass with "
                    "per-key intervals is exact"
                ),
                epsilon_terminated=epsilon_terminated,
            )

    in_edges: dict = {}
    for transfer in transfers:
        in_edges.setdefault(transfer.dst, []).append(transfer)
    keys = sorted(plan.keys, key=repr)

    # -- cyclic selective: bounded Kleene, widening to simple paths ---------
    if not additive:
        rounds = max(1, summary.num_keys) * k_factor
        vals = dict(base)
        stable = False
        done = 0
        for done in range(1, rounds + 1):
            vals, stable = _kleene_round(
                vals, in_edges, base, keys, magnitude_only=magnitude_only,
            )
            if stable:
                break
        hull = None
        for iv in vals.values():
            hull = _hull(hull, iv)
        if stable:
            return _classify(
                hull,
                method="kleene",
                iterations=done,
                magnitude_only=magnitude_only,
                detail="per-key Kleene iteration reached a fixpoint",
                epsilon_terminated=epsilon_terminated,
            )
        threshold = _simple_path_threshold(
            transfers, base, summary.num_keys,
            fold_mode="min" if magnitude_only else fold_mode,
            k_factor=k_factor,
        )
        if threshold is None:
            threshold = _selective_scale_threshold(transfers, base)
        if threshold is not None and hull is not None:
            lo, hi, detail = threshold
            if magnitude_only:
                lo = 0.0
            widened = Interval(min(lo, hull.lo), max(hi, hull.hi))
            return _classify(
                widened,
                method="widening",
                iterations=done,
                magnitude_only=magnitude_only,
                detail=detail,
                epsilon_terminated=epsilon_terminated,
            )
        # No cap applies.  Growth is *proven* only when the shifts always
        # improve the fold (a reachable cycle then improves forever).
        shift_deltas = [
            t.scalar for t in transfers if t.kind == "shift"
        ]
        improving = bool(shift_deltas) and all(
            t.kind in ("shift", "identity") for t in transfers
        ) and (
            (fold_mode == "min" and min(shift_deltas) < 0.0)
            or (fold_mode == "max" and max(shift_deltas) > 0.0)
        )
        return _classify(
            Interval.unbounded(),
            method="widening",
            iterations=done,
            magnitude_only=magnitude_only,
            detail=(
                "cyclic selective recursion with improving shifts: walks "
                "can improve forever"
                if improving
                else "cyclic selective recursion with no applicable cap "
                "(mixed or expanding F' shapes)"
            ),
            epsilon_terminated=epsilon_terminated,
            growth_proven=improving,
        )

    # -- cyclic additive: slope-norm widening (accumulate semantics) --------
    slopes = _edge_slopes(transfers)
    if slopes is not None:
        threshold = _norm_threshold(slopes, base, consts)
        if threshold is not None:
            lo, hi, detail = threshold
            return _classify(
                Interval(lo, hi),
                method="widening",
                iterations=0,
                magnitude_only=magnitude_only,
                detail=detail,
                epsilon_terminated=epsilon_terminated,
            )
    # No contracting norm.  Growth is *proven* only for exact linear
    # transfers with every coefficient >= 1 over non-negative seeds:
    # re-derived deltas then never shrink and any reachable cycle keeps
    # accumulating (Lipschitz slopes are upper bounds, so they prove
    # nothing about growth).
    exact_linear = all(t.kind in ("identity", "scale") for t in transfers)
    coeffs = [
        1.0 if t.kind == "identity" else t.scalar for t in transfers
    ]
    growth = (
        exact_linear
        and bool(coeffs)
        and min(coeffs) >= 1.0
        and all(iv.lo >= 0.0 for iv in base.values())
        and any(iv.hi > 0.0 for iv in base.values())
    )
    return _classify(
        Interval.unbounded(),
        method="widening",
        iterations=0,
        magnitude_only=magnitude_only,
        detail=(
            "cyclic additive accumulation with every coefficient >= 1: "
            "re-derived deltas never shrink, so values grow on any "
            "reachable cycle"
            if growth
            else "cyclic additive recursion with no contracting norm "
            "(rho_inf and rho_1 both >= 1, or F' admits no slope bound)"
        ),
        epsilon_terminated=epsilon_terminated,
        growth_proven=growth,
    )


# ---------------------------------------------------------------------------
# symbolic mode (no plan: declared domains only)
# ---------------------------------------------------------------------------


def analyze_symbolic_range(analysis: "ProgramAnalysis") -> RangeVerdict:
    """Range analysis from the program text alone (no graph).

    Without a concrete plan the pass can rarely *bound* anything, but it
    can still *prove growth*: an additive recursion whose linear
    coefficient is always above one (from the ``assume`` domains)
    multiplies its carrier on every cycle, and a selective fold whose
    shift always improves walks forever.  Proven growth with no epsilon
    termination is RA351; everything else is RA352.
    """
    aggregate = analysis.aggregate
    epsilon_terminated = analysis.termination is not None
    magnitude_only = not aggregate.numeric_values

    def verdict(growth: bool, detail: str) -> RangeVerdict:
        return _classify(
            Interval.unbounded(),
            method="symbolic",
            iterations=0,
            magnitude_only=magnitude_only,
            detail=detail,
            epsilon_terminated=epsilon_terminated,
            growth_proven=growth,
        )

    if aggregate.kind is AggregateKind.OTHER:
        return verdict(False, f"aggregate {aggregate.name!r} is not a semiring ⊕")

    from repro.expr.analysis import affine_in, interval_of_rational

    for spec in analysis.recursions:
        pattern = match_pattern(
            aggregate, spec.fprime, spec.recursion_var, analysis.domains
        )
        if pattern == "identity":
            continue
        if aggregate.kind is AggregateKind.ADDITIVE:
            decomposed = affine_in(spec.fprime, spec.recursion_var)
            if decomposed is None:
                continue
            coeff = interval_of_rational(decomposed[0], analysis.domains)
            if coeff is None:
                continue
            if coeff.lo > 1.0 and not epsilon_terminated:
                return verdict(
                    True,
                    f"linear coefficient always exceeds one "
                    f"(>= {coeff.lo:g}): each cycle multiplies the carrier "
                    "and no epsilon termination bounds the run",
                )
        elif pattern == "shift" and not magnitude_only:
            domains = dict(analysis.domains)
            domains[spec.recursion_var] = Interval.point(0.0)
            try:
                delta = interval_of(spec.fprime, domains)
            except (KeyError, TypeError, ZeroDivisionError, ValueError):
                continue
            improving = (
                delta.hi < 0.0
                if aggregate.fold_mode == "min"
                else delta.lo > 0.0 if aggregate.fold_mode == "max" else False
            )
            if improving and not epsilon_terminated:
                return verdict(
                    True,
                    "shift deltas always improve the fold: cycles improve "
                    "forever and no epsilon termination bounds the run",
                )
    return verdict(
        False,
        "no graph to evaluate against; bounds depend on the data "
        "(run against a compiled plan for a concrete certificate)",
    )


# ---------------------------------------------------------------------------
# the cardinality / cost domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostEstimate:
    """Static per-(program, graph) cost prediction."""

    program: str
    supersteps: int
    #: predicted F' applications over the whole run
    work: int
    peak_frontier_fraction: float
    #: ``"sparse"`` | ``"numpy"`` -- the predicted frontier shape (sparse
    #: or dense); reporting only, both names run the one array kernel
    recommended_backend: str
    keys: int
    edges: int
    detail: str

    def est_seconds(self, cost_model=None, workers: int = 1) -> float:
        """Price the prediction in the distributed cost-model currency."""
        if cost_model is None:
            from repro.distributed.cluster import CostModel

            cost_model = CostModel()
        return (
            cost_model.job_overhead
            + self.supersteps * cost_model.barrier_cost
            + self.work * cost_model.tuple_cost / max(1, workers)
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "supersteps": self.supersteps,
            "work": self.work,
            "peak_frontier_fraction": self.peak_frontier_fraction,
            "recommended_backend": self.recommended_backend,
            "keys": self.keys,
            "edges": self.edges,
            "est_seconds": self.est_seconds(),
            "detail": self.detail,
        }


def estimate_plan_cost(
    plan: "CompiledPlan", summary: Optional[GraphSummary] = None
) -> CostEstimate:
    """Predict supersteps / work / frontier shape for one plan."""
    from repro.analysis.frontier import classify_frontier

    if summary is None:
        summary = summarize_plan(plan)
    frontier = classify_frontier(plan.analysis)
    max_iterations = plan.termination.max_iterations

    if frontier.delta_stepping:
        # Selective frontier programs settle in one BFS sweep's worth of
        # supersteps: each key re-relaxes its out-edges O(1) times.
        supersteps = max(1, summary.depth)
        work = summary.reached + summary.num_edges
        return CostEstimate(
            program=plan.name,
            supersteps=supersteps,
            work=work,
            peak_frontier_fraction=summary.peak_frontier_fraction,
            recommended_backend="sparse",
            keys=summary.num_keys,
            edges=summary.num_edges,
            detail=(
                "sparse-frontier prediction: BFS depth supersteps, each "
                "reached key relaxes its out-edges once"
            ),
        )

    if summary.acyclic:
        supersteps = max(1, summary.depth)
        work = supersteps * max(1, summary.num_edges)
        detail = "dense prediction: acyclic plan settles in topo-depth rounds"
    else:
        epsilon = plan.termination.epsilon
        supersteps = min(summary.num_keys or 1, max_iterations)
        detail = "dense prediction: iteration count capped at num_keys"
        if epsilon is not None:
            patterns = tuple(
                match_pattern(
                    plan.analysis.aggregate,
                    spec.fprime,
                    spec.recursion_var,
                    plan.analysis.domains,
                )
                for spec in plan.analysis.recursions
            )
            transfers = _build_transfers(plan, patterns)
            slopes = _edge_slopes(transfers) if transfers is not None else None
            if slopes is not None:
                aggregate = plan.analysis.aggregate
                base, consts = _base_hulls(
                    plan, aggregate.semiring, False,
                    additive=aggregate.kind is AggregateKind.ADDITIVE,
                )
                if base is not None and consts is not None:
                    threshold = _norm_threshold(slopes, base, consts)
                    if threshold is not None:
                        bound = max(1.0, abs(threshold[1]))
                        rho = _contraction_factor(slopes)
                        if rho is not None and 0.0 < rho < 1.0:
                            steps = math.log(epsilon / bound) / math.log(rho)
                            supersteps = int(
                                min(max_iterations, max(1.0, math.ceil(steps)))
                            )
                            detail = (
                                "dense prediction: geometric convergence at "
                                f"rate {rho:.6g} to epsilon {epsilon:g}"
                            )
        work = supersteps * max(1, summary.num_edges)

    return CostEstimate(
        program=plan.name,
        supersteps=supersteps,
        work=work,
        peak_frontier_fraction=1.0,
        recommended_backend="numpy",
        keys=summary.num_keys,
        edges=summary.num_edges,
        detail=detail,
    )


def _contraction_factor(
    slopes: list[tuple[_EdgeTransfer, float]],
) -> Optional[float]:
    """``min(ρ_∞, ρ_1)`` over the per-edge slope bounds."""
    row: dict = {}
    col: dict = {}
    for transfer, slope in slopes:
        row[transfer.dst] = row.get(transfer.dst, 0.0) + slope
        col[transfer.src] = col.get(transfer.src, 0.0) + slope
    if not row:
        return None
    return min(max(row.values()), max(col.values()))


# ---------------------------------------------------------------------------
# builder-facing helper (replaces the saturation-by-construction comments)
# ---------------------------------------------------------------------------


def counting_walk_bound(
    edges, *, source: int = 0, initial: float = 1.0
) -> float:
    """Exact walk-count bound of a multiplicity DAG from ``source``.

    ``edges`` is an iterable of ``(src, dst, multiplicity)`` rows with
    ``src < dst`` (the builders' canonical forward form).  Returns the
    largest per-key count of the counting-semiring fixpoint -- the same
    number :func:`analyze_plan_range` certifies for ``path_count`` --
    so callers can verify float64 exactness (``< 2**53``) *before*
    running, instead of assuming it from the multiplicity range.
    """
    rows = sorted(edges)
    counts: dict[int, float] = {source: float(initial)}
    best = float(initial)
    for src, dst, multiplicity in rows:
        if src >= dst:
            raise ValueError("counting_walk_bound needs forward (src < dst) edges")
        if src not in counts:
            continue
        counts[dst] = counts.get(dst, 0.0) + counts[src] * float(multiplicity)
        best = max(best, counts[dst])
    return best


__all__ = [
    "FLOAT64_EXACT_LIMIT",
    "CostEstimate",
    "GraphSummary",
    "RangeVerdict",
    "analyze_plan_range",
    "analyze_symbolic_range",
    "counting_walk_bound",
    "estimate_plan_cost",
    "summarize_plan",
]
