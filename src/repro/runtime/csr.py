"""CSR packing of a compiled plan's out-edges for the array kernel.

A :class:`PlanCSR` is the immutable, plan-wide edge structure every
:class:`~repro.runtime.numpy_kernel.NumpyKernel` shard shares: edges
grouped by source in canonical key order, each source's edges in plan
emission order, one :class:`FnGroup` of packed ``F'`` parameter columns
per recursion body.  :func:`plan_csr` is the only entry point; it packs
once per plan, or splices a patched plan's CSR from the one its parent
handed over (:func:`_splice`), and caches the result on the plan.

The plan stores its edges as columns (one
:class:`repro.engine.plan.EdgeColumns` per recursion body) and the
packer works on them directly: no edge is touched in Python and the
plan's adjacency view is never built.

Compiled ``F'`` lambdas are probed once per plan: if a lambda evaluates
correctly over arrays (pure arithmetic does), its parameter columns are
packed as float64 and applications are vectorised per batch; otherwise
(e.g. ``math.*`` calls) the group falls back to per-edge application
for that recursion body only.
"""

from __future__ import annotations

from array import array as _array
from itertools import chain
from typing import Any, Callable, Optional

import numpy as np

from repro.runtime.python_kernel import plan_key_order


class _ColumnRows:
    """Per-edge parameter tuples materialised lazily over columns.

    :class:`FnGroup` only touches ``raw_params`` row-wise during the
    3-sample vectorisation probe and on the (rare) per-edge fallback
    apply path; this view serves both without building one tuple per
    edge up front.  Rows hold the plan's own values (an int parameter
    stays an ``int``), as the python kernel sees them.
    """

    __slots__ = ("_cols", "_perm")

    def __init__(self, cols: Any, perm: Any) -> None:
        self._cols = cols
        self._perm = perm

    def __len__(self) -> int:
        return len(self._perm)

    def __getitem__(self, j: int) -> tuple:
        p = self._perm[j]
        return tuple(col[p] for col in self._cols)


class FnGroup:
    """One recursion body's compiled F' and its packed parameter columns."""

    __slots__ = ("fn", "perm", "raw_params", "cols")

    def __init__(
        self, fn: Callable, columns: Any, perm: Any, cols: Optional[list] = None
    ) -> None:
        self.fn = fn
        #: per row (the body's edges in CSR order): the edge's position
        #: in the body's columns
        self.perm = perm
        #: row-indexable view of the parameter tuples in CSR edge order
        self.raw_params = _ColumnRows(columns, perm)
        #: float64 parameter columns in CSR edge order (the body's
        #: ``columns`` permuted by ``perm``, or ``cols`` when the caller
        #: has them), or None when F' does not vectorise (per-edge
        #: fallback)
        self.cols: Optional[list] = None
        if not len(perm):
            return
        if cols is None:
            try:  # typed columns are zero-copy views until permuted
                cols = [
                    np.asarray(col)[perm].astype(np.float64, copy=False)
                    for col in columns
                ]
            except (TypeError, ValueError):
                return  # non-numeric parameters: per-edge fallback
        if self._vectorises(cols):
            self.cols = cols

    def _vectorises(self, cols: list) -> bool:
        """Does F' over arrays agree with F' per edge on a 3-row probe?"""
        fn = self.fn
        param_rows = self.raw_params
        probe_n = min(len(param_rows), 3)
        xs = np.asarray([1.0, 2.0, 0.5][:probe_n], dtype=np.float64)
        try:
            vec = np.asarray(
                fn(xs, *[col[:probe_n] for col in cols]), dtype=np.float64
            )
            if vec.shape == ():
                vec = np.full(probe_n, float(vec))
            if vec.shape != (probe_n,):
                return False
            for j in range(probe_n):
                if float(vec[j]) != float(fn(float(xs[j]), *param_rows[j])):
                    return False
        except Exception:
            return False  # math.* calls etc.: per-edge fallback
        return True

    def apply(self, xs: Any, rows: Any) -> Any:
        """F' over ``xs`` for the group-local edge ``rows``; float64 array."""
        if self.cols is not None:
            out = np.asarray(self.fn(xs, *[col[rows] for col in self.cols]))
            if out.shape == ():
                return np.full(xs.shape, float(out))
            return out.astype(np.float64, copy=False)
        fn = self.fn
        params = self.raw_params
        return np.asarray(
            [
                fn(float(x), *params[r])
                for x, r in zip(xs.tolist(), rows.tolist())
            ],
            dtype=np.float64,
        )


class PlanCSR:
    """Immutable CSR form of the plan's edges, shared by all shards."""

    def __init__(
        self,
        plan: Any,
        indptr: Any,
        edst: Any,
        efn: Any,
        erow: Any,
        groups: list,
    ) -> None:
        self.index = plan_key_order(plan)
        self.keys_sorted = plan._kernel_keys_sorted
        self.n = len(self.keys_sorted)
        #: edges of key code ``i`` are ``indptr[i]:indptr[i + 1]``
        self.indptr = indptr
        #: per edge: destination key code, recursion-body id, and row in
        #: that body's :class:`FnGroup`
        self.edst = edst
        self.efn = efn
        self.erow = erow
        self.groups = groups

    def edge_ids(self, srcs: Any) -> tuple:
        """Flat edge ids of a source batch + each source's edge count."""
        starts = self.indptr.take(srcs)
        counts = self.indptr.take(srcs + 1) - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), counts
        cum = counts.cumsum()
        offsets = (starts - (cum - counts)).repeat(counts)
        return np.arange(total, dtype=np.int64) + offsets, counts

    def gather(self, srcs: Any, x: Any) -> tuple:
        """Flat edge ids + per-edge source values for a source batch."""
        eids, counts = self.edge_ids(srcs)
        return eids, np.repeat(x, counts)

    def apply_edges(self, eids: Any, x_per_edge: Any) -> tuple:
        """Evaluate F' for the given flat edge ids; (dsts, values)."""
        if len(self.groups) == 1:
            # single recursion body: efn is uniform, skip the mask pass
            vals = self.groups[0].apply(x_per_edge, self.erow[eids])
            return self.edst[eids], vals.astype(np.float64, copy=False)
        vals = np.empty(len(eids), dtype=np.float64)
        fids = self.efn[eids]
        for fid, group in enumerate(self.groups):
            mask = fids == fid
            if mask.any():
                vals[mask] = group.apply(
                    x_per_edge[mask], self.erow[eids[mask]]
                )
        return self.edst[eids], vals


def _sorted_int_keys(keys_sorted: Any) -> Any:
    """``keys_sorted`` as a sorted int64 array, or None for other keys.

    The all-integer key universe is the vectorizable case: a key column
    stored as a typed array maps to canonical codes by binary search --
    or, when the universe is exactly ``0..n-1`` (vertex programs, pinned
    by pigeonhole on the endpoints), a key *is* its code.
    """
    try:
        arr = np.asarray(keys_sorted)
    except (TypeError, ValueError):
        return None
    if arr.ndim != 1 or arr.dtype.kind != "i":
        return None
    return arr.astype(np.int64, copy=False)


def _key_codes(col: Any, order: dict, keys_arr: Any, m: int) -> Any:
    """Map a key column to canonical codes (C-speed for typed columns)."""
    if keys_arr is not None and isinstance(col, _array) and col.typecode == "q":
        vals = np.frombuffer(col, dtype=np.int64)
        if int(keys_arr[0]) == 0 and int(keys_arr[-1]) == len(keys_arr) - 1:
            return vals  # identity universe: the key is the code
        return np.searchsorted(keys_arr, vals)
    return np.fromiter(map(order.__getitem__, col), dtype=np.int64, count=m)


def _concat(parts: list) -> Any:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _pack_columns(plan: Any) -> PlanCSR:
    """Pack the plan's edge columns into a CSR, no per-edge Python.

    The bodies' columns are concatenated in ``fprime_fns`` order; a
    stable-by-source sort then groups edges in canonical key order while
    keeping each source's edges body by body and, within a body, in
    emission order -- the order ``plan.edges_from`` lists them in.
    ``efn`` is the body index, ``erow`` the edge's rank among its body's
    edges in CSR order, and each body's parameter columns are the plan's
    columns permuted into that order.
    """
    order = plan_key_order(plan)
    keys_sorted = plan._kernel_keys_sorted
    bodies = plan.edge_columns
    sizes = [len(columns) for columns in bodies]
    n = len(keys_sorted)
    m = sum(sizes)
    indptr = np.zeros(n + 1, dtype=np.int64)
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return PlanCSR(plan, indptr, empty, empty, empty, [])
    keys_arr = _sorted_int_keys(keys_sorted)
    src_codes = _concat(
        [_key_codes(c.srcs, order, keys_arr, len(c)) for c in bodies]
    )
    dst_codes = _concat(
        [_key_codes(c.dsts, order, keys_arr, len(c)) for c in bodies]
    )
    # Sorting the unique composite key ``src*m + j`` with the default
    # introsort yields exactly the stable-by-source permutation at a
    # fraction of mergesort's cost; fall back to a stable sort if the
    # composite could overflow int64.
    edge_ids = np.arange(m, dtype=np.int64)
    if n < 2**31 and m < 2**31:
        perm = np.argsort(src_codes * np.int64(m) + edge_ids)
    else:
        perm = np.argsort(src_codes, kind="stable")
    np.cumsum(np.bincount(src_codes, minlength=n), out=indptr[1:])

    # an edge's body is the number of body boundaries at or below its id
    starts = [sum(sizes[:body]) for body in range(len(bodies))]
    efn = np.zeros(m, dtype=np.int64)
    for start in starts[1:]:
        efn += perm >= start
    erow = np.empty(m, dtype=np.int64)
    groups: list[FnGroup] = []
    for body, (columns, start) in enumerate(zip(bodies, starts)):
        mine = efn == body
        local = perm[mine]
        local -= start
        erow[mine] = edge_ids[: len(local)]
        groups.append(FnGroup(columns.fn, columns.param_cols, local))
    return PlanCSR(plan, indptr, dst_codes[perm], efn, erow, groups)


#: parameter types whose float64 value a splice may take one at a time
_NUMBERS = (int, float)


def _find(parent: PlanCSR, body: int, code: int, position: int) -> tuple:
    """Where ``body``'s edge from key code ``code`` at ``position`` of the
    body's columns sits, or would sit, among ``parent``'s edges: its CSR
    position and its row in the body's group (a bisection of the
    source's block)."""
    lo, hi = int(parent.indptr[code]), int(parent.indptr[code + 1])
    if len(parent.groups) == 1:
        first = lo
    else:  # the body's block of the row: bodies ascend within it
        efn = parent.efn
        block = efn[lo:hi]
        lo, hi = lo + int(block.searchsorted(body)), lo + int(block.searchsorted(body, "right"))
        first = int(parent.erow[lo]) if lo < hi else int(np.count_nonzero(efn[:lo] == body))
    at = int(parent.groups[body].perm[first : first + hi - lo].searchsorted(position))
    return lo + at, first + at


def _pieces(gone: list, at: list) -> list:
    """How to cut an array: ``(0, a, b)`` for the slice ``a:b`` of it and
    ``(1, a, b)`` for arrivals ``a:b``, in order, dropping the ascending
    positions ``gone`` and placing arrival ``k`` before position
    ``at[k]`` (ascending)."""
    pieces: list = []
    cursor = 0
    i = 0
    for k, position in enumerate(at):
        while i < len(gone) and gone[i] < position:
            if cursor < gone[i]:
                pieces.append((0, cursor, gone[i]))
            cursor = gone[i] + 1
            i += 1
        if cursor < position:
            pieces.append((0, cursor, position))
            cursor = position
        if pieces and pieces[-1][0] == 1:
            pieces[-1] = (1, pieces[-1][1], k + 1)
        else:
            pieces.append((1, k, k + 1))
    for position in gone[i:]:
        if cursor < position:
            pieces.append((0, cursor, position))
        cursor = position + 1
    pieces.append((0, cursor, None))
    return pieces


def _spliced(array: Any, pieces: list, values: Any) -> Any:
    """``array`` cut by :func:`_pieces`, ``values`` arriving."""
    parts = (array, values)
    return np.concatenate([parts[side][a:b] for side, a, b in pieces])


def _splice(plan: Any, parent: PlanCSR, moves: list) -> Optional[PlanCSR]:
    """The CSR of ``plan``, a patch of the plan ``parent`` was packed for
    (``moves``: one :class:`~repro.engine.plan.PlanMoves` per body),
    spliced from ``parent``: array for array what :func:`_pack_columns`
    packs, for a binary search per changed edge and one copy per array.

    CSR order is (source code, body, position in the body's columns).
    Swap-remove leaves every surviving edge where it was but the moved
    ones, so the kept edges stay in order: the edges that left and the
    moved ones are cut out, and the moved and appended ones go in where
    a search of their source's block puts them -- only the rows a move
    touched change order.  ``None`` when only a full pack will do: the
    key set changed (every code moves), the plan has no edges, a parent
    body packed no float64 columns, or a new parameter is not a number.
    """
    index = plan_key_order(plan)
    bodies = plan.edge_columns
    if index is not parent.index or not plan.num_edges:
        return None
    if len(parent.groups) != len(bodies) or any(
        group.cols is None for group in parent.groups
    ):
        return None
    change = np.zeros(parent.n, dtype=np.int64)
    gone: list = []  # the parent's CSR positions that leave
    gone_rows: list = []  # per body: the rows of its group that leave
    arriving: list = []  # (source code, body, column position, CSR position, row, ...)
    for body, (columns, moved) in enumerate(zip(bodies, moves)):
        srcs, dsts = columns.srcs, columns.dsts
        rows = []
        leaving = moved.gone + [(old, srcs[new]) for new, old in moved.origin.items()]
        for old, src in leaving:
            code = index[src]
            at, row = _find(parent, body, code, old)
            gone.append(at)
            rows.append(row)
            change[code] -= 1
        gone_rows.append(sorted(rows))
        for j in chain(moved.origin, range(moved.kept, len(columns))):
            params = tuple(col[j] for col in columns.param_cols)
            if not all(type(value) in _NUMBERS for value in params):
                return None
            code = index[srcs[j]]
            arriving.append((code, body, j, *_find(parent, body, code, j), index[dsts[j]], params))
            change[code] += 1
    arriving.sort()  # CSR order: source, body, column position

    pieces = _pieces(sorted(gone), [arrival[3] for arrival in arriving])
    edst = np.array([arrival[5] for arrival in arriving], dtype=np.int64)
    edst = _spliced(parent.edst, pieces, edst)
    m = len(edst)
    indptr = parent.indptr.copy()
    indptr[1:] += change.cumsum()
    if len(bodies) == 1:
        efn = np.zeros(m, dtype=np.int64)
        erow = np.arange(m, dtype=np.int64)
    else:
        efn = np.array([arrival[1] for arrival in arriving], dtype=np.int64)
        efn = _spliced(parent.efn, pieces, efn)
        erow = np.empty(m, dtype=np.int64)
        for body in range(len(bodies)):
            mine = efn == body
            erow[mine] = np.arange(int(mine.sum()), dtype=np.int64)

    groups = []
    for body, (columns, group, rows) in enumerate(zip(bodies, parent.groups, gone_rows)):
        perm, cols = group.perm, group.cols
        mine = [arrival for arrival in arriving if arrival[1] == body]
        if rows or mine:
            if len(bodies) > 1:  # a body's rows are not the CSR positions
                pieces = _pieces(rows, [arrival[4] for arrival in mine])
            positions = np.array([arrival[2] for arrival in mine], dtype=np.int64)
            perm = _spliced(perm, pieces, positions)
            params = np.array([arrival[6] for arrival in mine], dtype=np.float64)
            params = params.reshape(len(mine), len(cols))
            cols = [_spliced(col, pieces, params[:, slot]) for slot, col in enumerate(cols)]
        groups.append(FnGroup(columns.fn, columns.param_cols, perm, cols))
    return PlanCSR(plan, indptr, edst, efn, erow, groups)


def plan_csr(plan: Any) -> PlanCSR:
    """The plan's CSR, cached on the plan: on first use spliced from the
    CSR a patch handed over (:func:`_splice`), or else packed."""
    csr = getattr(plan, "_kernel_csr", None)
    if csr is None:
        handed = plan.__dict__.pop("_kernel_parent", None)
        if handed is not None:
            csr = _splice(plan, *handed)
        if csr is None:
            csr = _pack_columns(plan)
        plan._kernel_csr = csr
    return csr
