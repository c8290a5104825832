"""CSR packing of a compiled plan's out-edges for the array kernel.

A :class:`PlanCSR` is the immutable, plan-wide edge structure every
:class:`~repro.runtime.numpy_kernel.NumpyKernel` shard shares: edges
grouped by source in canonical key order, each source's edges in plan
emission order, one :class:`FnGroup` of packed ``F'`` parameter columns
per recursion body.  :func:`plan_csr` is the only entry point; it packs
once per plan and caches the result on the plan.

Two packers produce *content-identical* structures:

* single-recursion-body plans compiled with columnar edge storage
  (:class:`repro.engine.plan.EdgeColumns`: sssp, cc, pagerank, ...) are
  packed from the flat columns at C speed -- key columns convert to
  codes, one sort groups edges by source, parameter columns are
  zero-copy buffer views;
* multi-body and hand-built plans walk ``plan.out_edges`` edge by edge.

Compiled ``F'`` lambdas are probed once per plan: if a lambda evaluates
correctly over arrays (pure arithmetic does), its parameter columns are
packed as float64 and applications are vectorised per batch; otherwise
(e.g. ``math.*`` calls) the group falls back to per-edge application
for that recursion body only.
"""

from __future__ import annotations

from array import array as _array
from typing import Any, Callable, Optional

from repro.runtime.compat import np
from repro.runtime.python_kernel import plan_key_order


class _ColumnRows:
    """Per-edge parameter tuples materialised lazily over columns.

    :class:`FnGroup` only touches ``raw_params`` row-wise during the
    3-sample vectorisation probe and on the (rare) per-edge fallback
    apply path; this view serves both without building one tuple per
    edge up front.
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

    __slots__ = ("fn", "raw_params", "cols")

    def __init__(
        self, fn: Callable, raw_params: Any, columns: Any, perm: Any = None
    ) -> None:
        self.fn = fn
        #: row-indexable parameter view (a list of tuples from the
        #: per-edge walk, a :class:`_ColumnRows` from the columnar packer)
        self.raw_params = raw_params
        #: float64 parameter columns in CSR edge order (``columns``,
        #: permuted by ``perm`` when given), or None when F' does not
        #: vectorise (per-edge fallback)
        self.cols: Optional[list] = None
        if not len(raw_params):
            return
        try:
            cols = [
                np.frombuffer(col, dtype=np.float64)
                if isinstance(col, _array)
                else np.asarray(col, dtype=np.float64)
                for col in columns
            ]
        except (TypeError, ValueError):
            return  # non-numeric parameters: per-edge fallback
        if perm is not None:
            cols = [col[perm] for col in cols]
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
    """Immutable CSR view of ``plan.out_edges``, shared by all shards."""

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

    def gather(self, srcs: Any, x: Any) -> tuple:
        """Flat edge ids + per-edge source values for a source batch."""
        starts = self.indptr[srcs]
        counts = self.indptr[srcs + 1] - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=np.float64)
        cum = np.cumsum(counts)
        offsets = np.repeat(starts - (cum - counts), counts)
        eids = np.arange(total, dtype=np.int64) + offsets
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


def _pack_edges(plan: Any) -> PlanCSR:
    """Pack by walking ``plan.out_edges`` (any plan; one Python step per edge)."""
    order = plan_key_order(plan)
    keys_sorted = plan._kernel_keys_sorted
    indptr = np.zeros(len(keys_sorted) + 1, dtype=np.int64)
    edst: list[int] = []
    efn: list[int] = []
    erow: list[int] = []
    fn_ids: dict[int, int] = {}
    fn_objs: list[Callable] = []
    fn_param_rows: list[list[tuple]] = []
    for i, key in enumerate(keys_sorted):
        edges = plan.edges_from(key)
        indptr[i + 1] = indptr[i] + len(edges)
        for dst, params, fn in edges:
            fid = fn_ids.get(id(fn))
            if fid is None:
                fid = fn_ids[id(fn)] = len(fn_objs)
                fn_objs.append(fn)
                fn_param_rows.append([])
            edst.append(order[dst])
            efn.append(fid)
            erow.append(len(fn_param_rows[fid]))
            fn_param_rows[fid].append(params)

    return PlanCSR(
        plan,
        indptr,
        np.asarray(edst, dtype=np.int64),
        np.asarray(efn, dtype=np.int64),
        np.asarray(erow, dtype=np.int64),
        [
            FnGroup(fn, rows, list(zip(*rows)))
            for fn, rows in zip(fn_objs, fn_param_rows)
        ],
    )


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
    if keys_arr is not None and isinstance(col, _array):
        vals = np.frombuffer(col, dtype=np.int64)
        if int(keys_arr[0]) == 0 and int(keys_arr[-1]) == len(keys_arr) - 1:
            return vals  # identity universe: the key is the code
        return np.searchsorted(keys_arr, vals)
    return np.fromiter(map(order.__getitem__, col), dtype=np.int64, count=m)


def _pack_columns(plan: Any, columns: Any) -> PlanCSR:
    """Pack a single-body plan from its edge columns, no per-edge Python.

    A stable-by-source sort groups edges in canonical key order while
    preserving per-source emission order -- exactly the order the
    per-edge walk produces -- so ``efn`` is all zeros, ``erow`` is
    ``arange`` and the parameter columns are the plan's columns
    permuted into CSR order, bit for bit what :func:`_pack_edges`
    builds.
    """
    order = plan_key_order(plan)
    keys_sorted = plan._kernel_keys_sorted
    n = len(keys_sorted)
    m = len(columns.srcs)
    indptr = np.zeros(n + 1, dtype=np.int64)
    efn = np.zeros(m, dtype=np.int64)
    erow = np.arange(m, dtype=np.int64)
    if m == 0:
        return PlanCSR(plan, indptr, np.empty(0, dtype=np.int64), efn, erow, [])
    keys_arr = _sorted_int_keys(keys_sorted)
    src_codes = _key_codes(columns.srcs, order, keys_arr, m)
    dst_codes = _key_codes(columns.dsts, order, keys_arr, m)
    # Sorting the unique composite key ``src*m + j`` with the default
    # introsort yields exactly the stable-by-source permutation at a
    # fraction of mergesort's cost; fall back to a stable sort if the
    # composite could overflow int64.
    if n < 2**31 and m < 2**31:
        perm = np.argsort(src_codes * np.int64(m) + erow)
    else:
        perm = np.argsort(src_codes, kind="stable")
    np.cumsum(np.bincount(src_codes, minlength=n), out=indptr[1:])

    params = columns.param_cols
    group = FnGroup(columns.fn, _ColumnRows(params, perm), params, perm)
    return PlanCSR(plan, indptr, dst_codes[perm], efn, erow, [group])


def plan_csr(plan: Any) -> PlanCSR:
    """The plan's CSR, packed on first use and cached on the plan."""
    csr = getattr(plan, "_kernel_csr", None)
    if csr is None:
        columns = plan.edge_columns
        if columns is not None and len(columns) == 1:
            csr = _pack_columns(plan, columns[0])
        else:
            csr = _pack_edges(plan)
        plan._kernel_csr = csr
    return csr
