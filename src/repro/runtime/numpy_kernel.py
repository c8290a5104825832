"""The array kernel: float64 columns, CSR edges, a compacted frontier.

One vectorised backend serves dense-frontier programs (pagerank, katz)
and sparse-frontier ones (sssp, cc) alike.  Two mechanisms keep its
cost proportional to the *frontier* where the frontier is small and to
C-speed array scans where it is not:

* **frontier compaction** -- a live count and the arrival-order index
  list are the authoritative frontier; draining a round, scattering a
  round's output and ``pending_min`` touch ``O(frontier)`` state;
* **the dense crossover** -- once a frontier (or a round's output)
  covers more than ``1 / _DENSE_DIVISOR`` of the keys, an ``O(n)`` mask
  scan / scratch scatter beats list compaction and the sort inside
  ``np.unique``, so the round switches to it.  Both sides compute the
  same index set in the same ascending order.

The kernel holds numeric carriers whose ``⊕`` is a float64 ``min``,
``max`` or ``sum`` fold (:meth:`NumpyKernel.supports_plan`); every other
program resolves to the python kernel.

Exactness argument (why this backend is *bit-identical* to
:class:`~repro.runtime.python_kernel.PythonKernel`, not merely close):

* rounds process batches in the same canonical ascending key order, and
  per-destination folds run in the same arrival order: additive folds
  use ``np.bincount`` (which accumulates sequentially in input order,
  i.e. the same left fold as the dict loop), selective folds use
  ``np.minimum.at``/``np.maximum.at`` (order-insensitive selection);
* elementwise float64 ufunc arithmetic is the same IEEE-754 operation
  the Python loop performs one value at a time, and the scalar paths
  (``push``, ``fetch_and_reset``, ``accumulate``, a send side's replay)
  run the combine on Python floats exactly like the reference kernel;
* only *which indices* a round visits is computed two ways: the
  compacted frontier is by construction the index set ``np.nonzero``
  finds, and the rebuilt ``_pend_order`` after a scatter (ascending
  unique destinations) equals the ascending ``np.nonzero`` order;
* insertion orders observable through the MonoTable protocol (the
  ``accumulated``/``intermediate`` dicts, the async master's global
  accumulation sum order, async batch selection, delta-stepping takes)
  are tracked explicitly: every no-entry -> entry transition is stamped
  with an arrival sequence number, and the live pending indices sorted
  by it are exactly the dict insertion order the reference kernel
  yields;
* batch ingest (:meth:`NumpyKernel.push_many`: the BSP exchange, an
  asynchronous worker's inbox), the send side and the fused ``ΔX¹`` fold
  *streams*: the tuples in the order the reference would push them.
  ``ufunc.at`` applies a stream to a column sequentially, in place, so
  an already-held entry heads its key's tuples and a new one starts from
  the fold's identity (:func:`_fold_stream`) -- the same left fold as one
  ``push`` per tuple, and concatenating payloads in arrival order
  reproduces the float sum bit for bit; min/max select one of their
  inputs whatever the order.  First-occurrence order -- the dict
  insertion order of the reference -- comes from :func:`_first_codes` in
  ``O(m)`` without a sort, and ``combines`` is tuples - keys that were
  not pending;
* the asynchronous local mode (:meth:`NumpyKernel.window_local`) and
  :class:`ColumnSendSide` are set-at-a-time; their three arguments
  (Gauss--Seidel levels, the crossing test, the drain rule) are in
  :mod:`repro.runtime.base`.

The kernel implements the contract's loops, not its per-shard
operations (:mod:`repro.runtime.base`, "what a backend implements"):
:meth:`NumpyKernel.step` is single-node MRA's round, and the cluster
loops run over the stack.

Stacked shards (a BSP superstep is one array pass, whatever the number
of workers).  The shards of one cluster
(:meth:`NumpyKernel.shards_from_plan`) hold their five state columns as
rows of run-wide ``(W × n)`` arrays (:class:`_ShardStack`); the MonoTable
protocol and snapshot/restore work on a shard's own row.
:meth:`NumpyKernel.cluster_round`, :meth:`NumpyKernel.cluster_ingest`
and :meth:`NumpyKernel.window_local` replace the base class's loops of
one round / one ``push_many`` / one batch per shard with one pass over
the stack, bit for bit:

* a key has one owner, so a row-major scan of the stacked pending mask
  lists each worker's pending keys ascending, workers in order -- the
  loop's rounds, concatenated; accumulation is per key, and fresh keys
  extend each shard's accumulation order in that order;
* each worker's ``magnitude`` is its own left fold (one ``cumsum`` per
  worker: one over the concatenation would add across workers);
* the out-fold ranks composite codes ``sender·n + dst``: first
  occurrences come per sender in that sender's order, and
  ``bincount``/``ufunc.at`` fold each slot in input order, so
  :func:`_fold_codes`'s ``-0.0`` rule holds per pair; runs of the edge
  pass (:func:`_runs`, a bounded working set) are cut between senders,
  so no slot spans two; a stable sort by ``(target, sender)`` then cuts
  each payload in :meth:`Kernel.split_out`'s order;
* a receiver's stream is its inbox concatenated in arrival order, folded
  at stack index ``target·n + code`` -- the same ``ufunc.at`` sequence as
  its ``push_many``; fresh keys are stamped per receiver from that
  shard's own sequence counter, in first-occurrence order.  A round's
  payloads are row ranges of one receiver-major buffer (:class:`_Cut`),
  so when the ingest is handed exactly the last round's payloads in the
  order a fault-free exchange delivers them, that buffer *is* the
  concatenation, and it is folded as it is.

A kernel built on its own (a blank, reseeded or checkpoint-restored
shard) owns its columns until a cluster call seats it: its columns are
copied into its row and rebound there, and the row's previous kernel
keeps private copies.  Seating happens only at the top of a cluster
call, so a scratch kernel never writes into a live row.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain
from typing import Any, Iterable, Iterator, Optional

import numpy as np

from repro.engine.result import WorkCounters
from repro.runtime.base import (
    KERNELS,
    BatchResult,
    Kernel,
    KernelUnavailableError,
    SendSide,
    register_kernel,
)
from repro.runtime.csr import plan_csr

#: frontier fraction above which the O(n) dense round paths win; below
#: it the compacted O(frontier) paths are used (see NumpyKernel.step)
_DENSE_DIVISOR = 4

#: the float64 ufunc folds the kernel implements ``⊕`` with
_FOLD_MODES = ("min", "max", "sum")


#: per fold mode, the in-place ufunc and its identity.  -0.0, not 0.0,
#: is the identity of float addition: -0.0 + x is x for every x, while
#: 0.0 + -0.0 is 0.0
_FOLD_AT = {
    "sum": (np.add, -0.0),
    "min": (np.minimum, np.inf),
    "max": (np.maximum, -np.inf),
}


def _fold_codes(mode: str, codes: Any, vals: Any, size: int) -> Any:
    """``⊕``-fold ``vals`` per code into ``size`` slots, in input order."""
    if mode == "sum":
        folded = np.bincount(codes, weights=vals, minlength=size)
        negative = np.signbit(vals)
        if negative.any():
            # bincount seeds each slot with +0.0, and 0.0 + -0.0 is 0.0:
            # a left fold from the first value keeps -0.0 exactly when
            # every value is -0.0, so give those slots their sign back
            zeros = np.bincount(
                codes[negative & (vals == 0.0)], minlength=size
            )
            folded[(zeros > 0) & (zeros == np.bincount(codes, minlength=size))] = -0.0
        return folded
    ufunc, identity = _FOLD_AT[mode]
    folded = np.full(size, identity)
    ufunc.at(folded, codes, vals)
    return folded


def _first_positions(codes: Any, size: int) -> tuple:
    """Where each distinct code of ``codes`` first occurs, ascending --
    ``O(len(codes))``, no sort -- and the ``size``-slot scratch that
    found them.

    Positions are assigned through the reversed array, so where a code
    repeats its *first* position is written last and survives; an
    element is a first occurrence iff its slot holds its own position.
    Only slots written here are read, so the scratch needs no clearing.
    """
    pos = np.arange(len(codes))
    slot = np.empty(size, dtype=np.int64)
    slot[codes[::-1]] = pos[::-1]
    return (slot.take(codes) == pos).nonzero()[0], slot


def _first_codes(codes: Any, size: int) -> tuple:
    """Distinct ``codes`` in first-occurrence order, and the scratch
    (:func:`_first_positions`)."""
    first, slot = _first_positions(codes, size)
    return codes.take(first), slot


def _rank_codes(codes: Any, size: int) -> tuple:
    """:func:`_first_positions`, and each element's rank among them."""
    first, slot = _first_positions(codes, size)
    slot[codes.take(first)] = np.arange(len(first))
    return first, slot.take(codes)


def _arrivals(has: Any, codes: Any) -> Any:
    """The distinct ``codes`` whose ``has`` entry is unset, in
    first-occurrence order, with no first-occurrence pass when every
    code is held."""
    held = has.take(codes)
    absent = codes[np.logical_not(held, out=held)]
    return _first_codes(absent, len(has))[0] if len(absent) else absent


def _fold_stream(
    mode: str, val: Any, has: Any, codes: Any, vals: Any, fresh: Any
) -> None:
    """Fold the stream ``(codes, vals)`` into the columns ``(val, has)``
    as one combine per tuple, in order, would: ``ufunc.at`` applies the
    tuples sequentially, so an entry already held heads its key's tuples
    and a new one -- ``fresh``, the stream's keys not held -- starts
    from the identity."""
    ufunc, identity = _FOLD_AT[mode]
    val[fresh] = identity
    has[fresh] = True
    ufunc.at(val, codes, vals)


def _ingest(
    mode: str,
    pend: Any,
    pend_has: Any,
    codes: Any,
    vals: Any,
    counters: WorkCounters,
) -> Any:
    """Fold the stream ``(codes, vals)`` into the pending columns as one
    ``push`` per tuple would.  Returns the stream's keys that were not
    pending, in first-occurrence order."""
    fresh = _arrivals(pend_has, codes)
    _fold_stream(mode, pend, pend_has, codes, vals, fresh)
    # every tuple but a key's first onto an empty entry is a combine
    counters.combines += len(codes) - len(fresh)
    return fresh


def _merge(mode: str, has: Any, old: Any, tmp: Any) -> tuple:
    """``tmp`` accumulated onto the entries ``(has, old)``: the new
    values and the mask of entries that change."""
    if mode == "sum":
        merged = old + tmp
    elif mode == "min":
        merged = np.minimum(old, tmp)
    else:
        merged = np.maximum(old, tmp)
    new = np.where(has, merged, tmp)
    return new, ~has | (new != old)


def _accumulate(
    mode: str, acc: Any, acc_has: Any, idx: Any, tmp: Any, counters: WorkCounters
) -> tuple:
    """Accumulate ``tmp`` at the distinct indices ``idx`` of the columns
    ``(acc, acc_has)``: the changed mask, the magnitudes, and the indices
    that got their first entry, in ``idx`` order."""
    has = acc_has[idx]
    old = acc[idx]
    new, changed = _merge(mode, has, old, tmp)
    if mode == "sum":
        mags = np.abs(tmp)
    else:
        mags = np.where(has, np.abs(new - old), np.abs(tmp))
    counters.combines += int(has.sum())
    counters.updates += int(changed.sum())
    acc[idx[changed]] = new[changed]
    fresh = idx[changed & ~has]
    acc_has[fresh] = True
    return changed, mags, fresh


def _left_sum(values: Any) -> float:
    """The left fold ``((0.0 + v0) + v1) + ...`` a Python loop computes;
    ``np.sum`` adds pairwise and ``sum()`` compensates (3.12+)."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


class Columns:
    """The array kernel's payload: ``(key code, value)`` columns."""

    __slots__ = ("codes", "vals")

    def __init__(self, codes: Any, vals: Any) -> None:
        self.codes = codes
        self.vals = vals

    def __len__(self) -> int:
        return len(self.codes)


class _Cut(Columns):
    """Rows ``[start, stop)`` of a round's pair-ordered columns: a round
    payload.  Its column views are made only when read, which a
    fault-free exchange never does (:meth:`NumpyKernel.cluster_ingest`
    folds the whole buffer)."""

    __slots__ = ("_whole", "_start", "_stop")

    def __init__(self, whole: Columns, start: int, stop: int) -> None:
        self._whole = whole
        self._start = start
        self._stop = stop

    @property
    def codes(self) -> Any:
        return self._whole.codes[self._start:self._stop]

    @property
    def vals(self) -> Any:
        return self._whole.vals[self._start:self._stop]

    def __len__(self) -> int:
        return self._stop - self._start


def _pair_columns(index: dict, pairs: Any) -> Columns:
    """``(key, value)`` pairs as columns over the plan's key codes."""
    pairs = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
    m = len(pairs)
    return Columns(
        np.fromiter((index[key] for key, _ in pairs), dtype=np.int64, count=m),
        np.fromiter((value for _, value in pairs), dtype=np.float64, count=m),
    )


#: the state columns a cluster's shards hold as rows of one stack
_STACKED = ("_acc", "_acc_has", "_pend", "_pend_has", "_seq")


class _ShardStack:
    """A cluster's array-kernel state: each column of :data:`_STACKED`
    as one ``(W × n)`` array whose row ``w`` is worker ``w``'s column
    (the module docstring's "stacked shards")."""

    __slots__ = _STACKED + ("n", "seated", "delivery", "owned", "place")

    def __init__(self, parts: int, n: int) -> None:
        self.n = n
        self._acc = np.zeros((parts, n), dtype=np.float64)
        self._acc_has = np.zeros((parts, n), dtype=bool)
        self._pend = np.zeros((parts, n), dtype=np.float64)
        self._pend_has = np.zeros((parts, n), dtype=bool)
        #: arrival sequence per index, stamped on no-entry -> entry
        self._seq = np.zeros((parts, n), dtype=np.int64)
        #: per row, the kernel whose columns it is (None: nobody's)
        self.seated: list = [None] * parts
        #: until the next ingest, the last round's inboxes as a
        #: fault-free exchange fills them, their pair-ordered columns
        #: and each receiver's tuple count (:func:`_split_pairs`)
        self.delivery: Optional[tuple] = None
        #: the seated kernels' owned masks as one vector (built on first
        #: use, dropped when a kernel is seated) and an all ``-1`` scratch
        #: over the stack indices (:meth:`NumpyKernel.window_local`)
        self.owned: Optional[Any] = None
        self.place: Optional[Any] = None

    def flat(self, name: str) -> Any:
        """Column ``name`` as one vector: stack index ``row·n + code``."""
        return getattr(self, name).reshape(-1)

    def owned_flat(self) -> Any:
        """Per stack index: does the row's kernel own the code?"""
        if self.owned is None:
            self.owned = np.concatenate([
                np.ones(self.n, dtype=bool) if kernel._owned_mask is None
                else kernel._owned_mask
                for kernel in self.seated
            ])
        return self.owned

    def positions(self) -> Any:
        """An all ``-1`` int64 scratch over the stack indices, mapping an
        index to its position in a batch; whoever writes entries resets
        them to ``-1`` before returning."""
        if self.place is None:
            self.place = np.full(self._pend.size, -1, dtype=np.int64)
        return self.place

    def bind(self, row: int, kernel: "NumpyKernel") -> None:
        """Make row ``row`` ``kernel``'s columns, whatever it holds."""
        for name in _STACKED:
            setattr(kernel, name, getattr(self, name)[row])
        kernel._stack = self
        kernel._row = row
        self.seated[row] = kernel

    def seat(self, row: int, kernel: "NumpyKernel") -> None:
        """Copy ``kernel``'s columns into row ``row`` and bind it there;
        the row's previous kernel, and ``kernel``'s previous row, are
        left with private copies."""
        held = self.seated[row]
        if held is not None:
            held._unseat()
        if kernel._stack is not None:
            kernel._unseat()
        for name in _STACKED:
            getattr(self, name)[row] = getattr(kernel, name)
        self.bind(row, kernel)
        self.owned = None


def _owners_of(index: dict, n: int, shard_keys: list) -> Any:
    """The worker per key code over the partition ``shard_keys`` (-1:
    no worker's)."""
    owner = np.full(n, -1, dtype=np.int64)
    for worker, keys in enumerate(shard_keys):
        owner[np.fromiter(map(index.__getitem__, keys), dtype=np.int64)] = worker
    return owner


def _placed(index: dict, owner: Any, parts: int, initial: dict) -> tuple:
    """A fresh ``parts``-row :class:`_ShardStack` holding ``X⁰`` (``initial``)
    in its owners' rows -- a key no row owns is left out -- and each row's
    accumulation order, ``initial``'s order."""
    codes = np.fromiter(
        map(index.__getitem__, initial), dtype=np.int64, count=len(initial)
    )
    vals = np.fromiter(initial.values(), dtype=np.float64, count=len(initial))
    rows = owner.take(codes)
    placed = rows >= 0
    codes, rows = codes[placed], rows[placed]
    stack = _ShardStack(parts, len(owner))
    stack._acc[rows, codes] = vals[placed]
    stack._acc_has[rows, codes] = True
    orders: list = [[] for _ in range(parts)]
    by_owner = np.argsort(rows, kind="stable")
    for row, order in _rows_of((rows * stack.n + codes).take(by_owner), stack.n, parts):
        orders[row] = order.tolist()
    return stack, orders


def _stack_of(shards: list) -> _ShardStack:
    """The stack whose rows are ``shards``' columns, after seating every
    shard that is not in its row (the top of every cluster call)."""
    stack = shards[0]._stack
    if stack is not None and stack.seated == shards:
        return stack
    first = shards[0]
    stack = None
    for row, shard in enumerate(shards):
        if shard._csr is not first._csr or shard.counters is not first.counters:
            raise ValueError(
                "the shards of a cluster share one plan and one WorkCounters"
            )
        held = shard._stack
        if stack is None and held is not None and shard._row == row:
            if len(held.seated) == len(shards):
                stack = held
    if stack is None:
        stack = _ShardStack(len(shards), first._csr.n)
    for row, shard in enumerate(shards):
        if shard._stack is not stack or shard._row != row:
            stack.seat(row, shard)
    return stack


def _rows_of(flat: Any, n: int, parts: int) -> Iterator[tuple]:
    """``(row, codes)`` for each row the stack indices ``flat`` -- grouped
    by row, rows ascending -- touch; each row's codes in ``flat`` order."""
    rows = flat // n
    codes = flat - rows * n
    start = 0
    for row, count in enumerate(np.bincount(rows, minlength=parts).tolist()):
        if count:
            yield row, codes[start:start + count]
            start += count


def _drain_stack(stack: _ShardStack, shards: list) -> tuple:
    """Every shard's pending entries, drained for one round: their stack
    indices ascending (worker by worker, each worker's keys ascending)
    and their values."""
    live = sum(shard._pend_live for shard in shards)
    pend_has = stack.flat("_pend_has")
    if live * _DENSE_DIVISOR >= stack.n:
        # a key has one owner, so the cluster's frontier is over n keys:
        # dense by the single kernel's rule, and a bool scan is cheap
        flat = pend_has.nonzero()[0]
        pend_has[:] = False
    else:
        # a shard with nothing live skips its round, stale entries and all
        orders = [shard._pend_indices() if shard._pend_live else [] for shard in shards]
        flat = np.fromiter(chain.from_iterable(orders), dtype=np.int64, count=live)
        flat += np.repeat(
            np.arange(0, len(shards) * stack.n, stack.n, dtype=np.int64),
            [len(order) for order in orders],
        )
        flat.sort()  # canonical ascending round order, per worker
        pend_has[flat] = False
    for shard in shards:
        if shard._pend_live:
            shard._clear_pending()
    return flat, stack.flat("_pend").take(flat)


def _push_rows(shards: list, stack: _ShardStack, codes: Any, vals: Any) -> None:
    """Fold the stream ``(codes, vals)`` -- stack indices grouped by row,
    rows ascending, each row's tuples in push order -- into the pending
    columns, as one ``push`` per tuple on each row's kernel would."""
    n = stack.n
    first = shards[0]
    fresh = _ingest(
        first._mode,
        stack.flat("_pend"),
        stack.flat("_pend_has"),
        codes,
        vals,
        first.counters,
    )
    if not len(fresh):
        return
    # each row's fresh keys, numbered from its own sequence counter
    rows = fresh // n
    arrived = (fresh - rows * n).tolist()
    seq = stack.flat("_seq")
    start = 0
    for row, count in enumerate(np.bincount(rows, minlength=len(shards)).tolist()):
        if count:
            shard = shards[row]
            stop = start + count
            seq[fresh[start:stop]] = np.arange(shard._seq_next, shard._seq_next + count)
            shard._enlist(arrived[start:stop])
            start = stop


def _stack_deltas(index: dict, n: int, deltas: list) -> tuple:
    """One ``key -> delta`` dict per worker as stack indices ascending
    and their values."""
    flat = np.concatenate([
        np.fromiter(map(index.__getitem__, batch), dtype=np.int64, count=len(batch))
        + row * n
        for row, batch in enumerate(deltas)
    ])
    tmp = np.concatenate([
        np.fromiter(batch.values(), dtype=np.float64, count=len(batch))
        for batch in deltas
    ])
    order = np.argsort(flat)  # distinct: any sort is the stable one
    return flat.take(order), tmp.take(order)


#: about how many edges one out-fold pass of a cluster round takes: the
#: pass holds several edge-length arrays at once, so this bounds a
#: superstep's working set whatever the cluster's size
_RUN_EDGES = 1 << 16


def _runs(senders: Any, degree: Any) -> list:
    """The changed sources -- sender-major, with their out-degrees -- as
    consecutive ``[lo, hi)`` runs of about :data:`_RUN_EDGES` edges, cut
    only where the sender changes, so that no ``(sender, destination)``
    slot spans two runs."""
    if int(degree.sum()) <= _RUN_EDGES:
        return [(0, len(senders))]
    heads = np.flatnonzero(np.r_[True, senders[1:] != senders[:-1]])
    # a sender's run: how many _RUN_EDGES lie before its first edge
    before = (np.cumsum(degree) - degree)[heads] // _RUN_EDGES
    cuts = [0] + heads[np.flatnonzero(np.diff(before)) + 1].tolist() + [len(senders)]
    return list(zip(cuts[:-1], cuts[1:]))


def _out_fold(
    csr: Any,
    mode: str,
    n: int,
    workers: int,
    counters: WorkCounters,
    sources: Any,
    x: Any,
    senders: Any,
) -> tuple:
    """``F'`` along the out-edges of ``sources`` (values ``x``, senders
    ascending), folded per ``(sender, destination)`` slot in each
    sender's first-occurrence order: the slots' senders, destination
    codes and folded values."""
    eids, degree = csr.edge_ids(sources)
    slots, vals = csr.apply_edges(eids, np.repeat(x, degree))
    del eids  # one edge-length array fewer while the fold runs
    # slot sender·n + dst, made in place from the destinations; the edges
    # come sender by sender, so one sender's offset is a scalar
    if senders[0] != senders[-1]:
        slots += np.repeat(senders * n, degree)
    elif senders[0]:
        slots += int(senders[0]) * n
    heads, rank = _rank_codes(slots, workers * n)
    counters.combines += len(vals) - len(heads)
    folded = _fold_codes(mode, rank, vals, len(heads))
    return (*np.divmod(slots.take(heads), n), folded)


def _split_pairs(
    senders: Any,
    codes: Any,
    vals: Any,
    owners: Any,
    n: int,
    workers: int,
    parts: int,
) -> tuple:
    """A round's out-fold -- one ``(sender, code, value)`` per slot, each
    sender's in first-occurrence order -- cut into one payload per
    ``(sender, target)`` pair (senders ascending, each sender's targets
    ascending), and the stack's ``delivery`` of them.

    The slots come sender by sender, so a stable sort by target orders
    them by ``(target, sender)`` and keeps each sender's order inside
    each target, as :meth:`Kernel.split_out` does per sender.  Each
    payload is one row range of that order (:class:`_Cut`).  That order is
    receiver-major: the order a fault-free exchange fills the inboxes in.
    """
    targets = owners.take(codes)
    pairs = targets.astype(np.int64)
    pairs *= workers
    pairs += senders
    sizes = np.bincount(pairs, minlength=parts * workers)
    del pairs
    # the owner table's small unsigned dtype radix-sorts: linear
    order = np.argsort(targets, kind="stable")
    # fresh arrays: the payloads alias nothing a kernel reuses
    whole = Columns(codes.take(order), vals.take(order))
    ends = np.cumsum(sizes)
    held = sizes.nonzero()[0]
    payloads = [
        _Cut(whole, start, end)
        for start, end in zip((ends - sizes)[held].tolist(), ends[held].tolist())
    ]
    to, by = np.divmod(held, workers)
    bounds = np.cumsum(np.bincount(to, minlength=parts)).tolist()
    inboxes = [payloads[start:end] for start, end in zip([0] + bounds, bounds)]
    # the engine walks the pairs sender-major
    walk = np.argsort(by * parts + to)
    sends = dict(
        zip(
            zip(by[walk].tolist(), to[walk].tolist()),
            map(payloads.__getitem__, walk.tolist()),
        )
    )
    return sends, (inboxes, whole, sizes.reshape(parts, workers).sum(axis=1))


def _local_pass(
    kernel: "NumpyKernel",
    columns: tuple,
    owned: Any,
    place: Any,
    batch: Any,
    local: Any,
    bounds: list,
) -> tuple:
    """Asynchronous local rounds of one or more batches, set-at-a-time
    (exactness: the Gauss--Seidel argument in :mod:`repro.runtime.base`).

    ``columns`` are a stack's ``(acc, acc_has, pend, pend_has)`` over
    indices ``row·n + code``, and ``owned`` says which indices the row's
    kernel owns.  ``batch`` is the batches one after another, rows
    ascending, each in fetch order, ``local`` their key codes and
    ``bounds`` each batch's non-empty ``[start, stop)``.  An edge never
    leaves its source's row, so the batches do not see one another.

    Returns a :class:`BatchResult` per batch, the indices that got their
    first accumulated entry (batch order), and the owned contributions
    to push as ``(indices, values)`` in emission order (None if none).
    """
    csr = kernel._csr
    mode = kernel._mode
    counters = kernel.counters
    acc, acc_has, pend, pend_has = columns
    size = len(batch)
    tmp = pend.take(batch)
    # every out-edge of the batches with its source's position, in
    # emission order; which of them are applied is decided below
    positions = np.arange(size)
    eids, degree = csr.edge_ids(local)
    spos = positions.repeat(degree)
    if len(eids):
        base = (batch - local).take(spos)  # each edge's row, as an offset
        place[batch] = positions
        dpos = place.take(base + csr.edst.take(eids))
        place[batch] = -1
        # edges into an owned key the batch fetches later: their values
        # reach that key's delta before it is fetched (one the shard
        # does not own is only emitted, below)
        forward = (dpos > spos).nonzero()[0]
        if len(forward):
            ends = base.take(forward) + csr.edst.take(eids.take(forward))
            forward = forward.compress(owned.take(ends))
        if len(forward):
            _settle_forward(
                kernel, acc, acc_has, tmp, batch,
                eids.take(forward), spos.take(forward), dpos.take(forward),
            )
    pend_has[batch] = False
    changed, mags, fresh = _accumulate(mode, acc, acc_has, batch, tmp, counters)
    starts = [start for start, _ in bounds]
    # per batch: the keys that changed and the edges they apply
    updated = np.add.reduceat(changed, starts, dtype=np.int64).tolist()
    fanout = np.add.reduceat(degree * changed, starts).tolist()
    mags = mags[changed]
    results = []
    done = 0
    for (start, stop), count, fan in zip(bounds, updated, fanout):
        results.append(BatchResult(
            changed=count,
            magnitude=_left_sum(mags[done:done + count]),  # batch order
            ops=stop - start + fan,
        ))
        done += count
    if not any(fanout):
        return results, fresh, None
    applied = changed.take(spos).nonzero()[0]
    counters.fprime_applications += len(applied)
    src = spos.take(applied)
    dsts, vals = csr.apply_edges(eids.take(applied), tmp.take(src))
    edge_base = base.take(applied)
    # owned destinations the batch does not fetch later -- outside it,
    # fetched already, or the source itself -- see the batch's keys
    # fetched whenever in the batch they are pushed; the forward ones
    # were folded above
    back = dpos.take(applied) <= src
    mask = owned.take(edge_base + dsts)
    near = (mask & back).nonzero()[0]
    # one mask, inverted in place: variable-length byte arrays are what
    # fills numpy's small-block cache
    far = np.logical_not(mask, out=mask).nonzero()[0]
    if len(far):
        _emit_far(results, starts, fanout, far, src, dsts, vals)
    if not len(near):
        return results, fresh, None
    return results, fresh, (edge_base.take(near) + dsts.take(near), vals.take(near))


def _emit_far(
    results: list, starts: list, fanout: list, far: Any, src: Any, dsts: Any, vals: Any
) -> None:
    """Hand each batch's foreign contributions -- the applied edges
    ``far`` (ascending) -- to its result, with the ``ops`` so far at
    each: the keys its batch fetched so far plus the edges it applied so
    far, counting the contribution's own source and edge."""
    origin = src.take(far)
    applied_before = list(accumulate(fanout, initial=0))
    cuts = far.searchsorted(applied_before).tolist()
    sizes = [hi - lo for lo, hi in zip(cuts, cuts[1:])]
    lead = np.array([
        start + before for start, before in zip(starts, applied_before)
    ]).repeat(sizes)
    offsets = far + origin - lead + 2
    far_dsts, far_vals = dsts.take(far), vals.take(far)
    for result, lo, hi in zip(results, cuts, cuts[1:]):
        if hi > lo:
            result.out = Columns(far_dsts[lo:hi], far_vals[lo:hi])
            result.offsets = offsets[lo:hi]


def _settle_forward(
    kernel: "NumpyKernel",
    acc: Any,
    acc_has: Any,
    tmp: Any,
    batch: Any,
    eids: Any,
    src: Any,
    dst: Any,
) -> None:
    """Raise ``tmp`` (the batches' deltas, by position) by the in-batch
    forward edges ``src -> dst`` (positions), level by level.

    A key's level is one more than the highest level among the sources
    of its forward edges, so when a level is folded every delta below it
    is final -- including whether its key changes, which decides if its
    edges are applied at all.  A target's own delta heads its stream and
    contributions follow in emission order: the order the reference
    pushes them in.  Levels stay per batch: a forward edge never leaves
    its batch.
    """
    mode = kernel._mode
    level = np.zeros(len(batch), dtype=np.int64)
    while True:
        raised = level[src] + 1
        if (raised <= level[dst]).all():
            break
        np.maximum.at(level, dst, raised)
    has = acc_has[batch]
    old = acc[batch]
    fold_at = _FOLD_AT[mode][0].at
    into = level[dst]
    for depth in range(1, int(level.max()) + 1):
        _, changes = _merge(mode, has, old, tmp)
        live = ((into == depth) & changes[src]).nonzero()[0]
        if len(live):
            _, vals = kernel._csr.apply_edges(eids[live], tmp[src[live]])
            fold_at(tmp, dst[live], vals)
            kernel.counters.combines += len(live)


@register_kernel
class NumpyKernel(Kernel):
    """CSR + compacted-frontier vertex runtime over float64 columns."""

    backend = "numpy"

    def __init__(
        self,
        plan: Any,
        keys: Optional[Iterable] = None,
        counters: Optional[WorkCounters] = None,
        initial: Optional[dict] = None,
    ) -> None:
        self._bind(plan, counters)
        if keys is None:
            owner = np.zeros(self._csr.n, dtype=np.int64)
        else:
            owner = _owners_of(self._index, self._csr.n, [keys])
            self._owned_mask = owner == 0
        # a lone kernel's columns: the only row of a stack nobody shares
        stack, (self._acc_order,) = _placed(
            self._index, owner, 1, plan.initial if initial is None else initial
        )
        for name in _STACKED:
            setattr(self, name, getattr(stack, name)[0])

    def _bind(self, plan: Any, counters: Optional[WorkCounters]) -> None:
        """Everything but the columns: the plan, ``⊕``, the CSR and the
        Python-side frontier state."""
        if not self.supports_plan(plan):
            raise KernelUnavailableError(
                f"NumpyKernel: aggregate {plan.aggregate.name!r} is not a "
                "float64 min/max/sum fold; use the python backend"
            )
        self.plan = plan
        self.aggregate = plan.aggregate
        self.counters = counters if counters is not None else WorkCounters()
        self._csr = plan_csr(plan)
        self._keys = self._csr.keys_sorted
        self._index = self._csr.index
        #: the float64 ufunc implementing ⊕, named by the semiring
        self._mode: str = self.aggregate.fold_mode
        #: the keys this shard owns (None: every key)
        self._owned_mask: Optional[Any] = None
        self._acc_order: list[int] = []
        #: pending indices in arrival order; may hold stale or duplicate
        #: entries, see :meth:`_pend_indices`
        self._pend_order: list[int] = []
        #: number of live pending entries (the compacted frontier size)
        self._pend_live = 0
        self._seq_next = 0
        #: the cluster stack whose row ``_row`` the columns are, if any
        self._stack: Optional[_ShardStack] = None
        self._row = 0

    def _unseat(self) -> None:
        """Leave the stack: the columns become private copies of the row."""
        assert self._stack is not None
        for name in _STACKED:
            setattr(self, name, getattr(self, name).copy())
        self._stack.seated[self._row] = None
        self._stack = None

    @classmethod
    def from_plan(
        cls,
        plan: Any,
        keys: Optional[Iterable] = None,
        counters: Optional[WorkCounters] = None,
        initial: Optional[dict] = None,
    ) -> "NumpyKernel":
        return cls(plan, keys=keys, counters=counters, initial=initial)

    @classmethod
    def shards_from_plan(
        cls,
        plan: Any,
        shard_keys: list,
        counters: Optional[WorkCounters] = None,
    ) -> list:
        """The shards as the rows of one :class:`_ShardStack`, ``X⁰``
        placed by one pass over ``plan.initial`` (not one per shard)."""
        counters = counters if counters is not None else WorkCounters()
        shards = [cls.__new__(cls) for _ in shard_keys]
        for shard in shards:
            shard._bind(plan, counters)
        csr = plan_csr(plan)
        parts = len(shards)
        owner = _owners_of(csr.index, csr.n, shard_keys)
        stack, orders = _placed(csr.index, owner, parts, plan.initial)
        owned = owner == np.arange(parts)[:, None]
        for row, shard in enumerate(shards):
            stack.bind(row, shard)
            shard._acc_order = orders[row]
            shard._owned_mask = owned[row]
        return shards

    @classmethod
    def supports_plan(cls, plan: Any) -> bool:
        """State lives in float64 arrays folded by a min/max/sum ufunc;
        non-numeric carriers (k-tropical ``KTuple``) and generic ``⊕``
        (mean) are refused and resolve to the python kernel."""
        aggregate = plan.aggregate
        return aggregate.numeric_values and aggregate.fold_mode in _FOLD_MODES

    # -- ΔX¹ (section 3.3), fused ------------------------------------------------
    @classmethod
    def initial_delta(cls, plan: Any) -> dict:
        """One fold over the stream the reference walks: each ``X⁰``
        entry, then ``C``, then ``F'(X⁰)`` in source x edge order."""
        aggregate = plan.aggregate
        csr = plan_csr(plan)
        initial = plan.initial
        base = _pair_columns(csr.index, initial.items())
        const = _pair_columns(csr.index, plan.constants.items())
        # F'(X⁰) sweeps the *raw* base values, not the C-merged x1
        dsts, contribs = csr.apply_edges(*csr.gather(base.codes, base.vals))
        stream = np.concatenate((base.codes, const.codes, dsts))
        first, rank = _rank_codes(stream, csr.n)
        uniq = stream.take(first)
        x1 = _fold_codes(
            aggregate.fold_mode,
            rank,
            np.concatenate((base.vals, const.vals, contribs)),
            len(uniq),
        )
        keys = csr.keys_sorted
        subtract = aggregate.subtract
        delta: dict = {}
        for i, value in zip(uniq.tolist(), x1.tolist()):
            key = keys[i]
            d = subtract(value, initial.get(key))
            if d is not None:
                delta[key] = d
        return delta

    # -- MonoTable protocol (scalar paths run on Python floats) -----------------
    @property
    def accumulated(self) -> dict:
        order = self._acc_order
        return dict(zip(map(self._keys.__getitem__, order), self._acc.take(order).tolist()))

    @accumulated.setter
    def accumulated(self, values: dict) -> None:
        self._acc_has[:] = False
        self._acc_order = []
        for key, value in values.items():
            i = self._index[key]
            self._acc[i] = float(value)
            self._acc_has[i] = True
            self._acc_order.append(i)

    def _pend_indices(self) -> list:
        """Live pending indices in dict-equivalent arrival order.

        ``fetch_and_reset`` leaves stale entries behind and a re-push of
        a fetched key appends a fresh occurrence; a Python dict would
        re-insert that key at the *end*.  Every no-entry -> entry
        transition stamps ``_seq``, so the live indices sorted by their
        stamps are that order -- rebuilt lazily whenever stale or
        duplicate entries exist.
        """
        order = self._pend_order
        if len(order) == self._pend_live:
            return order
        live = self._pend_has.nonzero()[0]
        rebuilt = live.take(self._seq.take(live).argsort()).tolist()
        self._pend_order = rebuilt
        return rebuilt

    def _clear_pending(self) -> None:
        """Forget the frontier's order and count (not the mask)."""
        self._pend_order = []
        self._pend_live = 0

    def _stamp_arrivals(self, arrival: Any) -> None:
        """Append ``arrival`` (index array of no-entry -> entry
        transitions, values already written) to the frontier: order,
        live count and sequence numbers."""
        self._seq[arrival] = np.arange(
            self._seq_next, self._seq_next + len(arrival), dtype=np.int64
        )
        self._enlist(arrival.tolist())

    def _enlist(self, arrived: list) -> None:
        """:meth:`_stamp_arrivals` once the sequence numbers are stamped:
        the order, live count and next sequence number."""
        self._pend_order.extend(arrived)
        self._pend_live += len(arrived)
        self._seq_next += len(arrived)

    @property
    def intermediate(self) -> dict:
        keys = self._keys
        pend = self._pend
        return {keys[i]: float(pend[i]) for i in self._pend_indices()}

    @intermediate.setter
    def intermediate(self, values: dict) -> None:
        self._pend_has[:] = False
        self._clear_pending()
        for key, value in values.items():
            self._push_idx(self._index[key], float(value))

    def push(self, key: Any, value: Any) -> None:
        self._push_idx(self._index[key], float(value))

    def _push_idx(self, i: int, value: float) -> None:
        if self._pend_has[i]:
            self._pend[i] = self.aggregate.combine(float(self._pend[i]), value)
            self.counters.combines += 1
        else:
            self._pend[i] = value
            self._pend_has[i] = True
            self._pend_order.append(i)
            self._pend_live += 1
            self._seq[i] = self._seq_next
            self._seq_next += 1

    def push_many(self, *batches: Any) -> None:
        """One fold of the concatenated batches into the pending column.

        Bit-identical to one ``push`` per tuple from any pending state:
        an existing entry heads its key's tuples in the fold (see the
        module docstring) and fresh keys are stamped in first-occurrence
        order.
        """
        columns = [
            batch
            if isinstance(batch, Columns)
            else _pair_columns(self._index, batch)
            for batch in batches
        ]
        codes = np.concatenate([column.codes for column in columns])
        vals = np.concatenate([column.vals for column in columns])
        if not len(codes):
            return
        self._stamp_arrivals(
            _ingest(self._mode, self._pend, self._pend_has, codes, vals, self.counters)
        )

    def fetch_and_reset(self, key: Any) -> Any:
        i = self._index[key]
        if not self._pend_has[i]:
            return None
        self._pend_has[i] = False  # stale entry left in _pend_order
        self._pend_live -= 1
        return float(self._pend[i])

    def drain_all(self) -> dict:
        keys = self._keys
        pend = self._pend
        live = self._pend_indices()
        drained = {keys[i]: float(pend[i]) for i in live}
        self._pend_has[live] = False
        self._clear_pending()
        return drained

    def accumulate(self, key: Any, tmp: Any) -> tuple[bool, float]:
        return self._accumulate_idx(self._index[key], tmp)

    def _accumulate_idx(self, i: int, tmp: Any) -> tuple[bool, float]:
        aggregate = self.aggregate
        if not self._acc_has[i]:
            self._acc[i] = float(tmp)
            self._acc_has[i] = True
            self._acc_order.append(i)
            self.counters.updates += 1
            return True, aggregate.delta_magnitude(tmp)
        old = float(self._acc[i])
        self.counters.combines += 1
        new = aggregate.combine(old, float(tmp))
        if new == old:
            return False, 0.0
        self._acc[i] = new
        self.counters.updates += 1
        return True, aggregate.change_magnitude(new, old, tmp)

    # -- BSP exchange -----------------------------------------------------------
    @classmethod
    def owner_table(cls, plan: Any, owner: dict) -> Any:
        """Owner per key code, in the narrowest unsigned dtype that holds
        it: numpy radix-sorts 8- and 16-bit keys, which is what makes the
        stable sort in :func:`_split_pairs` linear."""
        keys = plan_csr(plan).keys_sorted
        owners = np.fromiter(
            map(owner.__getitem__, keys), dtype=np.int64, count=len(keys)
        )
        return owners.astype(np.min_scalar_type(int(owners.max(initial=0))))

    # -- a cluster's shards: one array pass over the stack ----------------------
    @classmethod
    def cluster_round(
        cls,
        shards: list,
        owners: Any,
        parts: int,
        deltas: Optional[list] = None,
    ) -> tuple[list, dict]:
        """Every shard's round as one pass over the stack (exactness:
        "stacked shards" in the module docstring)."""
        stack = _stack_of(shards)
        stack.delivery = None
        n = stack.n
        if deltas is None:
            flat, tmp = _drain_stack(stack, shards)
        else:
            flat, tmp = _stack_deltas(shards[0]._index, n, deltas)
        workers = len(shards)
        results = [BatchResult() for _ in shards]
        if not len(flat):
            return results, {}
        first = shards[0]
        counters = first.counters
        csr = first._csr
        changed, mags, fresh = _accumulate(
            first._mode, stack.flat("_acc"), stack.flat("_acc_has"),
            flat, tmp, counters,
        )
        if len(fresh):
            for row, codes in _rows_of(fresh, n, workers):
                shards[row]._acc_order.extend(codes.tolist())
        rows = flat // n
        senders = rows[changed]
        sources = flat[changed] - senders * n
        degree = csr.indptr[sources + 1] - csr.indptr[sources]
        applied = int(degree.sum())
        counters.fprime_applications += applied
        # per worker: keys fetched, keys changed, edges applied
        fetched = np.bincount(rows, minlength=workers).tolist()
        updated = np.bincount(senders, minlength=workers).tolist()
        fanout = np.bincount(senders, weights=degree, minlength=workers)
        mags = mags[changed]
        end = 0
        for row, (count, size, edges) in enumerate(
            zip(updated, fetched, fanout.astype(np.int64).tolist())
        ):
            if size:
                end += count
                results[row] = BatchResult(
                    changed=count,
                    magnitude=_left_sum(mags[end - count:end]),
                    ops=size + edges,
                )
        if not applied:
            return results, {}
        x = tmp[changed]
        folds = [
            _out_fold(csr, first._mode, n, workers, counters,
                      sources[lo:hi], x[lo:hi], senders[lo:hi])
            for lo, hi in _runs(senders, degree)
        ]
        if len(folds) > 1:
            folds = [tuple(np.concatenate(column) for column in zip(*folds))]
        sends, stack.delivery = _split_pairs(*folds[0], owners, n, workers, parts)
        return results, sends

    @classmethod
    def cluster_ingest(cls, shards: list, inboxes: list) -> None:
        """Every inbox as one stream over the stack, folded with one
        ``ufunc.at`` (exactness: "stacked shards" in the module
        docstring)."""
        stack = _stack_of(shards)
        n = stack.n
        delivery, stack.delivery = stack.delivery, None
        if delivery is not None and delivery[0] == inboxes:
            # the last round's payloads, delivered as they were cut: their
            # concatenation is the round's pair-ordered buffer
            _, stream, sizes = delivery
        else:
            batches: list = []
            sizes = []  # per receiver
            for shard, inbox in zip(shards, inboxes):
                columns = [
                    batch
                    if isinstance(batch, Columns)
                    else _pair_columns(shard._index, batch)
                    for batch in inbox
                ]
                batches.extend(columns)
                sizes.append(sum(map(len, columns)))
            if not sum(sizes):
                return
            stream = Columns(
                np.concatenate([batch.codes for batch in batches]),
                np.concatenate([batch.vals for batch in batches]),
            )
        codes = stream.codes + np.repeat(np.arange(0, len(shards) * n, n), sizes)
        _push_rows(shards, stack, codes, stream.vals)

    @classmethod
    def send_side(cls, plan: Any, owners: Any, parts: int) -> SendSide:
        return ColumnSendSide(plan, owners, parts)

    # -- single-node MRA: one array round ---------------------------------------
    def _scatter_pending(self, dsts: Any, vals: Any) -> None:
        """Scatter a round's contributions into the (empty) pending column."""
        n = self._csr.n
        if len(vals) * _DENSE_DIVISOR >= n:
            # dense round: O(n) scratch scatter beats the O(E_f log E_f)
            # sort inside np.unique
            folded = _fold_codes(self._mode, dsts, vals, n)
            touched = np.zeros(n, dtype=bool)
            touched[dsts] = True
            uniq = np.nonzero(touched)[0]
            self._pend[uniq] = folded[uniq]
        else:
            uniq, inv = np.unique(dsts, return_inverse=True)
            self._pend[uniq] = _fold_codes(self._mode, inv, vals, len(uniq))
        self.counters.combines += len(vals) - len(uniq)
        self._pend_has[uniq] = True
        # ascending unique dsts == the np.nonzero order of the pending mask
        self._stamp_arrivals(uniq)

    def step(self) -> BatchResult:
        """The single-node MRA round, array-only: drain the frontier
        (ascending), accumulate it, apply ``F'`` along the changed keys'
        edges and scatter the contributions back into the pending
        column."""
        if not self._pend_live:
            return BatchResult()
        if self._pend_live * _DENSE_DIVISOR >= self._csr.n:
            # dense frontier: a C-speed mask scan beats list compaction
            idx = np.nonzero(self._pend_has)[0]
            tmp = self._pend[idx]
            self._pend_has[:] = False
        else:
            live = self._pend_indices()
            idx = np.fromiter(live, dtype=np.int64, count=len(live))
            idx.sort()  # canonical ascending round order
            tmp = self._pend[idx]
            self._pend_has[idx] = False
        self._clear_pending()
        changed, mags, fresh = _accumulate(
            self._mode, self._acc, self._acc_has, idx, tmp, self.counters
        )
        if len(fresh):
            self._acc_order.extend(fresh.tolist())
        n_changed = int(changed.sum())
        magnitude = _left_sum(mags[changed])  # ascending order
        ops = len(idx)
        if n_changed:
            eids, x_per_edge = self._csr.gather(idx[changed], tmp[changed])
            ops += len(eids)
            self.counters.fprime_applications += len(eids)
            if len(eids):
                self._scatter_pending(*self._csr.apply_edges(eids, x_per_edge))
        return BatchResult(changed=n_changed, magnitude=magnitude, ops=ops)

    @classmethod
    def window_local(
        cls,
        shards: list,
        inboxes: dict,
        limits: dict,
        threshold: Optional[float] = None,
        best_first: bool = False,
    ) -> dict:
        """The window's process events as one pass over the stack: one
        ingest of every inbox, one selection over the members' pending
        entries and one :func:`_local_pass` over their batches (exactness:
        "a lookahead window" in :mod:`repro.runtime.base`)."""
        stack = _stack_of(shards)
        stack.delivery = None
        n = stack.n
        members = sorted(inboxes)
        # every member's inbox as one stream, members ascending
        index = shards[0]._index
        codes_in: list = []
        vals_in: list = []
        rows_in: list = []
        sizes_in: list = []
        for worker in members:
            if inboxes[worker]:
                total = 0
                for payload in inboxes[worker]:
                    if not isinstance(payload, Columns):
                        payload = _pair_columns(index, payload)
                    codes_in.append(payload.codes)
                    vals_in.append(payload.vals)
                    total += len(payload.codes)
                rows_in.append(worker * n)
                sizes_in.append(total)
        if codes_in:
            codes = np.concatenate(codes_in)
            codes += np.array(rows_in, dtype=np.int64).repeat(sizes_in)
            _push_rows(shards, stack, codes, np.concatenate(vals_in))
        outcomes: dict = dict.fromkeys(members)
        active = [w for w in members if shards[w]._pend_live]
        if not active:
            return outcomes
        # every active member's live pending entries in arrival order
        orders = [shards[w]._pend_indices() for w in active]
        lens = [len(order) for order in orders]
        codes = np.fromiter(chain.from_iterable(orders), dtype=np.int64, count=sum(lens))
        flat = codes + np.array(active, dtype=np.int64).repeat(lens) * n
        # select_pending's rule per member, members kept apart, then
        # each member's first ``limits[w]``
        if best_first:
            # stable: ties stay in arrival order, as sorted() leaves them
            slot = np.arange(len(active)).repeat(lens)
            pick = np.lexsort((stack.flat("_pend").take(flat), slot))
            counts = lens
        elif threshold is not None:
            pick = (np.abs(stack.flat("_pend").take(flat)) >= threshold).nonzero()[0]
            cuts = pick.searchsorted(list(accumulate(lens, initial=0))).tolist()
            counts = [hi - lo for lo, hi in zip(cuts, cuts[1:])]
        else:
            pick = np.arange(len(flat))
            counts = lens
        taken = [
            count if limits[w] is None else min(count, limits[w])
            for w, count in zip(active, counts)
        ]
        if taken != counts:
            kept = []
            start = 0
            for count, keep in zip(counts, taken):
                kept.append(pick[start:start + keep])
                start += count
            pick = np.concatenate(kept)
        # what each member leaves pending, in arrival order
        left = np.ones(len(flat), dtype=bool)
        left[pick] = False
        rest = codes[left].tolist()
        start = 0
        for worker, size, count in zip(active, lens, taken):
            shard = shards[worker]
            shard._pend_order = rest[start:start + size - count]
            shard._pend_live = size - count
            start += size - count
        results: Iterator = iter(())
        if len(pick):
            bounds = []
            start = 0
            for count in taken:
                if count:
                    bounds.append((start, start + count))
                start += count
            passed, fresh, near = _local_pass(
                shards[0],
                tuple(stack.flat(name) for name in ("_acc", "_acc_has", "_pend", "_pend_has")),
                stack.owned_flat(),
                stack.positions(),
                flat.take(pick),
                codes.take(pick),
                bounds,
            )
            results = iter(passed)
            if len(fresh):
                for row, fresh_codes in _rows_of(fresh, n, len(shards)):
                    shards[row]._acc_order.extend(fresh_codes.tolist())
            if near is not None:
                _push_rows(shards, stack, *near)
        for worker, count in zip(active, taken):
            outcomes[worker] = (count, next(results) if count else BatchResult())
        return outcomes

    # -- whole-table sweep (naive BSP mode) -------------------------------------
    @classmethod
    def full_contributions(cls, plan: Any, values: dict) -> list:
        csr = plan_csr(plan)
        index = csr.index
        m = len(values)
        if m == 0:
            return []
        idx = np.empty(m, dtype=np.int64)
        vals = np.empty(m, dtype=np.float64)
        for j, (key, value) in enumerate(values.items()):
            idx[j] = index[key]
            vals[j] = value
        eids, x_per_edge = csr.gather(idx, vals)
        if len(eids) == 0:
            return []
        dsts, out_vals = csr.apply_edges(eids, x_per_edge)
        counts = csr.indptr[idx + 1] - csr.indptr[idx]
        src_per_edge = np.repeat(idx, counts)
        keys = csr.keys_sorted
        return [
            (keys[s], keys[d], v)
            for s, d, v in zip(
                src_per_edge.tolist(), dsts.tolist(), out_vals.tolist()
            )
        ]

    # -- repair walks (repro.delta), on the CSR ---------------------------------
    @classmethod
    def forward_closure(cls, plan: Any, seeds: Iterable, pairs: Iterable = ()) -> set:
        """Level by level: one ``edge_ids`` per level marks a mask over
        the key codes.  ``pairs`` are few (a delta's removed edges) and
        may name keys the plan no longer has, so they are stepped along
        in Python between CSR closures until nothing moves."""
        csr = plan_csr(plan)
        index = csr.index
        mask = np.zeros(csr.n, dtype=bool)
        seeds = set(seeds)
        outside = {key for key in seeds if key not in index}
        pairs = list(pairs)

        def reached(key: Any) -> bool:
            code = index.get(key)
            return key in outside if code is None else bool(mask[code])

        frontier = [index[key] for key in seeds if key in index]
        while True:
            frontier = np.asarray(frontier, dtype=np.int64)
            while len(frontier):
                mask[frontier] = True
                dsts = csr.edst[csr.edge_ids(frontier)[0]]
                frontier, _ = _first_codes(dsts[~mask[dsts]], csr.n)
            frontier = []
            stepped = False
            for src, dst in pairs:
                if reached(src) and not reached(dst):
                    stepped = True
                    code = index.get(dst)
                    if code is None:
                        outside.add(dst)
                    else:
                        mask[code] = True
                        frontier.append(code)
            if not stepped:
                break
        keys = csr.keys_sorted
        outside.update(map(keys.__getitem__, mask.nonzero()[0].tolist()))
        return outside

    @classmethod
    def boundary_contributions(
        cls, plan: Any, values: dict, targets: set
    ) -> "Columns":
        """One ``gather`` over the valued sources, masked to the edges
        that land in ``targets``, one ``apply_edges`` over what is left."""
        csr = plan_csr(plan)
        index = csr.index
        sources = _pair_columns(index, values.items())
        inside = np.zeros(csr.n, dtype=bool)
        inside[[index[key] for key in targets if key in index]] = True
        eids, x_per_edge = csr.gather(sources.codes, sources.vals)
        keep = inside[csr.edst[eids]]
        return Columns(*csr.apply_edges(eids[keep], x_per_edge[keep]))

    # -- inspection over the compacted frontier ---------------------------------
    def has_pending(self) -> bool:
        return self._pend_live > 0

    def pending_count(self) -> int:
        return self._pend_live

    def pending_min(self) -> float:
        live = self._pend_indices()
        if not live:
            return math.inf
        return float(self._pend[live].min())

    def take_pending_below(self, threshold: float) -> dict:
        keys = self._keys
        pend = self._pend
        has = self._pend_has
        take: dict = {}
        keep: list[int] = []
        for i in self._pend_indices():
            value = float(pend[i])
            if value <= threshold:
                take[keys[i]] = value
                has[i] = False
            else:
                keep.append(i)
        self._pend_order = keep
        self._pend_live = len(keep)
        return take

    def result(self) -> dict:
        return self.accumulated

    # -- checkpointing / recovery -----------------------------------------------
    def snapshot(self) -> dict:
        return {
            "acc": self._acc.copy(),
            "acc_has": self._acc_has.copy(),
            "acc_order": list(self._acc_order),
            "pend": self._pend.copy(),
            "pend_has": self._pend_has.copy(),
            # the live order: the stamps it is read off are not kept
            "pend_order": list(self._pend_indices()),
        }

    def restore(self, snap: dict) -> None:
        # into the columns the kernel holds: a shard stays in its stack row
        self._acc[:] = snap["acc"]
        self._acc_has[:] = snap["acc_has"]
        self._acc_order = list(snap["acc_order"])
        self._pend[:] = snap["pend"]
        self._pend_has[:] = snap["pend_has"]
        self._pend_order = list(snap["pend_order"])
        self._pend_live = int(self._pend_has.sum())
        # re-stamp arrivals in dict-equivalent order
        live = np.asarray(self._pend_indices(), dtype=np.int64)
        self._clear_pending()
        self._seq_next = 0
        self._stamp_arrivals(live)


class ColumnSendSide(SendSide):
    """The send side over key codes.

    A key has exactly one owner, so one value/has column pair over the
    plan's key codes holds every target's box at once and a whole
    event's stream goes in with one fold; what is kept per target is
    only the order its keys first arrived in.
    """

    def __init__(self, plan: Any, owners: Any, parts: int) -> None:
        csr = plan_csr(plan)
        self._index = csr.index
        self._mode: str = plan.aggregate.fold_mode
        self._combine = plan.aggregate.combine
        self._owners = owners
        self._parts = parts
        self._val = np.zeros(csr.n, dtype=np.float64)
        self._has = np.zeros(csr.n, dtype=bool)
        #: per target: the codes it holds, in first-occurrence order
        self._order: list[list[int]] = [[] for _ in range(parts)]

    def fill(self, buffers: dict, out: Any, offsets: Any) -> Iterator[tuple]:
        """One fold for the targets whose buffers the batch cannot fill,
        a contribution-at-a-time replay for the others (exactness: the
        crossing test in :mod:`repro.runtime.base`)."""
        owners, parts = self._owners, self._parts
        codes = out.codes
        targets = owners.take(codes)
        adds = np.bincount(targets, minlength=parts).tolist()
        arrived = _arrivals(self._has, codes)
        bound = owners.take(arrived)
        fresh = np.bincount(bound, minlength=parts).tolist()
        filling = []
        for target, count in enumerate(adds):
            if count:
                buffer = buffers[target]
                if buffer.pending_count + fresh[target] >= buffer.beta:
                    filling.append(target)
                else:
                    buffer.add(count, fresh[target])
        if not filling:
            self._fold(codes, out.vals, arrived, bound, fresh)
            return
        chosen = np.zeros(parts, dtype=bool)
        chosen[filling] = True
        replayed = chosen.take(targets)
        picked = replayed.nonzero()[0]
        if len(picked) < len(codes):
            rest = np.logical_not(replayed, out=replayed)
            # a key has one owner: the rest's new keys are the stream's
            # minus the filling targets'
            kept = np.logical_not(chosen.take(bound))
            for target in filling:
                fresh[target] = 0
            self._fold(
                codes[rest], out.vals[rest], arrived[kept], bound[kept], fresh
            )
        yield from self._replay(
            buffers, codes[picked], out.vals[picked], offsets[picked]
        )

    def _replay(
        self, buffers: dict, codes: Any, vals: Any, offsets: Any
    ) -> Iterator[tuple]:
        """The reference loop over key codes, in emission order; a
        buffer is told what it got once per stretch between flushes."""
        combine = self._combine
        val, has, order = self._val, self._has, self._order
        tally: dict[int, list[int]] = {}  # target -> [adds, fresh] untold
        for target, code, value, offset in zip(
            self._owners.take(codes).tolist(),
            codes.tolist(),
            vals.tolist(),
            offsets.tolist(),
        ):
            untold = tally.get(target)
            if untold is None:
                untold = tally[target] = [0, 0]
            untold[0] += 1
            if has[code]:
                val[code] = combine(float(val[code]), value)
            else:
                val[code] = value
                has[code] = True
                order[target].append(code)
                untold[1] += 1
            buffer = buffers[target]
            if buffer.pending_count + untold[1] >= buffer.beta:
                buffer.add(*untold)
                del tally[target]
                yield target, buffer, offset
        for target, untold in tally.items():
            buffers[target].add(*untold)

    def fold(self, out: Any) -> None:
        if not isinstance(out, Columns):
            out = _pair_columns(self._index, out)
        if len(out):
            arrived = _arrivals(self._has, out.codes)
            bound = self._owners.take(arrived)
            self._fold(
                out.codes, out.vals, arrived, bound,
                np.bincount(bound, minlength=self._parts).tolist(),
            )

    def _fold(
        self, codes: Any, vals: Any, arrived: Any, bound: Any, counts: list
    ) -> None:
        """Fold a stream; ``arrived`` is its keys not held yet, in
        first-occurrence order, ``bound`` their targets and ``counts``
        how many each target gets."""
        _fold_stream(self._mode, self._val, self._has, codes, vals, arrived)
        # hand the new keys to their targets' orders: a stable sort by
        # target keeps first-occurrence order inside each
        arrived = arrived.take(bound.argsort(kind="stable")).tolist()
        start = 0
        for target, count in enumerate(counts):
            if count:
                self._order[target].extend(arrived[start:start + count])
                start += count

    def take(self, target: int) -> Columns:
        payload = self.peek(target)
        self._has[payload.codes] = False
        self._order[target] = []
        return payload

    def peek(self, target: int) -> Columns:
        codes = np.array(self._order[target], dtype=np.int64)
        return Columns(codes, self._val.take(codes))

    def put(self, target: int, payload: Columns) -> None:
        self.take(target)
        self._val[payload.codes] = payload.vals
        self._has[payload.codes] = True
        self._order[target] = payload.codes.tolist()


#: accepted alias: ``backend="sparse"`` names this kernel too
KERNELS["sparse"] = NumpyKernel
