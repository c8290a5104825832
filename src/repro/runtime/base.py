"""The vertex-runtime kernel contract.

A :class:`Kernel` is paper Figure 7's MonoTable for one partition: the
accumulation and intermediate columns, the fetch/reset/accumulate/push
protocol over them, and the recursive inner loop that protocol runs --
fetch pending deltas, combine them into the accumulation column with
``G``, apply ``F'`` along the compiled plan's out-edges, and route the
resulting contributions.  There is no separate table class: the
engines -- single-node MRA and all four distributed modes -- only
*schedule* kernels, and checkpoint them
(:class:`~repro.distributed.fault.Checkpointer`).

Two interchangeable backends implement the contract:

* :class:`~repro.runtime.python_kernel.PythonKernel` -- the reference
  dict-based loop; it executes every program;
* :class:`~repro.runtime.numpy_kernel.NumpyKernel` -- the array kernel:
  CSR-packed edges, vectorised batch aggregation over float64 columns
  and a compacted frontier, for numeric min/max/sum programs.

Both are engineered to be *bit-identical*: same fixpoint values, same
``WorkCounters``, same simulated timing, same fault accounting (see
DESIGN.md, "Runtime layer").  The backend is chosen per engine
(``backend=``), per process (``REPRO_BACKEND``), or per CLI invocation
(``--backend``); the name is a preference, and a program whose carrier
the array kernel cannot hold resolves to ``python``
(:func:`resolve_backend_for_plan`).  ``sparse`` is an accepted alias of
``numpy``.

What a backend implements
-------------------------

The engines call four *loops* on a kernel class: :meth:`Kernel.step`
(a single-node MRA round), :meth:`Kernel.cluster_round` and
:meth:`Kernel.cluster_ingest` (a BSP superstep over a cluster's shards)
and :meth:`Kernel.window_local` (an asynchronous lookahead window) --
besides the MonoTable protocol, the delta-stepping takes, the sweeps and
walks below, and snapshot/restore.  The base class writes each loop
over three *per-shard operations*: :meth:`Kernel.apply_batch` (one
round, or one asynchronous batch), :meth:`Kernel.select_pending` (that
batch) and :meth:`Kernel.split_out` (a round's output cut per target).
A backend implements one or the other:

* the per-shard operations, inheriting the loops -- the python kernel,
  which is the reference;
* the loops themselves -- the array kernel overrides all four with one
  array pass over its shards' stacked rows, and has no per-shard round,
  batch selection or split of its own.

Unified work accounting
-----------------------

Historically the sync engine counted ``fprime_applications`` as
*accumulates + edge applications* while MRA and async counted slightly
different mixes.  The kernel is now the single place counters are
incremented, with one meaning everywhere:

* ``fprime_applications`` -- number of ``F'`` edge applications;
* ``combines`` -- number of times the binary ``g`` actually executed
  (accumulating onto an existing entry, folding an outbox, pushing onto
  a non-empty intermediate entry);
* ``updates`` -- accumulation-column entries that changed.

The simulated cost models keep their original currency --
*accumulate attempts + edge applications* -- which every round returns
separately as :attr:`BatchResult.ops` so unifying the observable metrics
does not silently re-price ``simulated_seconds``.

Payloads
--------

The per-target parts of a round's outbound contributions (what
:meth:`Kernel.cluster_round` sends) and an asynchronous batch's foreign
contributions (:attr:`BatchResult.out`) are *payloads*: values only the
kernel class that produced them can read.  An engine may take a
payload's ``len()`` -- the destination tuples the network cost model
charges for -- hold it (outbox, retransmit queue, snapshot) and hand it
back to a kernel of the same class through :meth:`Kernel.push_many`;
nothing else.  A payload is never mutated
after it is produced and never aliases kernel state, so a parked one
survives later rounds and restores unchanged.  The python kernel's
payloads are lists of ``(key, value)`` pairs, the array kernel's are
``(key code, value)`` column pairs.  A *round* payload keeps destinations
pre-folded with ``g`` in first-occurrence order; a *local-mode* payload
(below) is the raw stream, one entry per ``F'`` application.

Local mode, the send side and the inbox (the asynchronous engines)
-------------------------------------------------------------------

An asynchronous worker processes a *batch* of its own pending keys per
event; in the reference loop :meth:`Kernel.select_pending` picks the
batch and ``apply_batch(keys=batch)`` runs it a key at a time.  Three
exactness arguments let the array kernel's window pass run it
set-at-a-time while staying bit-identical to that reference:

* **A batch is Gauss--Seidel, not Jacobi.**  Keys are fetched in batch
  order, so a contribution to an owned key *later in the same batch* is
  folded into that key's pending value before it is fetched, and whether
  its source propagates at all depends on the source's own, possibly
  just-raised, delta.  The array kernel schedules the batch by *levels*
  of those in-batch forward edges (a key's level is one more than the
  highest level among its in-batch predecessors); level by level it
  folds ``F'`` of the changing sources into their targets, the target's
  own pending value heading its stream and contributions following in
  (source position, edge) order -- the order the reference pushes them
  in.  Everything else in the batch has no order left to respect: one
  accumulate, one ``F'`` over the edges of the changed keys, one
  ``push_many`` for the owned destinations that are not later batch
  keys.  Destinations the shard does not own are *not* folded: they come
  back in :attr:`BatchResult.out`, in emission order, with the
  ``ops_so_far`` each one was emitted at in :attr:`BatchResult.offsets`
  (fetched keys so far + applied edges so far, unchanged keys included).
* **The crossing test.**  A :class:`SendSide` holds what a worker's
  per-target flush buffers contain; :meth:`SendSide.fill` adds a batch's
  foreign stream to it and reports the buffers that fill on the way.
  The reference does that a contribution at a time.  The array kernel
  uses that a buffer's distinct-key count only grows until it is
  flushed: target ``t`` fills during a batch *iff* ``pending_count +
  fresh >= beta``, ``fresh`` being the batch's keys for ``t`` that are
  not buffered yet (one ``bincount``).  Every other target's part of the
  stream goes in with one fold; only the filling targets are replayed
  contribution by contribution, merged in emission order, because
  ``beta`` adapts at every flush and the order of flushes across targets
  is observable.
* **The drain rule.**  A delivered payload is parked in the receiver's
  inbox and ingested with one ``push_many(*inbox)`` -- whose outcome is
  by contract that of one ``push`` per tuple in arrival order -- before
  anything reads or replaces the receiver's pending column or the work
  counters: selecting a batch, a checkpoint or snapshot, blanking or
  restoring a shard, the end of the run.

A cluster's shards (the BSP superstep)
-------------------------------------

The shards of one simulated cluster are built together
(:meth:`Kernel.shards_from_plan`), and a synchronous superstep is two
class operations over all of them: :meth:`Kernel.cluster_round` (every
worker's round, its output cut per ``(sender, target)`` pair) and
:meth:`Kernel.cluster_ingest` (every receiver's inbox).  The base class
holds each as the per-shard loop -- the reference, and what the python
kernel runs; the array kernel stacks its shards' columns and runs each
as one array pass (:mod:`repro.runtime.numpy_kernel`), so a superstep's
host cost does not grow with the number of workers.

A lookahead window (the asynchronous engines)
---------------------------------------------

An asynchronous engine runs the kernel half of its process events --
ingest, select, ``apply_batch(keys=...)`` -- a *window* at a time, with
one :meth:`Kernel.window_local` call (conservative lookahead, as in
parallel discrete-event simulation).  Every delivery lands at least one
message latency ``L`` after the event that sends it, and between two
master events a fault-free shard is changed only by its own process
events.  So at the instant ``T`` of a process event, every delivery
that lands in ``[T, T + L)`` is already queued, and each worker's
*first* process event in that window is fully determined: its shard,
its inbox plus the window's deliveries to it ordered ``(time, seq)``
before the event, and its batch limit at that turn.  The engine closes a
window early at any event that reads or writes shard state (the master,
checkpoints, crashes, restarts, and under fault injection deliveries,
acks and retransmits), and everything else -- send sides, flushes,
timers, clocks, the random stretch draws -- stays sequential in queue
order, consuming the precomputed :class:`BatchResult`.  The base class
runs the workers one after another; the array kernel runs the window's
local rounds as one Gauss--Seidel pass over the stacked shard rows,
each worker's batch in its own row.

Repair walks (:mod:`repro.delta`)
---------------------------------

Re-deriving after a deletion needs two walks over the plan's edges, and
like :meth:`Kernel.full_contributions` they are class operations, so a
backend runs them over the edge structure it already packs:

* :meth:`Kernel.forward_closure` -- the keys reachable from a seed set
  along the plan's edges plus a few extra ``(src, dst)`` pairs (a
  delta's removed edges, whose endpoints need not be plan keys any
  more).  Every backend returns the same *set*.
* :meth:`Kernel.boundary_contributions` -- ``F'(x)`` along every edge
  from a valued key into a target set, as a batch for
  :meth:`Kernel.push_many`: the same contributions on every backend
  (values as that backend's kernels hold them), one per edge, unfolded,
  so its ``len()`` is the number of seeds the repair reports.

The base class holds both as loops over ``plan.out_edges`` -- the
reference, and what the python kernel (which needs that view anyway)
runs; the array kernel does them on the CSR and never builds the view.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, TypeVar

from repro.engine.result import WorkCounters

DEFAULT_BACKEND = "python"

#: environment variable consulted when no explicit backend is given
BACKEND_ENV_VAR = "REPRO_BACKEND"


class KernelUnavailableError(ImportError):
    """The array kernel was handed a plan it cannot hold: its carrier is
    not a float64 min/max/sum fold."""


@dataclass
class BatchResult:
    """Outcome of one kernel propagation round over a batch of deltas."""

    #: outbound contributions as a payload (see the module docstring).
    #: Round mode: one ``g``-folded entry per destination in
    #: first-occurrence order.  Local mode: the contributions to keys the
    #: kernel does not own, unfolded, in emission order
    out: Any = ()
    #: local mode only: per entry of ``out``, the round's ``ops`` so far
    #: when it was emitted (the instant a mid-batch flush is priced at)
    offsets: Any = ()
    #: accumulation-column entries that changed
    changed: int = 0
    #: total delta magnitude of the changed entries (termination input)
    magnitude: float = 0.0
    #: cost-model currency: accumulate attempts + edge applications
    ops: int = 0


class SendSide:
    """What one worker's per-target flush buffers hold: its outgoing
    contributions, ``g``-folded per destination key, each target's keys
    in first-occurrence order.

    A flush buffer (:class:`repro.distributed.buffers.FixedBuffer`) keeps
    the policy -- ``beta``, its distinct-key count ``pending_count`` --
    and is told through ``add(adds, fresh)`` what :meth:`fill` put here
    for its target.

    This is the python kernel's form and the reference: one dict per
    target over ``(key, value)`` pairs, one contribution at a time.  The
    array kernel overrides every method with columns over key codes.
    """

    def __init__(self, plan: Any, owners: Any, parts: int) -> None:
        self._combine = plan.aggregate.combine
        self._owners = owners
        self._boxes: list[dict] = [{} for _ in range(parts)]

    def fill(self, buffers: dict, out: Any, offsets: Any) -> Iterator[tuple]:
        """Move one batch's foreign contributions (a local-mode payload
        and its ``ops_so_far`` column) into the boxes, telling each
        target's buffer in ``buffers`` what it got.

        Yields ``(target, buffer, ops_so_far)`` each time a buffer
        reaches ``beta``; the caller flushes it (:meth:`take`) before
        resuming, so the next contribution for that target starts an
        empty box under whatever ``beta`` the flush adapted.  A buffer is
        told what it got once per stretch between flushes: nothing reads
        it in between.
        """
        owners = self._owners
        boxes = self._boxes
        combine = self._combine
        # per target: the adds and fresh keys its buffer was not told yet
        adds = [0] * len(boxes)
        fresh = [0] * len(boxes)
        for (key, value), offset in zip(out, offsets):
            target = owners[key]
            box = boxes[target]
            adds[target] += 1
            if key in box:
                box[key] = combine(box[key], value)
            else:
                box[key] = value
                fresh[target] += 1
            buffer = buffers[target]
            if buffer.pending_count + fresh[target] >= buffer.beta:
                buffer.add(adds[target], fresh[target])
                adds[target] = fresh[target] = 0
                yield target, buffer, offset
        for target, count in enumerate(adds):
            if count:
                buffers[target].add(count, fresh[target])

    def fold(self, out: Any) -> None:
        """Fold a stream (a payload or ``(key, value)`` pairs) into the
        boxes with no buffer watching -- a recovery replay's messages."""
        owners = self._owners
        boxes = self._boxes
        combine = self._combine
        for key, value in out:
            box = boxes[owners[key]]
            if key in box:
                box[key] = combine(box[key], value)
            else:
                box[key] = value

    def take(self, target: int) -> Any:
        """Hand out ``target``'s box as a payload and empty it."""
        payload = self.peek(target)
        self._boxes[target] = {}
        return payload

    def peek(self, target: int) -> Any:
        """``target``'s box as a payload (a copy; the box keeps it)."""
        return list(self._boxes[target].items())

    def put(self, target: int, payload: Any) -> None:
        """Replace ``target``'s box with a payload :meth:`peek` made."""
        self._boxes[target] = dict(payload)


class Kernel:
    """Base class/contract for vertex-runtime execution backends (the
    module docstring says which operations a backend implements).

    The MonoTable attribute protocol -- ``aggregate`` / ``accumulated``
    / ``intermediate`` plus the push/fetch/drain/accumulate methods --
    is what :class:`~repro.distributed.fault.Checkpointer` reads and
    writes, on every backend.
    """

    backend = "abstract"

    #: the plan's aggregate (semiring ⊕); set by concrete ``__init__``s
    aggregate: Any

    #: Figure 7's two columns as ``key -> value`` dicts (assignable: a
    #: checkpoint restore replaces them whole)
    accumulated: dict
    intermediate: dict

    #: unified work accounting (see module docstring)
    counters: WorkCounters

    # -- construction -----------------------------------------------------------
    @classmethod
    def from_plan(
        cls,
        plan: Any,
        keys: Optional[Iterable] = None,
        counters: Optional[WorkCounters] = None,
        initial: Optional[dict] = None,
    ) -> "Kernel":
        """Build per-partition state for ``keys`` (all plan keys if None)."""
        raise NotImplementedError

    @classmethod
    def supports_plan(cls, plan: Any) -> bool:
        """Can this backend execute ``plan``'s semiring carrier?

        The default is universal support.  The array kernel, whose
        state lives in float64 columns, overrides this to refuse plans
        over non-numeric semiring carriers (e.g. k-tropical ``KTuple``
        values); :func:`resolve_backend_for_plan` sends those to the
        python kernel.
        """
        return True

    # -- ΔX¹ (section 3.3) ------------------------------------------------------
    @classmethod
    def initial_delta(cls, plan: Any) -> dict:
        """``ΔX¹`` such that ``X¹ = G(ΔX¹ ∪ X⁰)`` (section 3.3).

        The reference implementation lives in
        :func:`repro.engine.mra.compute_initial_delta`; backends may
        override with a fused equivalent but must return the *same dict
        in the same key order* -- insertion order is observable through
        the pending column (async batch selection, delta-stepping
        takes), so this is part of the bit-exactness contract.
        """
        from repro.engine.mra import compute_initial_delta

        return compute_initial_delta(plan)

    # -- MonoTable protocol (Figure 7) ------------------------------------------
    def push(self, key: Any, value: Any) -> None:
        raise NotImplementedError

    def push_many(self, *batches: Any) -> None:
        """Fold ``batches`` into the pending column, in the order given.

        Each batch is an iterable of ``(key, value)`` pairs or a payload
        of this kernel class; the outcome -- pending values, their
        insertion order, ``combines`` -- is that of one :meth:`push` per
        tuple over the concatenation, whatever was pending before.
        """
        for batch in batches:
            for key, value in batch:
                self.push(key, value)

    def fetch_and_reset(self, key: Any) -> Any:
        raise NotImplementedError

    def drain_all(self) -> dict:
        raise NotImplementedError

    def accumulate(self, key: Any, tmp: Any) -> tuple[bool, float]:
        raise NotImplementedError

    # -- per-shard operations (what the reference loops call) -------------------
    def select_pending(
        self,
        threshold: Optional[float] = None,
        best_first: bool = False,
        limit: Optional[int] = None,
    ) -> Any:
        """The pending keys an asynchronous worker processes next
        (:meth:`window_local`'s reference loop), as the batch
        ``apply_batch(keys=...)`` takes (take its ``len()``; nothing
        else).

        ``best_first`` (selective aggregates) orders by pending value,
        smallest first, ties in arrival order -- a realistic async
        priority.  Otherwise arrival order, keeping only deltas of
        magnitude ``>= threshold`` when one is given (section 5.4: the
        rest stay cached in the pending column, combining with later
        arrivals until they matter).  At most ``limit`` keys.
        """
        raise NotImplementedError

    def apply_batch(
        self,
        deltas: Optional[dict] = None,
        *,
        keys: Any = None,
    ) -> BatchResult:
        """Run one F'/G propagation round.

        Round mode (``deltas``): accumulate every delta (in canonical
        ascending key order on every backend), apply ``F'`` along the
        changed keys' out-edges and return the contributions pre-folded
        per destination in :attr:`BatchResult.out` -- the caller routes
        them (:meth:`cluster_round` cuts them per target, :meth:`step`
        pushes them back).  With no argument at all the round runs over
        everything pending, drained first: ``apply_batch(drain_all())``
        without the dict in between.

        Local mode (``keys``, a batch of distinct pending keys from
        :meth:`select_pending`): process the batch *in the given order*,
        fetching each key's pending entry at its turn (so contributions
        pushed by earlier keys of the same batch are visible --
        asynchronous semantics).  Contributions for keys owned by this
        kernel are pushed; foreign ones come back unfolded in
        :attr:`BatchResult.out`, in emission order, with
        :attr:`BatchResult.offsets` -- enough for the caller to
        reproduce its buffer-flush timing exactly (module docstring).
        """
        raise NotImplementedError

    # -- single-node MRA --------------------------------------------------------
    def step(self) -> BatchResult:
        """Drain everything pending and run one full self-routed round."""
        result = self.apply_batch()
        self.push_many(result.out)
        return result

    # -- BSP exchange -----------------------------------------------------------
    @classmethod
    def owner_table(cls, plan: Any, owner: dict) -> Any:
        """The partition map ``key -> worker`` in the form this class's
        cluster round and send side route by; built once per run."""
        return owner

    @classmethod
    def split_out(cls, out: Any, owners: Any, parts: int) -> list:
        """Cut a round's :attr:`BatchResult.out` into one payload per
        target worker, each keeping ``out``'s destination order."""
        boxes: list[list] = [[] for _ in range(parts)]
        for pair in out:
            boxes[owners[pair[0]]].append(pair)
        return boxes

    # -- a cluster's shards (one BSP superstep) ---------------------------------
    @classmethod
    def shards_from_plan(
        cls,
        plan: Any,
        shard_keys: list,
        counters: Optional[WorkCounters] = None,
    ) -> list:
        """One kernel per partition of ``shard_keys``, each holding its
        keys' ``X⁰``, all counting into ``counters``."""
        return [
            cls.from_plan(plan, keys=keys, counters=counters)
            for keys in shard_keys
        ]

    @classmethod
    def cluster_round(
        cls,
        shards: list,
        owners: Any,
        parts: int,
        deltas: Optional[list] = None,
    ) -> tuple[list, dict]:
        """One superstep's rounds over all of a cluster's ``shards``
        (built by :meth:`shards_from_plan`, one ``WorkCounters``).

        Worker ``w`` runs ``apply_batch()`` over everything it has
        pending -- ``apply_batch(deltas[w])`` when ``deltas`` holds one
        dict per worker (delta-stepping) -- and its ``out`` is cut by
        :meth:`split_out`.  Returns ``(results, sends)``: per worker a
        :class:`BatchResult` with that round's ``changed``,
        ``magnitude`` and ``ops`` (``out`` is empty), and
        ``(sender, target) -> payload`` for every non-empty pair, senders
        ascending, each sender's targets ascending.

        This loop is the reference; a backend may override it with one
        pass over all shards that leaves the same results, payloads,
        counters and shard state, bit for bit.
        """
        results = []
        sends: dict = {}
        for sender, shard in enumerate(shards):
            result = shard.apply_batch(None if deltas is None else deltas[sender])
            boxes = cls.split_out(result.out, owners, parts)
            for target, payload in enumerate(boxes):
                if len(payload):
                    sends[sender, target] = payload
            result.out = ()
            results.append(result)
        return results, sends

    @classmethod
    def cluster_ingest(cls, shards: list, inboxes: list) -> None:
        """Fold every receiver's inbox -- its payloads (or ``(key,
        value)`` batches) in arrival order -- into its pending column.

        The reference is one ``push_many(*inbox)`` per non-empty inbox; a
        backend's override must leave the same state and counters.
        """
        for shard, inbox in zip(shards, inboxes):
            if inbox:
                shard.push_many(*inbox)

    # -- a lookahead window (the asynchronous engines) --------------------------
    @classmethod
    def window_local(
        cls,
        shards: list,
        inboxes: dict,
        limits: dict,
        threshold: Optional[float] = None,
        best_first: bool = False,
    ) -> dict:
        """The kernel half of one process event per worker in
        ``inboxes`` (worker -> the payloads it ingests first), over a
        cluster's ``shards`` (built by :meth:`shards_from_plan`).

        Worker ``w`` ingests its inbox, selects its batch with
        :meth:`select_pending` (``threshold``, ``best_first``,
        ``limits[w]``) and runs it with ``apply_batch(keys=...)``.
        Returns worker -> ``None`` when nothing was pending after the
        ingest, else ``(taken, result)``: the batch's size and its
        :class:`BatchResult` (``BatchResult()`` for an empty batch).

        This loop is the reference; a backend may override it with one
        pass over all shards that leaves the same outcomes, payloads,
        counters and observable shard state, bit for bit.
        """
        outcomes: dict = {}
        for worker, inbox in inboxes.items():  # shards do not share state
            shard = shards[worker]
            if inbox:
                shard.push_many(*inbox)
            if not shard.has_pending():
                outcomes[worker] = None
                continue
            batch = shard.select_pending(threshold, best_first, limits[worker])
            taken = len(batch)
            outcomes[worker] = (
                taken, shard.apply_batch(keys=batch) if taken else BatchResult()
            )
        return outcomes

    # -- asynchronous send side -------------------------------------------------
    @classmethod
    def send_side(cls, plan: Any, owners: Any, parts: int) -> SendSide:
        """An empty :class:`SendSide` over :meth:`owner_table`'s
        ``owners``, reading this kernel class's payloads."""
        return SendSide(plan, owners, parts)

    # -- whole-table sweep (naive BSP mode) -------------------------------------
    @classmethod
    def full_contributions(cls, plan: Any, values: dict) -> list:
        """``F'(x)`` along every out-edge of every valued key.

        Returns ``(src, dst, value)`` triples in the iteration order of
        ``values`` (per-source edges in plan order) -- the naive engine
        keeps its own routing/fold so worker-pair accounting stays in
        the engine.
        """
        raise NotImplementedError

    # -- repair walks (repro.delta) ---------------------------------------------
    @classmethod
    def forward_closure(cls, plan: Any, seeds: Iterable, pairs: Iterable = ()) -> set:
        """Every key reachable from ``seeds`` (themselves included) along
        the plan's edges and the extra ``(src, dst)`` ``pairs`` -- edges
        the plan no longer has, whose endpoints need not be plan keys.

        This is the reference, a depth-first walk over the adjacency
        view; a backend may override it with an equivalent over its own
        edge structure and must return the same set.
        """
        extra: dict = {}
        for src, dst in pairs:
            extra.setdefault(src, []).append(dst)
        out_edges = plan.out_edges
        reached = set(seeds)
        stack = list(reached)
        while stack:
            key = stack.pop()
            successors = [dst for dst, _, _ in out_edges.get(key, ())]
            successors += extra.get(key, ())
            for dst in successors:
                if dst not in reached:
                    reached.add(dst)
                    stack.append(dst)
        return reached

    @classmethod
    def boundary_contributions(cls, plan: Any, values: dict, targets: set) -> Any:
        """``F'(x)`` along every plan edge from a key of ``values`` (plan
        keys with their values) into ``targets``, as a batch for
        :meth:`push_many` (take its ``len()``; nothing else): one
        contribution per edge, unfolded, sources in the order of
        ``values`` and a source's edges in plan order.

        The reference, over the adjacency view; a backend's override
        returns its own payload holding the same contributions.
        """
        batch = []
        for src, value in values.items():
            for dst, params, fn in plan.edges_from(src):
                if dst in targets:
                    batch.append((dst, fn(value, *params)))
        return batch

    # -- inspection -------------------------------------------------------------
    def has_pending(self) -> bool:
        raise NotImplementedError

    def pending_count(self) -> int:
        raise NotImplementedError

    def pending_min(self) -> float:
        """Smallest pending delta value (the base of a delta-stepping threshold)."""
        raise NotImplementedError

    def take_pending_below(self, threshold: float) -> dict:
        """Remove and return pending entries with value <= threshold."""
        raise NotImplementedError

    def result(self) -> dict:
        raise NotImplementedError

    # -- checkpointing / recovery -----------------------------------------------
    def snapshot(self) -> dict:
        """An opaque, self-contained copy of all kernel state."""
        raise NotImplementedError

    def restore(self, snap: dict) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.result())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.aggregate.name}: "
            f"{len(self)} rows, {self.pending_count()} pending)"
        )


# -- backend registry ---------------------------------------------------------

KERNELS: dict[str, "type[Kernel]"] = {}

_KernelClass = TypeVar("_KernelClass", bound="type[Kernel]")


def register_kernel(cls: _KernelClass) -> _KernelClass:
    KERNELS[cls.backend] = cls
    return cls


def available_backends() -> list[str]:
    """Registered backends (aliases not repeated)."""
    return [name for name, cls in KERNELS.items() if cls.backend == name]


def resolve_backend(backend: Optional[str] = None) -> str:
    """Pick the backend: explicit argument > ``REPRO_BACKEND`` > default.

    Returns the registered name, so an alias (``sparse``) resolves to
    the kernel it names (``numpy``).
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    backend = backend.strip().lower()
    if backend not in KERNELS:
        raise ValueError(
            f"unknown backend {backend!r}; known: {sorted(KERNELS)}"
        )
    return KERNELS[backend].backend


def resolve_backend_for_plan(plan: Any, backend: Optional[str] = None) -> str:
    """Resolve ``backend`` for one program, honouring its semiring carrier.

    A backend name is a *preference* (CLI flag, ``REPRO_BACKEND``, an
    engine passing its configured backend down); whether a kernel can
    hold a program's carrier is decided per plan by ``supports_plan``.
    A preference the plan's semiring rules out (the float64 array kernel
    against k-tropical ``KTuple`` values) degrades to the python kernel,
    which executes every program, instead of crashing the run; programs
    the preferred kernel supports resolve to it unchanged.

    ``plan`` may be anything with an ``aggregate`` attribute (a
    compiled plan or a :class:`ProgramAnalysis`).
    """
    name = resolve_backend(backend)
    if not KERNELS[name].supports_plan(plan):
        return "python"
    return name


def get_kernel(backend: Optional[str] = None) -> type:
    """Resolve a backend name to its kernel class."""
    return KERNELS[resolve_backend(backend)]
