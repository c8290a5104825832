"""Shared sharding scaffolding for the distributed engines.

A :class:`ShardedRun` owns the per-worker vertex-runtime kernels (one
:class:`repro.runtime.Kernel` per simulated worker), the partition map,
and the seeded initial deltas; every engine (sync, async, unified, AAP)
starts from one (:meth:`ShardedRun.resume_or_seed`, or bare shards for
naive recomputation) and ends with its epilogue
(:meth:`ShardedRun.finish`).  All shards share the run's
:class:`WorkCounters`, so work accounting is uniform regardless of which
worker did the work.
"""

from __future__ import annotations

from typing import Optional

from repro.distributed.cluster import ClusterConfig
from repro.distributed.fault import restore_guarding_corruption
from repro.distributed.partition import HashPartitioner
from repro.engine.plan import CompiledPlan
from repro.engine.result import EvalResult, WorkCounters
from repro.obs import record_run
from repro.runtime import Kernel, get_kernel, resolve_backend_for_plan


class ShardedRun:
    """Plan state partitioned across the simulated workers."""

    def __init__(
        self,
        plan: CompiledPlan,
        cluster: ClusterConfig,
        backend: Optional[str] = None,
    ):
        self.plan = plan
        self.cluster = cluster
        self.partitioner = HashPartitioner(cluster.num_workers)
        self.owner: dict = {
            key: self.partitioner.owner(key) for key in plan.keys
        }
        self.speeds = cluster.worker_speeds()
        self.counters = WorkCounters()
        self.backend = resolve_backend_for_plan(plan, backend)
        self.kernel_cls = get_kernel(self.backend)
        #: ``owner`` in the form the kernel splits a round's output by
        self.owner_table = self.kernel_cls.owner_table(plan, self.owner)

        shard_keys: list[set] = [set() for _ in range(cluster.num_workers)]
        for key, worker in self.owner.items():
            shard_keys[worker].add(key)
        self.shard_keys = shard_keys
        #: one kernel per worker, built together: the array kernel's are
        #: the rows of one stack (``Kernel.cluster_round``)
        self.shards: list[Kernel] = self.kernel_cls.shards_from_plan(
            plan, shard_keys, self.counters
        )

    def _make_shard(self, worker: int, initial: Optional[dict] = None) -> Kernel:
        """A fresh kernel for one worker's partition (``X⁰`` by default)."""
        return self.kernel_cls.from_plan(
            self.plan,
            keys=self.shard_keys[worker],
            counters=self.counters,
            initial=initial,
        )

    def blank_shard(self, worker: int) -> Kernel:
        """An empty kernel for the partition (crash-recovery scratch state)."""
        return self._make_shard(worker, initial={})

    def resume_or_seed(self, checkpointer, run_name: str, engine: str, obs) -> None:
        """The run's starting state: every shard from ``run_name``'s
        checkpoint when ``checkpointer`` holds a readable one (a corrupt
        shard degrades to "none", :func:`restore_guarding_corruption`),
        else ``X⁰`` plus ``ΔX¹``.  With a checkpointer, the attempt is
        traced as ``ckpt.restore`` at ``t=0``."""
        restored = False
        if checkpointer is not None:
            restored = restore_guarding_corruption(
                lambda: self.restore(checkpointer, run_name),
                what=f"{engine} run {run_name}",
                obs=obs,
            )
            if obs.enabled:
                obs.trace.emit("ckpt.restore", t=0.0, run=run_name, restored=restored)
        if not restored:
            self.seed_initial_delta()

    def finish(
        self,
        obs,
        stop_reason: str,
        simulated_seconds: float,
        engine: str,
        trace: list,
        chaos=None,
        values: Optional[dict] = None,
    ) -> EvalResult:
        """The one epilogue of a distributed run: its :class:`EvalResult`
        (the merged shards unless ``values`` says otherwise, and
        ``chaos``'s fault counters when the run had an injector),
        recorded by :func:`repro.obs.record_run`; the plan's static
        estimates are no part of it."""
        result = EvalResult(
            values=self.merged_values() if values is None else values,
            stop_reason=stop_reason,
            counters=self.counters,
            simulated_seconds=simulated_seconds,
            engine=engine,
            trace=trace,
            faults=chaos.stats if chaos is not None else None,
            backend=self.backend,
        )
        record_run(obs, result)
        return result

    def seed_initial_delta(self) -> None:
        """Distribute ``ΔX¹`` (section 3.3) to its owners' shards: one
        ingest, each shard's slice its inbox."""
        self.kernel_cls.cluster_ingest(
            self.shards, [[pairs] for pairs in self._initial_delta_slices()]
        )

    def _initial_delta_slices(self) -> list:
        """``ΔX¹`` as one ``(key, value)`` list per owner, in its order
        (the base kernel's split: pairs routed by the owner dict)."""
        return Kernel.split_out(
            self.kernel_cls.initial_delta(self.plan).items(),
            self.owner,
            len(self.shard_keys),
        )

    def reseed_shard(self, shard_id: int) -> Kernel:
        """Rebuild one shard from scratch: ``X⁰`` plus its slice of ``ΔX¹``.

        Crash recovery falls back to this when no (readable) checkpoint
        exists -- the constant part ``C`` regenerates the shard's seed
        deltas, and peer replay regenerates everything derived.
        """
        shard = self._make_shard(shard_id)
        shard.push_many(self._initial_delta_slices()[shard_id])
        self.shards[shard_id] = shard
        return shard

    def send_side(self):
        """An empty send side for one worker of this run (what its flush
        buffers, or a recovery replay's messages, are folded in)."""
        return self.kernel_cls.send_side(
            self.plan, self.owner_table, self.cluster.num_workers
        )

    def merged_values(self) -> dict:
        merged: dict = {}
        for shard in self.shards:
            merged.update(shard.result())
        return merged

    def total_pending(self) -> int:
        return sum(shard.pending_count() for shard in self.shards)

    def checkpoint_meta(self) -> dict:
        """Run-compatibility facts recorded in (and checked against) checkpoints."""
        return {
            "program": self.plan.name,
            "num_workers": self.cluster.num_workers,
            "aggregate": self.plan.aggregate.name,
        }

    def checkpoint(self, checkpointer, run_name: str) -> None:
        """Persist every shard (paper Figure 6: checkpoint intermediates)."""
        meta = self.checkpoint_meta()
        for shard_id, shard in enumerate(self.shards):
            checkpointer.save_shard(run_name, shard_id, shard, meta=meta)

    def restore(self, checkpointer, run_name: str) -> bool:
        """Reload every shard from a checkpoint; False when none exists.

        Restores into scratch kernels first so a half-unreadable
        checkpoint set never leaves the run partially overwritten.

        For idempotent aggregates the restore finishes with a boundary
        **replay**: every shard re-derives its out-edge contributions
        from the restored accumulated column.  Per-shard checkpoints are
        written one file at a time, so a crash *between* ``save_shard``
        calls leaves shards from different epochs; a stale shard then
        misses peer contributions nobody will resend.  Replay
        regenerates all of them, and ``g`` absorbs the redundant ones
        (Theorem 3), so any mixed-epoch checkpoint set still converges.
        Additive aggregates skip the replay -- re-derived contributions
        would double count -- and rely on every shard coming from the
        same barrier, which the engines' snapshot cadence guarantees.
        """
        if not all(
            checkpointer.has_checkpoint(run_name, shard_id)
            for shard_id in range(len(self.shards))
        ):
            return False
        meta = self.checkpoint_meta()
        fresh: list[Kernel] = []
        for shard_id in range(len(self.shards)):
            table = self.blank_shard(shard_id)
            if not checkpointer.restore_shard(
                run_name, shard_id, table, expect_meta=meta
            ):
                return False
            fresh.append(table)
        self.shards[:] = fresh
        if self.plan.aggregate.is_idempotent:
            for _peer, target, dst, contribution in self.replay():
                self.shards[target].push(dst, contribution)
                self.counters.fprime_applications += 1
        return True

    def replay(self, worker: Optional[int] = None, peers=None):
        """Re-derive out-edge contributions from accumulated columns
        (Theorem 3: sound for idempotent aggregates only).

        Yields ``(peer, target, dst, contribution)`` peer by peer (every
        shard unless ``peers`` is given) in accumulation x edge order;
        with a crashed ``worker``, only for edges that touch it.  Folding
        and pricing the contributions is the caller's business.
        """
        plan = self.plan
        owner = self.owner
        for peer in range(len(self.shards)) if peers is None else peers:
            for key, value in self.shards[peer].accumulated.items():
                if value is None:
                    continue
                for dst, params, fn in plan.edges_from(key):
                    target = owner[dst]
                    if worker is None or peer == worker or target == worker:
                        yield peer, target, dst, fn(value, *params)

    def recover_shard(
        self, checkpointer, run_name: str, shard_id: int, engine: str, obs
    ) -> bool:
        """A crashed shard's state: its latest checkpoint when
        ``checkpointer`` holds a readable one (a corrupt one degrades to
        "none"), else :meth:`reseed_shard`.  True when restored."""
        restored = False
        if checkpointer is not None:
            table = self.blank_shard(shard_id)
            restored = restore_guarding_corruption(
                lambda: checkpointer.restore_shard(
                    run_name, shard_id, table, expect_meta=self.checkpoint_meta()
                ),
                what=f"{engine} run {run_name} shard {shard_id}",
                obs=obs,
            )
            if restored:
                self.shards[shard_id] = table
        if not restored:
            self.reseed_shard(shard_id)
        return restored

    def global_accumulation(self) -> float:
        """Master-side global aggregate of the accumulation column.

        The paper's termination check (section 5.4) compares consecutive
        global aggregation results; summing |value| works for both
        additive and selective aggregates.  |value| is the aggregate's
        own magnitude, as in the kernels: ``abs(float(value))`` for a
        numeric carrier, the semiring's measure for ``KTuple`` and kin.
        """
        magnitude = self.plan.aggregate.delta_magnitude
        total = 0.0
        for shard in self.shards:
            for value in shard.accumulated.values():
                if value is not None:
                    total += magnitude(value)
        return total
