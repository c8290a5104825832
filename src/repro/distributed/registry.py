"""The engine registry: every distributed engine under the name the CLI,
the serving layer and the chaos harness know it by.

The engines differ by policy -- barrier or none, recompute or
increment, fixed or adaptive buffers -- so a new policy is one entry
here, and every surface that offers engines reads it from this table.
"""

from __future__ import annotations

from functools import partial

from repro.distributed.aap import AAPEngine
from repro.distributed.async_engine import AsyncEngine
from repro.distributed.sync_engine import SyncEngine
from repro.distributed.unified import UnifiedEngine

#: name -> constructor ``(plan, cluster, **options)``
ENGINES = {
    "sync": SyncEngine,
    "naive": partial(SyncEngine, mode="naive"),
    "async": AsyncEngine,
    "unified": UnifiedEngine,
    "aap": AAPEngine,
}

#: the engines that accept a fault schedule: every entry but those bound
#: to one of :attr:`SyncEngine.FAULT_FREE_MODES`
FAULT_TOLERANT_ENGINES = tuple(
    name
    for name, build in ENGINES.items()
    if getattr(build, "keywords", {}).get("mode") not in SyncEngine.FAULT_FREE_MODES
)

#: supersteps between the sync engine's checkpoints when it has one
SYNC_CHECKPOINT_EVERY = 4


def build_engine(name: str, plan, cluster, checkpointer=None, **options):
    """``ENGINES[name](plan, cluster, **options)``.  With a
    ``checkpointer``, the sync engine persists every
    :data:`SYNC_CHECKPOINT_EVERY` supersteps; the event-clock engines
    checkpoint on their own simulated interval."""
    if checkpointer is not None:
        options["checkpointer"] = checkpointer
        if name == "sync":
            options["checkpoint_every"] = SYNC_CHECKPOINT_EVERY
    return ENGINES[name](plan, cluster, **options)
