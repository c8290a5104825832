"""Fault tolerance: kernel checkpointing (paper Figure 6).

PowerLog checkpoints intermediates to HDFS; this reproduction
checkpoints each shard's :class:`~repro.runtime.Kernel` (Figure 7's
MonoTable, on either backend) to local JSON files and can restore a run
after a simulated worker failure.  Because MRA state is a pair of
per-key aggregates (accumulation + intermediate), a checkpoint is simply
both columns; restoring and continuing evaluation reaches the same
fixpoint by Theorem 3 (any delta re-delivery is ``g``-combined).  Both
engines resume and recover through
:class:`~repro.distributed.sharding.ShardedRun`.

Robustness guarantees of the on-disk format:

* writes are **atomic** (temp file + ``os.replace``), so a crash
  mid-write can never leave a truncated JSON that poisons the next
  restore;
* an unreadable or unparseable checkpoint is treated as "no checkpoint"
  with a warning -- recovery falls back to reseeding -- rather than
  raising into the engine;
* checkpoints carry **run-compatibility metadata** (program name,
  ``num_workers``, shard id, schema version); restoring into an
  incompatible run fails loudly with :class:`CheckpointMismatchError`
  instead of silently loading wrong keys into wrong shards;
* payloads carry a **content checksum** (CRC32 over the canonical
  encoding); a bit-flipped shard that still parses as JSON raises
  :class:`CheckpointCorruptionError` instead of restoring silently
  wrong aggregates.  The error is a :class:`CheckpointMismatchError`
  subclass, and the engines catch exactly it -- corruption falls back
  to reseed-and-replay, while a genuine run mismatch (wrong program,
  wrong worker count) stays loud.

Carrier values JSON has no form for (the k-tropical ``KTuple``) are
written as a one-field object and read back as the carrier; numeric
and boolean values are written as before.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from typing import TYPE_CHECKING, Optional, Union

from repro.aggregates.semiring import KTuple
from repro.obs import ensure_obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import Kernel

#: bump when the on-disk payload layout changes incompatibly
CHECKPOINT_SCHEMA_VERSION = 3


class CheckpointMismatchError(ValueError):
    """A checkpoint exists but belongs to an incompatible run."""


class CheckpointCorruptionError(CheckpointMismatchError):
    """A checkpoint parses but its content fails checksum validation."""


def _payload_checksum(payload: dict) -> int:
    """CRC32 over the canonical encoding of the restorable content."""
    body = [
        payload.get("aggregate"),
        payload.get("shard_id"),
        payload.get("meta") or {},
        payload.get("accumulated") or {},
        payload.get("intermediate") or {},
    ]
    return zlib.crc32(
        json.dumps(body, sort_keys=True, default=_encode_value).encode("utf-8")
    )


def _encode_value(value) -> dict:
    """JSON for a carrier value ``json`` has no form for."""
    if isinstance(value, KTuple):
        return {"ktuple": list(value.values)}
    raise TypeError(f"cannot checkpoint a {type(value).__name__} value")


def _decode_value(obj: dict):
    if obj.keys() == {"ktuple"}:
        return KTuple(obj["ktuple"])
    return obj


def _encode_key(key) -> str:
    if isinstance(key, tuple):
        return json.dumps(list(key))
    return json.dumps(key)


def _decode_key(text: str):
    value = json.loads(text)
    if isinstance(value, list):
        return tuple(value)
    return value


class Checkpointer:
    """Write and restore kernel shard checkpoints.

    With an :class:`~repro.obs.Observability` handle attached, every
    shard write/restore emits a ``ckpt.shard_write`` /
    ``ckpt.shard_restore`` trace event (disk side, so no simulated
    timestamp -- the engines emit the clocked ``ckpt.write`` /
    ``ckpt.restore`` spans).
    """

    def __init__(self, directory: Union[str, os.PathLike], obs=None):
        self.directory = str(directory)
        self.obs = ensure_obs(obs)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, run_name: str, shard_id: int) -> str:
        return os.path.join(self.directory, f"{run_name}.shard{shard_id}.json")

    def save_shard(
        self,
        run_name: str,
        shard_id: int,
        table: "Kernel",
        meta: Optional[dict] = None,
    ) -> str:
        """Checkpoint one shard's accumulation and intermediate columns.

        ``meta`` records run-compatibility facts (program name,
        ``num_workers``, ...) that :meth:`restore_shard` validates.  The
        write is atomic: a crash mid-write leaves the previous checkpoint
        intact.
        """
        payload = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "aggregate": table.aggregate.name,
            "shard_id": shard_id,
            "meta": dict(meta) if meta else {},
            "accumulated": {
                _encode_key(k): v for k, v in table.accumulated.items()
            },
            "intermediate": {
                _encode_key(k): v for k, v in table.intermediate.items()
            },
        }
        payload["checksum"] = _payload_checksum(payload)
        path = self._path(run_name, shard_id)
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, default=_encode_value)
        os.replace(tmp_path, path)
        if self.obs.enabled:
            self.obs.trace.emit(
                "ckpt.shard_write",
                run=run_name,
                shard=shard_id,
                keys=len(payload["accumulated"]),
                pending=len(payload["intermediate"]),
            )
            self.obs.metrics.inc("ckpt.shard_writes", shard=shard_id)
        return path

    def restore_shard(
        self,
        run_name: str,
        shard_id: int,
        table: "Kernel",
        expect_meta: Optional[dict] = None,
    ) -> bool:
        """Load a checkpoint back into a shard (in place).

        Returns ``False`` (with a warning) when the checkpoint is missing
        or unreadable -- the caller reseeds instead.  Raises
        :class:`CheckpointMismatchError` when a *readable* checkpoint
        belongs to a different run (wrong aggregate, wrong shard, or any
        ``expect_meta`` entry that does not match), and the narrower
        :class:`CheckpointCorruptionError` when a schema-3 payload fails
        its content checksum (e.g. a bit flip on disk).
        """
        path = self._path(run_name, shard_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle, object_hook=_decode_value)
            accumulated = payload["accumulated"]
            intermediate = payload["intermediate"]
        except FileNotFoundError:
            return False
        except (json.JSONDecodeError, KeyError, UnicodeDecodeError, OSError) as exc:
            warnings.warn(
                f"checkpoint {path} is unreadable ({exc!r}); treating as missing",
                RuntimeWarning,
                stacklevel=2,
            )
            return False
        # schema >= 3 payloads are checksummed; older payloads (or
        # hand-written fixtures) predate the field and skip validation
        if payload.get("schema", 0) >= 3 or "checksum" in payload:
            recorded_sum = payload.get("checksum")
            actual_sum = _payload_checksum(payload)
            if recorded_sum != actual_sum:
                raise CheckpointCorruptionError(
                    f"checkpoint {path} fails its content checksum "
                    f"(recorded {recorded_sum!r}, computed {actual_sum}); "
                    f"the shard is corrupt and must not be restored"
                )
        if payload["aggregate"] != table.aggregate.name:
            raise CheckpointMismatchError(
                f"checkpoint aggregate {payload['aggregate']!r} does not match "
                f"table aggregate {table.aggregate.name!r}"
            )
        recorded_shard = payload.get("shard_id")
        if recorded_shard is not None and recorded_shard != shard_id:
            raise CheckpointMismatchError(
                f"checkpoint {path} records shard {recorded_shard}, "
                f"but shard {shard_id} does not match"
            )
        if expect_meta:
            recorded_meta = payload.get("meta") or {}
            for key, expected in expect_meta.items():
                recorded = recorded_meta.get(key)
                if recorded != expected:
                    raise CheckpointMismatchError(
                        f"checkpoint {path} metadata {key}={recorded!r} does "
                        f"not match this run's {key}={expected!r}; refusing to "
                        f"load state from an incompatible run"
                    )
        table.accumulated = {
            _decode_key(k): v for k, v in accumulated.items()
        }
        table.intermediate = {
            _decode_key(k): v for k, v in intermediate.items()
        }
        if self.obs.enabled:
            self.obs.trace.emit(
                "ckpt.shard_restore",
                run=run_name,
                shard=shard_id,
                keys=len(table.accumulated),
                pending=len(table.intermediate),
            )
            self.obs.metrics.inc("ckpt.shard_restores", shard=shard_id)
        return True

    def has_checkpoint(self, run_name: str, shard_id: int) -> bool:
        return os.path.exists(self._path(run_name, shard_id))


def restore_guarding_corruption(restore_call, what: str, obs=None) -> bool:
    """Run a restore callable, degrading *corruption* to "no checkpoint".

    The engines recover through this guard: a checksum-corrupt shard
    (bit flip, torn media) is recoverable state loss -- recovery falls
    back to reseed-and-replay and the run still converges -- so it must
    not crash a serving loop.  Any other
    :class:`CheckpointMismatchError` (wrong program, wrong worker
    count, wrong aggregate) means the caller is about to load state
    from a *different run* and keeps propagating loudly.
    """
    obs = ensure_obs(obs)
    try:
        return bool(restore_call())
    except CheckpointCorruptionError as exc:
        warnings.warn(
            f"{what}: {exc}; falling back to reseed-and-replay",
            RuntimeWarning,
            stacklevel=2,
        )
        if obs.enabled:
            obs.trace.emit("ckpt.corrupt", what=what, error=str(exc))
            obs.metrics.inc("ckpt.corrupt_restores")
        return False
