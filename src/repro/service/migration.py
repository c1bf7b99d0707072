"""Crash-safe live migration: draining and rebalancing shards.

The ROADMAP's next service rung: placement records exist, so a unit can
*move* -- the record is the single switch that says where readers look.
:class:`MigrationWorker` moves placement units between shards for two
operator workflows:

* **drain** -- empty one shard so :meth:`ShardedStore.remove_shard` can
  retire it (hardware decommission, failed disk).
* **rebalance** -- after :meth:`ShardedStore.add_shard`, move each unit
  whose recorded replica set no longer matches the ring's successor walk
  onto its ideal shards, so a grown cluster actually spreads load
  instead of pinning all old data to the old shards forever.

Crash safety is an *ordering* argument, the same shape as the commit
journal's (blobs -> barrier -> manifest -> barrier -> marker): for each
unit the worker

1. **copies** every key onto each target shard it is missing from
   (backend puts are atomic tmp+rename, re-runnable),
2. **verifies** each copy by reading it back and comparing bytes --
   a copy that cannot be re-read identically never counts,
3. **records** the new replica list in one atomic placement-record
   write -- the instant readers switch,
4. only then **deletes** the unit's keys from shards leaving the set.

A crash between any two steps leaves every unit readable from either the
old or the new location: before step 3 the record still names the old
shards (whose data is untouched); after step 3 it names the new shards
(whose data is already verified).  Re-running the worker after a crash
converges -- copies that landed are recognized byte-identical and
skipped, half-written records cannot exist (atomic put), and stale
source copies are deleted only after the record excludes their shard.
The kill-at-every-op matrix in the migration test-suite proves this
against every fault the store layer can inject.
"""

from __future__ import annotations

from typing import Any

from ..exceptions import ConfigurationError
from ..obs.metrics import get_registry
from .sharded import ShardedStore, placement_unit

__all__ = ["MigrationWorker"]


class MigrationWorker:
    """Moves placement units between shards of a :class:`ShardedStore`.

    The worker is synchronous and single-threaded by design: migrations
    are operator actions (CLI / wire op), not hot-path work, and a single
    deterministic pass is what the crash-matrix proof reasons about.
    Concurrent *writes* are tolerated -- :meth:`drain` marks the source
    shard down first (when the store has a health tracker) so new units
    stop landing on it, and a unit that gains keys mid-copy is simply
    re-converged by the next pass.
    """

    def __init__(self, sharded: ShardedStore) -> None:
        self.sharded = sharded
        self._metrics = get_registry()

    # -- unit move (the crash-safe core) -------------------------------------

    def _migrate_unit(self, unit: str, targets: list[str]) -> dict[str, Any]:
        """Converge ``unit`` onto exactly ``targets`` (ordered replica list).

        Copy -> verify -> record -> delete, in that order; see the module
        docstring for why each crash point is safe.  Raises
        :class:`StorageError` when a copy cannot be verified -- the
        placement record is then untouched and readers keep using the old
        location.
        """
        if not targets:
            raise ConfigurationError(f"unit {unit!r} needs at least one target")
        sharded = self.sharded
        keys = sharded.unit_keys(unit)
        copied = 0
        nbytes = 0
        # 1 + 2: copy and verify every key onto every target.
        for key in keys:
            data = sharded.replica_get(key)
            for sid in targets:
                # False: already converged (a re-run after a crash); a copy
                # that reads back differently raises before the record switch
                if sharded.copy_verified(sid, key, data):
                    copied += 1
                    nbytes += len(data)
        for sid in targets:
            sharded.shards[sid].sync()
        # 3: the atomic switch -- one placement-record write.
        sharded._record(unit, tuple(targets), force=True)
        sharded.placement.sync()
        sharded.debt.forget(unit)
        # 4: retire copies on every shard outside the new replica set --
        # not just the previously recorded homes, so a re-run after a
        # crash between steps 3 and 4 still clears the stale source.
        for sid, store in sharded.shards.items():
            if sid in targets:
                continue
            for key in keys:
                if store.exists(key):
                    store.delete(key)
        self._metrics.counter("service.migration_units").inc()
        self._metrics.counter("service.migration_bytes").inc(nbytes)
        return {"unit": unit, "keys_copied": copied, "bytes_copied": nbytes}

    # -- operator workflows --------------------------------------------------

    def drain(self, shard_id: str) -> dict[str, Any]:
        """Move every unit off ``shard_id`` so it can be removed.

        Each unit with a copy (or a placement record) on the source is
        converged onto a replica set that excludes it: its other recorded
        replicas, topped up from the ring walk.  Returns a summary; after
        it reports ``remaining == 0`` the shard is empty and
        :meth:`ShardedStore.remove_shard` will accept it.
        """
        sharded = self.sharded
        source = sharded.shards.get(shard_id)
        if source is None:
            raise ConfigurationError(f"shard {shard_id!r} does not exist")
        if len(sharded.shards) < 2:
            raise ConfigurationError(
                "cannot drain the only shard; add a shard first"
            )
        if sharded.health is not None:
            # Stop new placements landing on the shard mid-drain.
            sharded.health.mark_down(shard_id, "draining for removal")
        units: set[str] = {placement_unit(k) for k in source.list_keys("")}
        units.update(
            u for u, reps in sharded.placement_map().items() if shard_id in reps
        )
        moved = []
        for unit in sorted(units):
            targets = [
                sid for sid in (sharded._recorded(unit) or ()) if sid != shard_id
            ]
            if len(targets) < sharded.replication:
                targets += sharded.ring.successors(
                    unit,
                    sharded.replication,
                    exclude={shard_id, *targets},
                )[: sharded.replication - len(targets)]
            moved.append(self._migrate_unit(unit, targets))
        remaining = len(source.list_keys(""))
        return {
            "shard": shard_id,
            "units_moved": len(moved),
            "keys_copied": sum(m["keys_copied"] for m in moved),
            "bytes_copied": sum(m["bytes_copied"] for m in moved),
            "remaining": remaining,
        }

    def rebalance(self) -> dict[str, Any]:
        """Converge every recorded unit onto its ring-ideal replica set.

        Run after :meth:`ShardedStore.add_shard`: units whose recorded
        replicas already match the successor walk are untouched (the
        consistent-hash guarantee keeps that the vast majority), the rest
        move one at a time under the same crash-safe ordering as a drain.
        """
        sharded = self.sharded
        moved = []
        skipped = 0
        for unit, recorded in sorted(sharded.placement_map().items()):
            ideal = sharded.ring.successors(unit, sharded.replication)
            if set(recorded) == set(ideal):
                skipped += 1
                continue
            moved.append(self._migrate_unit(unit, ideal))
        return {
            "units_moved": len(moved),
            "units_in_place": skipped,
            "keys_copied": sum(m["keys_copied"] for m in moved),
            "bytes_copied": sum(m["bytes_copied"] for m in moved),
        }
