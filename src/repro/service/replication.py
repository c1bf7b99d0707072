"""Replication primitives for the sharded checkpoint store.

The paper's premise is that checkpoints exist to survive failures, so a
single copy of every generation on exactly one shard was the service's
last single point of data loss.  :class:`~repro.service.sharded.ShardedStore`
now writes each placement unit to ``replication`` distinct shards (the
hashring successor walk); this module holds the pieces that are
independent of the store itself:

* the **placement-record codec**: a record used to be one shard id; it
  is now an ordered comma-separated replica list.  Old single-id records
  decode as one-element lists, so placement maps written before
  replication existed keep working unchanged.
* :class:`ReplicationDebt`: the ledger of units that accepted a write at
  reduced replication (a replica shard was down or failing).  Degraded
  writes are the *graceful* failure mode -- the tenant's submit still
  commits -- but the missing copies are a debt that must be repaid
  before the next shard loss, so the ledger is explicit, queryable and
  surfaced as the ``service.replication_debt`` gauge.
* :func:`repair_unit` / :func:`repair_debt`: the repayment pass --
  re-copy every key of an under-replicated unit onto its missing
  replicas, verify the copy landed byte-identical, and only then retire
  the debt entry.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from ..exceptions import StorageError
from ..obs.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .sharded import ShardedStore

__all__ = [
    "encode_replicas",
    "decode_replicas",
    "ReplicationDebt",
    "repair_unit",
    "repair_debt",
]


def encode_replicas(replicas: list[str] | tuple[str, ...]) -> bytes:
    """Serialize an ordered replica list into a placement-record value."""
    if not replicas:
        raise StorageError("a placement record needs at least one replica")
    for sid in replicas:
        if "," in sid:
            raise StorageError(f"shard id {sid!r} must not contain ','")
    return ",".join(replicas).encode("utf-8")


def decode_replicas(value: bytes) -> list[str]:
    """Parse a placement-record value; pre-replication single-id records
    (no comma) decode as one-element lists."""
    text = value.decode("utf-8")
    return [sid for sid in text.split(",") if sid]


class ReplicationDebt:
    """Thread-safe ledger of under-replicated placement units.

    One entry per unit: the replica shard ids that still owe a copy.
    ``record`` merges missing shards in, ``resolve`` retires them as
    repairs land, and the ``service.replication_debt`` gauge always
    reflects the number of indebted units so the health surface (and a
    scrape) can see degradation the moment a write is accepted short.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._owed: dict[str, set[str]] = {}

    def _refresh_gauge(self) -> None:
        get_registry().gauge("service.replication_debt").set(len(self._owed))

    def record(self, unit: str, missing: list[str] | set[str]) -> None:
        if not missing:
            return
        with self._lock:
            self._owed.setdefault(unit, set()).update(missing)
            self._refresh_gauge()

    def resolve(self, unit: str, repaired: list[str] | set[str] | None = None) -> None:
        """Retire ``repaired`` shards of ``unit``'s debt (all when None)."""
        with self._lock:
            owed = self._owed.get(unit)
            if owed is None:
                return
            if repaired is None:
                owed.clear()
            else:
                owed.difference_update(repaired)
            if not owed:
                del self._owed[unit]
            self._refresh_gauge()

    def forget(self, unit: str) -> None:
        """Drop a unit's debt entirely (the unit was deleted or migrated)."""
        with self._lock:
            if self._owed.pop(unit, None) is not None:
                self._refresh_gauge()

    def owed(self) -> dict[str, list[str]]:
        with self._lock:
            return {u: sorted(s) for u, s in sorted(self._owed.items())}

    def __len__(self) -> int:
        with self._lock:
            return len(self._owed)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "units": len(self._owed),
                "missing_copies": sum(len(s) for s in self._owed.values()),
            }


def repair_unit(
    sharded: "ShardedStore", unit: str, missing: list[str] | set[str]
) -> dict[str, Any]:
    """Re-copy every key of ``unit`` onto its ``missing`` replicas.

    Source bytes come from any live replica that already holds each key;
    each copy is read back and compared before it counts (the same
    verify-before-trust rule the migration worker uses).  Returns a
    summary; raises nothing for an unreachable target -- the shard stays
    in debt and a later pass retries.
    """
    copied = 0
    bytes_copied = 0
    failed: set[str] = set()
    repaired: set[str] = set()
    keys = sharded.unit_keys(unit)
    for target in sorted(set(missing)):
        store = sharded.shards.get(target)
        if store is None:
            # The shard left the ring while in debt; nothing to repay.
            repaired.add(target)
            continue
        if not sharded._available(target):
            failed.add(target)
            continue
        ok = True
        for key in keys:
            try:
                data = sharded.replica_get(key, exclude={target})
                if sharded.copy_verified(target, key, data):
                    copied += 1
                    bytes_copied += len(data)
            except StorageError as exc:
                sharded._note_failure(target, exc)
                ok = False
                break
        if ok:
            sharded._note_success(target)
            repaired.add(target)
            get_registry().counter("service.replica_repairs", shard=target).inc()
        else:
            failed.add(target)
    return {
        "unit": unit,
        "repaired": sorted(repaired),
        "failed": sorted(failed),
        "keys_copied": copied,
        "bytes_copied": bytes_copied,
    }


def repair_debt(sharded: "ShardedStore") -> dict[str, Any]:
    """Repay every recorded replication debt that can be repaid now.

    The service runs this after a shard recovers (and the migration
    worker before a drain): each indebted unit is re-replicated via
    :func:`repair_unit` and resolved from the ledger exactly as far as
    the repairs actually landed.
    """
    debt = sharded.debt
    results = []
    for unit, missing in debt.owed().items():
        summary = repair_unit(sharded, unit, missing)
        if summary["repaired"]:
            debt.resolve(unit, summary["repaired"])
        results.append(summary)
    remaining = debt.stats()
    return {
        "repaired_units": sum(1 for r in results if not r["failed"]),
        "attempted_units": len(results),
        "keys_copied": sum(r["keys_copied"] for r in results),
        "bytes_copied": sum(r["bytes_copied"] for r in results),
        "remaining_debt": remaining,
    }
