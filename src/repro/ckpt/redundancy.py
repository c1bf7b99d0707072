"""XOR parity over a checkpoint's blobs: the block format, the group
layout a checkpoint writes, and the one routine that heals a group.

Related work the paper positions against (Section V, refs. [27][28]):
in-memory checkpointing with "an RAID-5 technique" keeps checkpoints in
the memory of peer nodes and tolerates single-node loss through parity.
A parity group is N member blobs plus one parity block, the XOR of the
members' padded blocks; any *single* bad block of the N + 1 is the XOR of
the other N.

Composes naturally with the compressor -- parity is computed over the
compressed blobs, so the redundancy overhead also shrinks by the
compression rate (one of the "combine with other efforts" directions the
paper's conclusion names).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Mapping, Sequence

import numpy as np

from ..exceptions import CheckpointError, CorruptionError, FormatError, RestoreError, StorageError
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .journal import CommitTransaction
from .manifest import ArrayEntry, CheckpointManifest, ParityEntry, array_key, parity_key
from .store import Store

__all__ = [
    "RepairEvent",
    "encode_parity",
    "rebuild_member",
    "write_parity",
    "heal",
]

_LEN_BYTES = 8  # each member is length-prefixed inside its padded block


def _frame(blob: bytes) -> np.ndarray:
    """A member's block, up to its last payload byte: the length prefix
    and the blob.  Zero padding to the block length is an XOR no-op."""
    return np.frombuffer(len(blob).to_bytes(_LEN_BYTES, "little") + blob, dtype=np.uint8)


def _unpad_block(block: bytes) -> bytes:
    length = int.from_bytes(block[:_LEN_BYTES], "little")
    if length > len(block) - _LEN_BYTES:
        raise RestoreError("parity block length prefix exceeds the block")
    return block[_LEN_BYTES : _LEN_BYTES + length]


# A padded empty blob is all zeros (length prefix 0), an XOR no-op: a group
# of a single member is its own padded replica, and reconstruction never
# needs to know the group was short.


def encode_parity(blobs: Sequence[bytes]) -> bytes:
    """XOR parity block over raw blobs, for storing next to them.

    The block length is ``len(result)``, 8 bytes more than the longest
    member; each member's padded block is implied by its raw bytes.  A
    single member gives its own padded replica.
    """
    if not blobs:
        raise CheckpointError("a parity block needs >= 1 member, got 0")
    parity = np.zeros(_LEN_BYTES + max(len(b) for b in blobs), dtype=np.uint8)
    for blob in blobs:
        frame = _frame(blob)
        parity[: frame.size] ^= frame
    return parity.tobytes()


def rebuild_member(
    parity: bytes,
    survivors: Mapping[int, bytes],
    group_size: int,
    lost_index: int,
) -> bytes:
    """Rebuild the raw blob of one lost member from parity + survivors.

    ``survivors`` maps member index -> raw blob for every member of the
    group *except* ``lost_index``; ``group_size`` is the real member count
    the parity was encoded over.  Raises :class:`RestoreError` when more
    than one member is unaccounted for (single parity cannot recover two
    losses) or when the reconstructed block carries a corrupt length
    prefix.
    """
    if not 0 <= lost_index < group_size:
        raise RestoreError(
            f"lost index {lost_index} out of range for group of {group_size}"
        )
    expected = set(range(group_size)) - {lost_index}
    if set(survivors) != expected:
        missing = sorted(expected - set(survivors))
        raise RestoreError(
            f"parity can rebuild exactly one member; members {missing} are "
            f"also unavailable"
        )
    block_len = len(parity)
    acc = np.frombuffer(parity, dtype=np.uint8).copy()
    for index, blob in survivors.items():
        if _LEN_BYTES + len(blob) > block_len:
            raise RestoreError(
                f"survivor member {index} is {len(blob)} bytes, larger than "
                f"the parity block of {block_len} bytes allows"
            )
        frame = _frame(blob)
        acc[: frame.size] ^= frame
    return _unpad_block(acc.tobytes())


# -- a checkpoint's parity groups ---------------------------------------------


@dataclass(frozen=True)
class RepairEvent:
    """One successful parity reconstruction, recorded in
    :attr:`~repro.ckpt.manager.CheckpointManager.repair_log` (and the
    fault-injection CI artifact)."""

    step: int
    kind: str  # "member" (an array blob) or "parity" (a parity blob)
    name: str  # array name, or the parity blob's store key
    reason: str  # what was wrong before the repair
    rewritten: bool  # healed bytes were written back to the store

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def write_parity(
    txn: CommitTransaction,
    entries: Sequence[ArrayEntry],
    blobs: Mapping[str, bytes],
    group_size: int | None,
) -> tuple[ParityEntry, ...]:
    """Put one parity blob per run of ``group_size`` consecutive entries
    (``None``: one group of all) into the pending generation ``txn``."""
    if not entries:
        return ()
    step = txn.step
    group_size = group_size or len(entries)
    parity_entries: list[ParityEntry] = []
    with get_tracer().span("ckpt.parity_write", step=step) as sp:
        for g, start in enumerate(range(0, len(entries), group_size)):
            members = tuple(e.name for e in entries[start : start + group_size])
            blob = encode_parity([blobs[n] for n in members])
            key = parity_key(step, g)
            txn.put_blob(key, blob)
            parity_entries.append(
                ParityEntry(
                    key=key,
                    members=members,
                    block_len=len(blob),
                    stored_bytes=len(blob),
                    crc32=ArrayEntry.checksum(blob),
                )
            )
        parity_bytes = sum(p.stored_bytes for p in parity_entries)
        sp.set(n_groups=len(parity_entries), parity_bytes=parity_bytes)
    registry = get_registry()
    registry.counter("ckpt.parity.blobs").inc(len(parity_entries))
    registry.counter("ckpt.parity.bytes").inc(parity_bytes)
    return tuple(parity_entries)


def heal(
    store: Store,
    step: int,
    manifest: CheckpointManifest,
    pe: ParityEntry,
    blobs: dict[str, bytes],
    faults: Mapping[str, Exception],
) -> RepairEvent:
    """Rebuild the single bad block of parity group ``pe`` of generation
    ``step`` from the group's other N blocks, and write it back.

    The group's N + 1 blocks are its members, in manifest order, then the
    parity blob.  ``blobs`` holds the verified members by name and
    receives the healed block; ``faults`` says what is wrong with the bad
    blocks, by array name or, for the parity blob, by its key.  A bad
    member is rebuilt from the other members and the parity blob, read
    only now; a bad parity blob is re-encoded from the members.  Either
    must match its manifest record (:class:`ArrayEntry` or
    :class:`ParityEntry`) before it is used.

    Write-back follows the kind of block.  A member is written back best
    effort: its reader has the healed copy, and a failed put only leaves
    the event's ``rewritten`` false.  A parity blob is rebuilt only to
    repair the store, so a failed put of it raises.  A group that cannot heal raises
    :class:`~repro.exceptions.CorruptionError`.
    """
    lost = [n for n in pe.members if n in faults]
    if len(lost) > 1:
        detail = "; ".join(f"{n}: {faults[n]}" for n in sorted(lost))
        raise CorruptionError(
            f"checkpoint {step}: parity group {pe.key!r} can repair one "
            f"member, but {sorted(lost)} are all corrupt or missing ({detail})"
        )
    member = bool(lost)
    if member:  # rebuilt from the other members and the parity blob, read only now
        (name,) = lost
        fault = faults[name]
        try:
            parity = store.get(pe.key)
            pe.verify(parity)
        except (StorageError, FormatError) as exc:
            raise CorruptionError(
                f"checkpoint {step}: cannot repair array {name!r}: parity "
                f"blob {pe.key!r} is itself corrupt or missing ({exc}); "
                f"original fault: {fault}"
            ) from fault
        index = pe.members.index(name)
        survivors = {i: blobs[n] for i, n in enumerate(pe.members) if i != index}
        rebuild = partial(rebuild_member, parity, survivors, len(pe.members), index)
        record, key, attrs = manifest.entry(name), array_key(step, name), {"array": name}
        what = f"parity reconstruction of array {name!r} did not produce the recorded bytes"
        why = f"original fault: {fault}"
    else:  # the parity blob, re-encoded from the members
        name, fault = pe.key, faults[pe.key]
        rebuild = partial(encode_parity, [blobs[n] for n in pe.members])
        record, key, attrs = pe, pe.key, {"kind": "parity"}
        what = f"re-encoded parity for {pe.key!r} does not match the manifest record"
        why = "the manifest itself is inconsistent"
    with get_tracer().span("ckpt.repair", step=step, parity=pe.key, **attrs) as sp:
        try:
            healed = rebuild()
            record.verify(healed)
        except (RestoreError, FormatError) as exc:
            raise CorruptionError(f"checkpoint {step}: {what} ({exc}); {why}") from exc
        rewritten = True
        try:
            store.put(key, healed)
        except StorageError:
            if not member:
                raise
            rewritten = False
        sp.set(reason=str(fault), rewritten=rewritten)
    blobs[name] = healed
    registry = get_registry()
    registry.counter("ckpt.repair.healed" if member else "ckpt.repair.parity_rebuilt").inc()
    if member and rewritten:
        registry.counter("ckpt.repair.rewrites").inc()
    return RepairEvent(
        step=step,
        kind="member" if member else "parity",
        name=name,
        reason=str(fault),
        rewritten=rewritten,
    )
