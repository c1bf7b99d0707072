"""XOR-parity redundancy for in-memory checkpoint groups.

Related work the paper positions against (Section V, refs. [27][28]):
in-memory checkpointing with "an RAID-5 technique" keeps checkpoints in
the memory of peer nodes and tolerates single-node loss through parity.
This module implements the encoding: a parity group over N rank blobs;
any *single* missing member is reconstructible by XOR-ing the survivors
with the parity block.

Composes naturally with the compressor -- parity is computed over the
compressed rank blobs, so the redundancy overhead also shrinks by the
compression rate (one of the "combine with other efforts" directions the
paper's conclusion names).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import Mapping

from ..exceptions import CheckpointError, RestoreError

__all__ = [
    "ParityGroup",
    "encode_parity_group",
    "reconstruct_member",
    "encode_parity",
    "rebuild_member",
]

_LEN_BYTES = 8  # each member is length-prefixed inside its padded block


def _pad_block(blob: bytes, block_len: int) -> bytes:
    header = len(blob).to_bytes(_LEN_BYTES, "little")
    padded = np.zeros(block_len, dtype=np.uint8)
    payload = np.frombuffer(header + blob, dtype=np.uint8)
    padded[: payload.size] = payload
    return padded.tobytes()


def _unpad_block(block: bytes) -> bytes:
    length = int.from_bytes(block[:_LEN_BYTES], "little")
    if length > len(block) - _LEN_BYTES:
        raise RestoreError("parity block length prefix exceeds the block")
    return block[_LEN_BYTES : _LEN_BYTES + length]


@dataclass(frozen=True)
class ParityGroup:
    """N padded member blocks plus their XOR parity (all equal length)."""

    members: tuple[bytes, ...]
    parity: bytes
    block_len: int

    @property
    def size(self) -> int:
        return len(self.members)

    def blob(self, index: int) -> bytes:
        """The original (unpadded) blob of one member."""
        if not 0 <= index < self.size:
            raise RestoreError(
                f"member index {index} out of range for group of {self.size}"
            )
        return _unpad_block(self.members[index])

    def blobs(self) -> list[bytes]:
        return [self.blob(i) for i in range(self.size)]

    @property
    def stored_bytes(self) -> int:
        """Total stored including parity."""
        return (self.size + 1) * self.block_len

    @property
    def overhead_fraction(self) -> float:
        """Extra storage relative to the raw member payloads."""
        payload = sum(len(self.blob(i)) for i in range(self.size))
        if payload == 0:
            return float("inf")
        return self.stored_bytes / payload - 1.0


def encode_parity_group(blobs: list[bytes]) -> ParityGroup:
    """Build the parity group of a set of rank checkpoint blobs."""
    if len(blobs) < 2:
        raise CheckpointError(
            f"a parity group needs >= 2 members, got {len(blobs)}"
        )
    block_len = _LEN_BYTES + max(len(b) for b in blobs)
    members = tuple(_pad_block(b, block_len) for b in blobs)
    parity = np.zeros(block_len, dtype=np.uint8)
    for block in members:
        np.bitwise_xor(parity, np.frombuffer(block, dtype=np.uint8), out=parity)
    return ParityGroup(members=members, parity=parity.tobytes(), block_len=block_len)


def reconstruct_member(group: ParityGroup, lost_index: int) -> bytes:
    """Rebuild one lost member's blob from the survivors plus parity.

    Simulates the single-node-loss recovery of the RAID-5 scheme; more
    than one simultaneous loss is impossible with single parity by
    construction (the limit the related work accepts).
    """
    survivors = {
        i: _unpad_block(m) for i, m in enumerate(group.members) if i != lost_index
    }
    return rebuild_member(group.parity, survivors, group.size, lost_index)


# -- store-level parity ------------------------------------------------------
#
# The checkpoint manager persists only the parity *bytes* next to the member
# blobs it already stores, so repair works from raw material: the parity
# block plus whichever members survived.  A padded empty blob is all zeros
# (length prefix 0), i.e. an XOR no-op -- groups of a single real member are
# therefore encoded by padding the member list with b"" sentinels, and
# reconstruction never needs to know they exist.


def encode_parity(blobs: list[bytes]) -> bytes:
    """XOR parity block over raw blobs, for storing next to them.

    Unlike :func:`encode_parity_group` this accepts a single-member list
    (the parity degenerates to a padded replica) and returns only the
    parity bytes; the block length is ``len(result)`` and each member's
    padded block is implied by its raw bytes.
    """
    if not blobs:
        raise CheckpointError("a parity block needs >= 1 member, got 0")
    padded = list(blobs) + [b""] * max(0, 2 - len(blobs))
    return encode_parity_group(padded).parity


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
        np.bitwise_xor(
            acc,
            np.frombuffer(_pad_block(blob, block_len), dtype=np.uint8),
            out=acc,
        )
    return _unpad_block(acc.tobytes())
