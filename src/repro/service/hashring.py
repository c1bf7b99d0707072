"""Consistent-hash placement ring for sharded checkpoint stores.

The ingest service spreads tenants' generations over N shard backends.
Plain modulo hashing would remap nearly every key when a shard joins or
leaves; the classic consistent-hashing construction (Karger et al.) keeps
the remapped fraction near ``1/(N+1)`` instead: each shard owns many
*virtual nodes* on a 2^64 ring, and a key belongs to the first virtual
node clockwise from its own hash.

Determinism matters more here than in a web cache: placement must be
*stable across runs and processes* so a restarted service finds every
generation where its predecessor put it.  All hashing therefore goes
through :func:`stable_hash` (BLAKE2b of the UTF-8 bytes) -- never
Python's seeded ``hash()``.
"""

from __future__ import annotations

import bisect
import hashlib

from ..exceptions import ConfigurationError

__all__ = ["stable_hash", "HashRing", "DEFAULT_VNODES"]

#: Virtual nodes per shard.  128 keeps the max/mean load ratio of a
#: realistic key population within ~15% (see the placement test-suite)
#: while the ring stays small enough to rebuild in microseconds.
DEFAULT_VNODES = 128


def stable_hash(text: str) -> int:
    """A 64-bit hash of ``text`` that is identical in every process.

    BLAKE2b with an 8-byte digest: cryptographic mixing (no accidental
    clustering of the highly structured ``tenants/<t>/ckpt/<step>/``
    keys) at hashlib speed.
    """
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent-hash ring mapping placement units to shard ids.

    Parameters
    ----------
    shard_ids:
        Initial shard names (order-insensitive: the ring is a pure
        function of the *set* of ids).  Each shard owns
        :data:`DEFAULT_VNODES` virtual nodes.
    """

    def __init__(self, shard_ids: list[str] | tuple[str, ...]) -> None:
        self._points: list[int] = []  # sorted vnode hashes
        self._owner: dict[int, str] = {}  # vnode hash -> shard id
        self._shards: set[str] = set()
        for sid in shard_ids:
            self.add(sid)
        if not self._shards:
            raise ConfigurationError("a hash ring needs at least one shard")

    # -- membership ----------------------------------------------------------

    @property
    def shards(self) -> list[str]:
        return sorted(self._shards)

    def add(self, shard_id: str) -> None:
        """Join ``shard_id``; existing keys remap only onto the new shard."""
        if not isinstance(shard_id, str) or not shard_id:
            raise ConfigurationError(
                f"shard id must be a non-empty str, got {shard_id!r}"
            )
        if shard_id in self._shards:
            raise ConfigurationError(f"shard {shard_id!r} is already on the ring")
        self._shards.add(shard_id)
        for v in range(DEFAULT_VNODES):
            point = stable_hash(f"{shard_id}#{v}")
            if self._owner.setdefault(point, shard_id) != shard_id:
                continue  # 64-bit collision: first owner keeps the point
            bisect.insort(self._points, point)

    def remove(self, shard_id: str) -> None:
        """Leave the ring; only keys owned by ``shard_id`` remap."""
        if shard_id not in self._shards:
            raise ConfigurationError(f"shard {shard_id!r} is not on the ring")
        if len(self._shards) == 1:
            raise ConfigurationError("cannot remove the last shard from the ring")
        self._shards.discard(shard_id)
        keep = [p for p in self._points if self._owner[p] != shard_id]
        for p in self._points:
            if self._owner[p] == shard_id:
                del self._owner[p]
        self._points = keep

    # -- placement -----------------------------------------------------------

    def successors(self, unit: str, n: int, *, exclude: set[str] | frozenset[str] = frozenset()) -> list[str]:
        """The first ``n`` *distinct* shards clockwise of ``unit``'s hash.

        This is the classic replica-placement rule: replica 0 is the
        owner of the first vnode clockwise, replica 1 the next distinct
        shard clockwise, and
        so on -- so when a shard leaves the ring, each unit's replica set
        changes by exactly the departed member.  Shards in ``exclude``
        are skipped (used when draining a shard for removal).  Returns
        fewer than ``n`` shards when the ring has fewer eligible members;
        never returns duplicates.
        """
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ConfigurationError(f"replica count must be an int >= 1, got {n!r}")
        h = stable_hash(unit)
        start = bisect.bisect_right(self._points, h)
        out: list[str] = []
        seen: set[str] = set(exclude)
        for offset in range(len(self._points)):
            owner = self._owner[self._points[(start + offset) % len(self._points)]]
            if owner in seen:
                continue
            seen.add(owner)
            out.append(owner)
            if len(out) == n:
                break
        return out
