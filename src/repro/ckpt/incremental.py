"""Incremental checkpointing (paper Section V, refs. [9]-[11]).

The related-work baseline the paper argues against: store only the
difference from the previous checkpoint.  Two differencers are provided:

* ``"xor"`` -- bitwise XOR of the raw buffers.  Unchanged regions become
  zero bytes that deflate to almost nothing; any change to a double flips
  mantissa bits and defeats it.
* ``"subtract"`` -- arithmetic difference of float arrays.  Smooth drift
  between checkpoints leaves small-magnitude residuals that deflate a bit
  better than XOR noise.  Reconstruction ``old + diff`` alone is exact
  only up to one floating-point rounding (<= 1 ulp) per link -- an error
  that would *compound* over the chain -- so every subtract delta also
  stores a bitwise XOR correction of the value the replay arithmetic
  produces against the true value.  The correction is almost entirely
  zero bytes (it only carries the flipped low mantissa bits of the
  elements that rounded) and deflates to nearly nothing, and it makes
  :meth:`IncrementalArrayStore.restore` bit-exact for both differencers
  over arbitrary chain lengths.

The paper's observation to reproduce (tested and benchmarked): for
mesh-based science where *every* value changes every step, incremental
deltas barely shrink -- which is precisely why lossy compression wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import CheckpointError, DecompressionError
from ..lossless import get_codec

__all__ = ["IncrementalArrayStore", "DeltaRecord"]

_DIFFERENCERS = ("xor", "subtract")


@dataclass(frozen=True)
class DeltaRecord:
    """One stored increment."""

    step: int
    is_full: bool
    stored_bytes: int
    raw_bytes: int

    @property
    def compression_rate_percent(self) -> float:
        if self.raw_bytes <= 0:
            return 0.0  # an empty array stores (next to) nothing, not NaN
        return 100.0 * self.stored_bytes / self.raw_bytes


class IncrementalArrayStore:
    """Chain of full + delta checkpoints of one array.

    Every full image and delta is deflated with :data:`CODEC`.

    Parameters
    ----------
    differencer:
        ``"xor"`` or ``"subtract"``.
    full_every:
        Write a full (self-contained) image every this many checkpoints,
        bounding the restore chain length -- the restart-cost concern the
        paper raises about incremental schemes.
    """

    #: Lossless codec applied to every full image and delta.
    CODEC = "zlib"

    def __init__(
        self,
        differencer: str = "xor",
        full_every: int = 8,
    ) -> None:
        if differencer not in _DIFFERENCERS:
            raise CheckpointError(
                f"differencer must be one of {_DIFFERENCERS}, got {differencer!r}"
            )
        if full_every < 1:
            raise CheckpointError(f"full_every must be >= 1, got {full_every}")
        self.codec = get_codec(self.CODEC)
        self.differencer = differencer
        self.full_every = full_every
        self._blobs: list[tuple[DeltaRecord, bytes]] = []
        self._step_index: dict[int, int] = {}
        self._last: np.ndarray | None = None
        self._meta: tuple[tuple[int, ...], np.dtype] | None = None

    # -- write -----------------------------------------------------------------

    def _delta(self, new: np.ndarray, old: np.ndarray) -> bytes:
        if self.differencer == "xor":
            a = new.view(np.uint8).reshape(-1)
            b = old.view(np.uint8).reshape(-1)
            return np.bitwise_xor(a, b).tobytes()
        # Arithmetic residual plus a lossless XOR correction of the exact
        # value the replay arithmetic (``old + d``) reconstructs.  Without
        # it each link rounds by <= 1 ulp and the error compounds over the
        # chain; with it restore() is bit-exact and the correction bytes
        # (zero everywhere the addition was exact) deflate to nothing.
        d = np.subtract(new, old)
        replayed = old + d
        correction = np.bitwise_xor(
            new.view(np.uint8).reshape(-1), replayed.view(np.uint8).reshape(-1)
        )
        return d.tobytes() + correction.tobytes()

    def _apply_delta(self, base: np.ndarray, delta: bytes) -> np.ndarray:
        if self.differencer == "xor":
            d = np.frombuffer(delta, dtype=np.uint8)
            out = np.bitwise_xor(base.view(np.uint8).reshape(-1), d)
            return out.view(base.dtype).reshape(base.shape)
        if len(delta) != 2 * base.nbytes:
            raise DecompressionError(
                f"subtract delta holds {len(delta)} bytes, expected "
                f"{2 * base.nbytes} (residual + correction)"
            )
        d = np.frombuffer(delta[: base.nbytes], dtype=base.dtype).reshape(base.shape)
        replayed = base + d
        correction = np.frombuffer(delta[base.nbytes :], dtype=np.uint8)
        exact = np.bitwise_xor(
            replayed.view(np.uint8).reshape(-1), correction
        )
        return exact.view(base.dtype).reshape(base.shape)

    def append(self, step: int, array: np.ndarray) -> DeltaRecord:
        """Checkpoint ``array``; returns the record of what was stored."""
        a = np.ascontiguousarray(array)
        if self._meta is None:
            self._meta = (a.shape, a.dtype)
        elif (a.shape, a.dtype) != self._meta:
            raise CheckpointError(
                f"array changed shape/dtype: expected {self._meta}, "
                f"got {(a.shape, a.dtype)}"
            )
        if self._blobs and step <= self._blobs[-1][0].step:
            raise CheckpointError(
                f"step {step} is not after the last checkpointed step "
                f"{self._blobs[-1][0].step}"
            )
        is_full = self._last is None or (len(self._blobs) % self.full_every == 0)
        if is_full:
            payload = self.codec.compress(a.tobytes())
        else:
            assert self._last is not None
            payload = self.codec.compress(self._delta(a, self._last))
        record = DeltaRecord(
            step=step, is_full=is_full,
            stored_bytes=len(payload), raw_bytes=a.nbytes,
        )
        self._blobs.append((record, payload))
        self._step_index[step] = len(self._blobs) - 1
        self._last = a.copy()
        return record

    # -- read ------------------------------------------------------------------

    def restore(self, step: int | None = None) -> np.ndarray:
        """Reconstruct the array at ``step`` (default: the newest).

        Walks back to the nearest full image and replays every delta --
        the multi-image restore cost the paper's Section V flags as the
        scheme's drawback (the chain length is reported by
        :meth:`chain_length`).
        """
        idx = self._index_of(step)
        shape, dtype = self._meta  # type: ignore[misc]
        if self._blobs[idx][0].is_full:
            # Keyframe short-circuit: no chain walk, decode one blob.
            return np.frombuffer(
                self.codec.decompress(self._blobs[idx][1]), dtype=dtype
            ).reshape(shape).copy()
        start = idx
        while not self._blobs[start][0].is_full:
            start -= 1
        base_rec, base_payload = self._blobs[start]
        current = np.frombuffer(
            self.codec.decompress(base_payload), dtype=dtype
        ).reshape(shape)
        for rec, payload in self._blobs[start + 1 : idx + 1]:
            current = self._apply_delta(current, self.codec.decompress(payload))
        return current.copy()

    def chain_length(self) -> int:
        """Number of stored images a restore of the newest step must read."""
        idx = self._index_of(None)
        start = idx
        while not self._blobs[start][0].is_full:
            start -= 1
        return idx - start + 1

    def total_stored_bytes(self) -> int:
        return sum(rec.stored_bytes for rec, _ in self._blobs)

    def _index_of(self, step: int | None) -> int:
        if not self._blobs:
            raise DecompressionError("no checkpoints stored")
        if step is None:
            return len(self._blobs) - 1
        idx = self._step_index.get(step)
        if idx is None:
            raise DecompressionError(f"no checkpoint for step {step}")
        return idx
