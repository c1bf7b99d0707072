"""Unit tests for XOR-parity checkpoint redundancy (RAID-5-style)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt.redundancy import encode_parity, rebuild_member
from repro.exceptions import CheckpointError, RestoreError


@pytest.fixture
def blobs(rng):
    """Unequal-length 'rank checkpoint' blobs."""
    return [rng.bytes(n) for n in (100, 73, 120, 99)]


def survivors_of(blobs, lost):
    return {i: b for i, b in enumerate(blobs) if i != lost}


def reference_parity(blobs):
    """XOR of every member's 8-byte little-endian length prefix plus its
    bytes, zero-padded to the longest: the block format, written out."""
    block = bytearray(8 + max(len(b) for b in blobs))
    for blob in blobs:
        for i, byte in enumerate(len(blob).to_bytes(8, "little") + blob):
            block[i] ^= byte
    return bytes(block)


class TestEncode:
    def test_members_recoverable_intact(self, blobs):
        # a one-member group's parity is that member's padded block
        for blob in blobs:
            assert rebuild_member(encode_parity([blob]), {}, 1, 0) == blob

    def test_block_len_covers_longest(self, blobs):
        assert len(encode_parity(blobs)) == 8 + max(len(b) for b in blobs)

    def test_empty_blobs_allowed(self):
        parity = encode_parity([b"", b"data"])
        assert rebuild_member(parity, {1: b"data"}, 2, 0) == b""


class TestReconstruct:
    @pytest.mark.parametrize("lost", [0, 1, 2, 3])
    def test_any_single_loss_recoverable(self, blobs, lost):
        parity = encode_parity(blobs)
        assert rebuild_member(parity, survivors_of(blobs, lost), 4, lost) == blobs[lost]

    def test_lost_index_validated(self, blobs):
        parity = encode_parity(blobs)
        for lost in (4, -1):
            with pytest.raises(RestoreError, match="out of range"):
                rebuild_member(parity, dict(enumerate(blobs)), 4, lost)

    def test_corrupt_length_prefix_detected(self, blobs):
        bad_block = b"\xff" * len(encode_parity(blobs))
        with pytest.raises(RestoreError, match="length prefix"):
            rebuild_member(bad_block, {}, 1, 0)


class TestWithCompressor:
    def test_parity_over_compressed_rank_blobs(self, smooth3d):
        """The composition the paper's conclusion suggests: parity over
        *compressed* checkpoints, so redundancy overhead shrinks too."""
        from repro.core.pipeline import WaveletCompressor

        compressor = WaveletCompressor()
        slabs = np.array_split(smooth3d, 4, axis=0)  # one slab per rank
        rank_blobs = [compressor.compress(slab) for slab in slabs]
        parity = encode_parity(rank_blobs)
        # lose rank 2's checkpoint, rebuild it, decode the full array
        rebuilt = rebuild_member(parity, survivors_of(rank_blobs, 2), 4, 2)
        blocks = [
            WaveletCompressor.decompress(rebuilt if i == 2 else blob)
            for i, blob in enumerate(rank_blobs)
        ]
        restored = np.concatenate(blocks, axis=0)
        assert restored.shape == smooth3d.shape
        # redundancy cost is ~1/N of the *compressed* size, far below raw
        assert (len(rank_blobs) + 1) * len(parity) < smooth3d.nbytes


class TestReconstructEdgeCases:
    """Satellite coverage: unequal sizes, empty blobs, parity-block
    reconstruction, and corrupted length prefixes."""

    def test_wildly_unequal_member_sizes(self, rng):
        blobs = [b"x", rng.bytes(4096), b"ab", rng.bytes(1)]
        parity = encode_parity(blobs)
        for lost in range(4):
            assert rebuild_member(parity, survivors_of(blobs, lost), 4, lost) == blobs[lost]

    @pytest.mark.parametrize("lost", [0, 1, 2])
    def test_empty_members_reconstruct_to_empty(self, rng, lost):
        blobs = [b"", rng.bytes(50), b""]
        parity = encode_parity(blobs)
        assert rebuild_member(parity, survivors_of(blobs, lost), 3, lost) == blobs[lost]

    def test_parity_block_itself_is_reconstructible(self, blobs):
        """Losing the *parity* blob is recoverable too: XOR of all padded
        members reproduces it exactly (what verify --repair relies on)."""
        assert encode_parity(blobs) == reference_parity(blobs)

    def test_corrupted_length_prefix_raises_restore_error(self, blobs):
        """A bit flip inside the 8-byte length prefix must surface as
        RestoreError, never as silently truncated/expanded data."""
        bad_parity = bytearray(encode_parity(blobs))
        bad_parity[0] ^= 0xFF  # low byte of the XORed length prefixes
        with pytest.raises(RestoreError, match="length prefix"):
            rebuild_member(bytes(bad_parity), survivors_of(blobs, 2), 4, 2)


class TestStoreLevelParity:
    """encode_parity / rebuild_member: the raw-bytes API the manager uses."""

    def test_round_trip_any_single_loss(self, blobs):
        parity = encode_parity(blobs)
        for lost in range(len(blobs)):
            assert rebuild_member(parity, survivors_of(blobs, lost), len(blobs), lost) == blobs[lost]

    def test_single_member_degenerates_to_replica(self, rng):
        blob = rng.bytes(37)
        parity = encode_parity([blob])
        assert rebuild_member(parity, {}, 1, 0) == blob

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_xor_of_padded_members(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(0, 200, size=int(rng.integers(1, 6)))
        sizes[rng.integers(0, sizes.size)] = 0  # every group has an empty member
        blobs = [rng.bytes(int(n)) for n in sizes]
        for group in (blobs, blobs[:1], [b""], [blobs[-1]]):
            assert encode_parity(group) == reference_parity(group)

    def test_empty_list_rejected(self):
        with pytest.raises(CheckpointError, match=">= 1 member"):
            encode_parity([])

    def test_two_losses_rejected(self, blobs):
        parity = encode_parity(blobs)
        survivors = {i: b for i, b in enumerate(blobs) if i not in (1, 2)}
        with pytest.raises(RestoreError, match="also unavailable"):
            rebuild_member(parity, survivors, len(blobs), 1)

    def test_lost_index_out_of_range(self, blobs):
        parity = encode_parity(blobs)
        with pytest.raises(RestoreError, match="out of range"):
            rebuild_member(parity, dict(enumerate(blobs)), len(blobs), 9)

    def test_oversized_survivor_rejected(self):
        parity = encode_parity([b"ab", b"cd"])
        with pytest.raises(RestoreError, match="larger than"):
            rebuild_member(parity, {0: b"way too long" * 10}, 2, 1)

    def test_corrupt_prefix_from_damaged_survivor(self, rng):
        blobs = [rng.bytes(40), rng.bytes(40)]
        parity = encode_parity(blobs)
        # survivor damaged to the full block length: its bytes land in the
        # length-prefix region and corrupt the reconstructed prefix
        damaged = b"\xff" * len(parity)
        with pytest.raises(RestoreError, match="length prefix|larger than"):
            rebuild_member(parity, {0: damaged}, 2, 1)
