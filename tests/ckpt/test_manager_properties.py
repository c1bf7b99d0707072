"""Property-based tests of the checkpoint manager and stores."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import CompressionConfig
from repro.ckpt.manager import (
    CheckpointManager,
    deserialize_array,
    serialize_array_lossless,
)
from repro.ckpt.protocol import ArrayRegistry
from repro.ckpt.store import MemoryStore

SETTINGS = settings(max_examples=40, deadline=None)

any_dtype = st.sampled_from(
    [np.float64, np.float32, np.int64, np.int32, np.int8, np.uint16, np.bool_]
)
small_shape = st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple)


@st.composite
def arbitrary_arrays(draw):
    dtype = draw(any_dtype)
    shape = draw(small_shape)
    if dtype == np.bool_:
        return draw(hnp.arrays(np.bool_, shape))
    if np.issubdtype(dtype, np.floating):
        return draw(
            hnp.arrays(
                dtype, shape,
                elements=st.floats(-1e6, 1e6, allow_nan=False,
                                   allow_infinity=False, width=32),
            )
        )
    info = np.iinfo(dtype)
    return draw(
        hnp.arrays(dtype, shape, elements=st.integers(info.min, info.max))
    )


class TestLosslessSerializationProperty:
    @SETTINGS
    @given(arr=arbitrary_arrays(), codec=st.sampled_from(
        ["zlib", "gzip", "rle", "xor-delta", "none"]
    ))
    def test_bit_exact_any_dtype_any_codec(self, arr, codec):
        out = deserialize_array(serialize_array_lossless(arr, codec))
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        np.testing.assert_array_equal(out, arr)


class TestManagerProperty:
    @SETTINGS
    @given(
        arrays=st.dictionaries(
            st.text(alphabet="abcdefgh", min_size=1, max_size=6),
            arbitrary_arrays(),
            min_size=1,
            max_size=4,
        ),
        steps=st.lists(st.integers(0, 50), min_size=1, max_size=4, unique=True),
    )
    def test_checkpoint_restore_cycle(self, arrays, steps):
        """Any mix of dtypes through a lossless-config manager restores
        bit-exactly at every checkpointed step, and steps() reports exactly
        what was written."""
        registry = ArrayRegistry()
        for name, arr in arrays.items():
            registry.register(name, np.array(arr, copy=True))
        manager = CheckpointManager(
            registry, MemoryStore(),
            config=CompressionConfig(quantizer="none"),
            policy={name: "lossless" for name in arrays},
        )
        originals = {n: np.array(a, copy=True) for n, a in arrays.items()}
        for step in sorted(steps):
            manager.checkpoint(step)
        assert manager.steps() == sorted(steps)
        # scramble the live arrays, restore the newest checkpoint
        for name in arrays:
            live = registry.get(name)
            live[...] = np.zeros_like(live)
        manager.restore()
        for name, original in originals.items():
            np.testing.assert_array_equal(registry.get(name), original)


class TestStoreKeyProperty:
    @SETTINGS
    @given(
        keys=st.lists(
            st.from_regex(r"[a-z0-9]{1,8}(/[a-z0-9]{1,8}){0,2}", fullmatch=True),
            min_size=1, max_size=8, unique=True,
        ),
        payloads=st.data(),
    )
    def test_memory_store_contract(self, keys, payloads):
        store = MemoryStore()
        expected = {}
        for key in keys:
            blob = payloads.draw(st.binary(max_size=64))
            store.put(key, blob)
            expected[key] = blob
        assert store.list_keys() == sorted(expected)
        for key, blob in expected.items():
            assert store.get(key) == blob
