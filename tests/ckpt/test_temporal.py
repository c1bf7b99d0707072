"""Temporal delta chains: engine semantics, crash matrix, chained restore.

The claims under test:

* every generation reconstructs within the configured error bound, no
  matter how long the delta chain is (the predictor consumes decoded
  state, so errors never compound);
* keyframe fallbacks fire for exactly the documented reasons;
* a crash at any store operation of a delta commit leaves the store
  restorable to the last *committed* generation, and a fresh writer
  continues the chain from there;
* retention pruning never severs a retained generation's chain.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ckpt import temporal
from repro.ckpt.faults import CRASH_KINDS, FaultInjectingStore, FaultPlan
from repro.ckpt.manager import CheckpointManager, deserialize_array
from repro.ckpt.manifest import COMMIT_FILENAME, MANIFEST_FILENAME, array_key, manifest_key
from repro.ckpt.protocol import ArrayRegistry
from repro.ckpt.recovery import recover
from repro.ckpt.store import CountingStore, MemoryStore
from repro.ckpt.temporal import (
    CODEC_DELTA,
    CODEC_KEYFRAME,
    FILTER_NONE,
    TemporalEngine,
    chain_closure,
    choose_filter,
    decode_delta,
    predict,
)
from repro.config import TemporalConfig
from repro.core import container
from repro.core.pipeline import WaveletCompressor
from repro.exceptions import (
    CheckpointError,
    CheckpointNotFoundError,
    ConfigurationError,
    CorruptionError,
    FormatError,
    NonFiniteDataError,
    SimulatedCrash,
)

EB = 1e-4


def _drifting_arrays(n_steps: int, *, shape=(12, 6), seed=3):
    """A smoothly-evolving field: the regime temporal deltas exist for."""
    rng = np.random.default_rng(seed)
    arr = np.cumsum(rng.standard_normal(shape), axis=0)
    out = []
    for _ in range(n_steps):
        arr = arr + 0.01 * rng.standard_normal(shape)
        out.append(arr.copy())
    return out


def _engine(**overrides) -> TemporalEngine:
    return TemporalEngine(TemporalConfig(error_bound=EB, **overrides))


# -- config ---------------------------------------------------------------------


class TestTemporalConfig:
    def test_defaults_are_valid(self):
        cfg = TemporalConfig()
        assert cfg.error_bound == 1e-3
        assert cfg.predictor == "previous"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"error_bound": 0.0},
            {"error_bound": -1e-3},
            {"error_bound": True},
            {"predictor": "oracle"},
            {"error_bound": float("nan")},
            {"keyframe_every": 0},
            {"keyframe_every": 2.5},
            {"predictor": ""},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            TemporalConfig(**kwargs)

    def test_dict_roundtrip(self):
        cfg = TemporalConfig(error_bound=1e-5, predictor="lowband")
        assert TemporalConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            TemporalConfig.from_dict({"error_bound": 1e-3, "sneaky": 1})

    def test_keyframe_config_pins_bounded_quantizer(self):
        kf = TemporalConfig(error_bound=1e-5).keyframe_config()
        assert kf.quantizer == "bounded"
        assert kf.error_bound == 1e-5


# -- predictor ------------------------------------------------------------------


class TestPredict:
    def test_previous_is_identity_in_float64(self):
        prev = np.linspace(0, 1, 24, dtype=np.float32).reshape(6, 4)
        out = predict(prev, "previous", 2)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, prev.astype(np.float64))

    def test_previous_of_float64_is_the_input_not_a_copy(self):
        """Neither coder writes to the prediction; a 1.5 MB pass per array
        and generation is not spent on guarding against it."""
        prev = np.zeros(8)
        assert predict(prev, "previous", 2) is prev
        narrow = np.zeros(8, dtype=np.float32)
        out = predict(narrow, "previous", 2)
        assert out.dtype == np.float64 and not np.shares_memory(out, narrow)

    def test_lowband_smooths_high_frequency(self):
        rng = np.random.default_rng(0)
        smooth = np.sin(np.linspace(0, 3, 64))
        noisy = smooth + rng.standard_normal(64)
        out = predict(noisy, "lowband", 2)
        assert out.shape == noisy.shape
        # zeroing the high bands must bring the field closer to its
        # smooth component than the raw noisy input is
        assert np.abs(out - smooth).mean() < np.abs(noisy - smooth).mean()

    def test_lowband_is_deterministic(self):
        arr = np.cumsum(np.random.default_rng(1).standard_normal((8, 8)))
        np.testing.assert_array_equal(
            predict(arr, "lowband", 3), predict(arr, "lowband", 3)
        )


class TestDecodeReadsThePredictorFromTheHeader:
    """A delta decodes with the predictor and low-band depth its header
    records, whatever depth today's writer uses: stored blobs decode
    forever."""

    def _delta(self, levels):
        header = {
            "kind": "temporal-delta", "shape": [8, 8], "dtype": "<f8",
            "base_step": 0, "chain_index": 1, "predictor": "lowband",
            "lowband_levels": levels, "error_bound": 0.5, "index_dtype": "<i2",
        }
        indices = np.arange(64, dtype=np.int16).reshape(8, 8)
        return container.wrap_envelope(
            container.write_body(header, {"indices": indices}), "zlib"
        )

    @pytest.mark.parametrize("levels", [1, 3])
    def test_depth_comes_from_the_header(self, levels):
        prev = np.cumsum(np.random.default_rng(2).standard_normal((8, 8)), axis=0)
        expected = np.arange(64.0).reshape(8, 8) + predict(prev, "lowband", levels)
        assert levels != TemporalConfig.lowband_levels
        np.testing.assert_array_equal(decode_delta(self._delta(levels), prev), expected)


# -- engine: encode/commit semantics -------------------------------------------


class TestEngineEncode:
    def test_first_generation_is_an_initial_keyframe(self):
        eng = _engine()
        enc = eng.encode("f", np.ones((4, 4)), 0)
        assert enc.is_keyframe and enc.reason == "initial"
        assert enc.chain_index == 0
        assert enc.max_error <= EB * (1 + 1e-6)

    def test_second_generation_is_a_delta_decoding_bit_identically(self):
        steps = _drifting_arrays(2)
        eng = _engine()
        eng.encode("f", steps[0], 0)
        eng.commit(0)
        base_recon = eng.committed_recon("f")
        enc = eng.encode("f", steps[1], 1)
        assert not enc.is_keyframe and enc.reason == "delta"
        assert enc.chain_index == 1
        assert enc.params["base_step"] == 0
        # the decode path reproduces the staged reconstruction exactly
        recon = decode_delta(enc.blob, base_recon)
        eng.commit(1)
        np.testing.assert_array_equal(recon, eng.committed_recon("f"))
        assert np.abs(steps[1] - recon).max() <= EB * (1 + 1e-6)

    def test_bound_holds_over_a_long_chain(self):
        steps = _drifting_arrays(10)
        eng = _engine(keyframe_every=16)
        for i, arr in enumerate(steps):
            enc = eng.encode("f", arr, i)
            eng.commit(i)
            assert enc.max_error <= EB * (1 + 1e-6)
            assert (
                np.abs(arr - eng.committed_recon("f")).max() <= EB * (1 + 1e-6)
            )

    def test_chain_limit_forces_a_keyframe(self):
        steps = _drifting_arrays(4)
        eng = _engine(keyframe_every=3)
        reasons = []
        for i, arr in enumerate(steps):
            reasons.append(eng.encode("f", arr, i).reason)
            eng.commit(i)
        assert reasons == ["initial", "delta", "delta", "chain-limit"]

    def test_shape_change_forces_a_keyframe(self):
        eng = _engine()
        eng.encode("f", np.cumsum(np.ones((4, 4))).reshape(4, 4), 0)
        eng.commit(0)
        enc = eng.encode("f", np.ones((8, 2)), 1)
        assert enc.is_keyframe and enc.reason == "shape-changed"

    def test_residual_overflow_forces_a_keyframe(self):
        eng = _engine()  # eb 1e-4: a jump of 1e9 needs ~5e12 > int32 bins
        eng.encode("f", np.zeros((4, 4)), 0)
        eng.commit(0)
        enc = eng.encode("f", np.full((4, 4), 1e9), 1)
        assert enc.is_keyframe and enc.reason == "overflow"

    def test_drift_forces_a_keyframe(self):
        # At 8192 the float32 spacing is 2^-10 ~ 9.77e-4.  With the bound
        # between half an ulp and a full ulp, the float64 reconstruction
        # (8192 + 4.94e-4, within the bound) rounds to the *neighboring*
        # float32 -- a full-ulp error the bound does not cover, so the
        # measured-drift guard must fire.
        eb = 5.5e-4
        prev = np.full(8, 8192.0 - 4 * 2**-10, dtype=np.float32)
        arr = np.full(8, 8192.0, dtype=np.float32)
        eng = TemporalEngine(TemporalConfig(error_bound=eb))
        eng.seed(0, {"f": prev}, {"f": 0})
        enc = eng.encode("f", arr, 1)
        assert enc.is_keyframe and enc.reason == "drift"

    def test_inflating_delta_forces_a_keyframe(self):
        # raw is 8 bytes; any container blob is bigger than that
        eng = _engine()
        eng.encode("f", np.array([1.0, 2.0], dtype=np.float32), 0)
        eng.commit(0)
        enc = eng.encode("f", np.array([1.0, 2.1], dtype=np.float32), 1)
        assert enc.is_keyframe and enc.reason == "inflation"

    def test_ineligible_array_is_rejected(self):
        eng = _engine()
        with pytest.raises(CheckpointError, match="not\\s+eligible"):
            eng.encode("f", np.arange(4, dtype=np.int64), 0)

    def test_non_finite_data_is_rejected(self):
        eng = _engine()
        with pytest.raises(NonFiniteDataError, match="NaN"):
            eng.encode("f", np.array([1.0, np.nan]), 0)

    def test_eligibility_domain(self):
        assert TemporalEngine.eligible(np.zeros(2, dtype=np.float32))
        assert TemporalEngine.eligible(np.zeros((3, 3)))
        assert not TemporalEngine.eligible(np.zeros(2, dtype=np.int32))
        assert not TemporalEngine.eligible(np.zeros(2, dtype=np.float16))
        assert not TemporalEngine.eligible(np.float64(3.0))  # 0-d
        assert not TemporalEngine.eligible(np.zeros(1))  # size 1


class TestEngineTransactions:
    def test_uncommitted_encode_does_not_move_the_predictor(self):
        steps = _drifting_arrays(3)
        eng = _engine()
        eng.encode("f", steps[0], 0)
        eng.commit(0)
        eng.encode("f", steps[1], 1)  # staged, never committed
        eng.rollback()
        enc = eng.encode("f", steps[2], 2)
        assert enc.params["base_step"] == 0  # still predicts from step 0

    def test_commit_drops_stagings_of_other_steps(self):
        steps = _drifting_arrays(2)
        eng = _engine()
        eng.encode("f", steps[0], 0)
        eng.commit(99)  # wrong step: staging must be discarded, not kept
        assert eng.committed_recon("f") is None
        assert eng.encode("f", steps[1], 1).reason == "initial"

    def test_reset_restarts_chains(self):
        steps = _drifting_arrays(2)
        eng = _engine()
        eng.encode("f", steps[0], 0)
        eng.commit(0)
        eng.reset()
        assert eng.encode("f", steps[1], 1).reason == "initial"

    def test_seed_adopts_state_and_chain_position(self):
        steps = _drifting_arrays(2)
        eng = _engine(keyframe_every=4)
        eng.seed(7, {"f": steps[0]}, {"f": 2})
        enc = eng.encode("f", steps[1], 8)
        assert enc.reason == "delta"
        assert enc.params["base_step"] == 7
        assert enc.chain_index == 3

    def test_seed_skips_ineligible_arrays(self):
        eng = _engine()
        eng.seed(0, {"i": np.arange(3)}, {"i": 0})
        assert eng.committed_recon("i") is None

    def test_keyframes_of_two_names_encode_concurrently(self):
        """Two threads keyframe two same-shape arrays at once, 50 times:
        the bytes are the serial encode's and each staged reconstruction
        is the decode of its own blob."""
        fields = {
            "a": np.cumsum(np.random.default_rng(1).standard_normal((256, 128)), axis=0),
            "b": np.cumsum(np.random.default_rng(2).standard_normal((256, 128)), axis=1),
        }
        serial = {name: _engine().encode(name, arr, 0).blob for name, arr in fields.items()}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(50):
                eng = _engine()
                both = threading.Barrier(2)
                out: dict[str, object] = {}

                def encode(name: str) -> None:
                    both.wait()
                    try:
                        out[name] = eng.encode(name, fields[name], 0).blob
                    except Exception as exc:  # noqa: BLE001 - compared below
                        out[name] = exc

                threads = [threading.Thread(target=encode, args=(n,)) for n in fields]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                assert out == serial
                for name, blob in out.items():
                    np.testing.assert_array_equal(
                        eng._pending[name][2], WaveletCompressor.decompress(blob)
                    )
        finally:
            sys.setswitchinterval(interval)


class TestMaxAbsError:
    """The blockwise error measure is the full-array float64 expression it
    replaced, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape", [(0,), (1,), (7, 3), (temporal._ERR_BLOCK_ITEMS,), (3, temporal._ERR_BLOCK_ITEMS // 2 + 5)]
    )
    def test_equals_the_full_array_expression(self, dtype, shape):
        rng = np.random.default_rng(sum(shape))
        x = (np.cumsum(rng.standard_normal(shape), axis=-1) * 1e3).astype(dtype)
        recon = (x + rng.uniform(-1e-3, 1e-3, shape)).astype(dtype)
        old = (
            float(np.abs(x.astype(np.float64) - recon.astype(np.float64)).max())
            if x.size else 0.0
        )
        got = temporal._max_abs_error(x, recon)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(old).tobytes()

    def test_of_an_engine_keyframe_and_delta(self):
        steps = _drifting_arrays(2, shape=(300, 250))
        eng = _engine()
        for step, arr in enumerate(steps):
            enc = eng.encode("f", arr, step)
            recon = eng._pending["f"].recon
            assert enc.max_error == float(np.abs(arr - recon.astype(np.float64)).max())
            eng.commit(step)
        assert not enc.is_keyframe


# -- blob format ----------------------------------------------------------------


class TestDeltaFormat:
    def _delta(self, predictor="previous"):
        steps = _drifting_arrays(2)
        eng = TemporalEngine(
            TemporalConfig(error_bound=EB, predictor=predictor)
        )
        eng.encode("f", steps[0], 0)
        eng.commit(0)
        base = eng.committed_recon("f")
        return eng.encode("f", steps[1], 1).blob, base, steps[1]

    def test_keyframe_blob_is_not_a_delta(self):
        eng = _engine()
        kf = eng.encode("f", np.cumsum(np.ones(16)), 0)
        with pytest.raises(FormatError, match="not a temporal delta"):
            decode_delta(kf.blob, np.zeros(16))

    def test_decode_rejects_mismatched_previous_shape(self):
        blob, base, _ = self._delta()
        with pytest.raises(FormatError, match="shape"):
            decode_delta(blob, base.ravel())

    def test_decode_rejects_a_previous_generation_of_another_dtype(self):
        """The encoder forces a keyframe on any dtype change, so no chain
        it wrote ever asks for this."""
        blob, base, _ = self._delta()
        with pytest.raises(FormatError, match="dtype"):
            decode_delta(blob, base.astype(np.float32))

    @pytest.mark.parametrize("forged", ["|u1", "|b1"])
    def test_decode_rejects_an_index_dtype_the_encoder_never_writes(self, forged):
        """Same item size as the ``|i1`` written, so nothing else notices:
        the parent decoded these to ~500x the bound."""
        blob, base, _ = self._delta()
        body, backend = container.unwrap_envelope(blob)
        header, sections = container.read_body(body)
        assert header["index_dtype"] == "|i1"
        header["index_dtype"] = forged
        rewritten = container.wrap_envelope(container.write_body(header, sections), backend)
        with pytest.raises(FormatError, match="index dtype"):
            decode_delta(rewritten, base)

    @pytest.mark.parametrize(
        "case", ["temporal_delta", "temporal_delta_filtered_i8", "temporal_delta_filtered_i16"]
    )
    def test_decode_from_a_body_inflated_elsewhere_is_the_decode(self, case):
        """``unseal=`` moves the inflate, nothing else: against the frozen
        delta blobs of ``test_format_stability.py``."""
        from ..core import test_format_stability as goldens

        if case == "temporal_delta":
            base, blob = goldens._temporal_pair()[0], goldens.v2_blob(case)
        else:
            base = goldens._filtered_temporal_pair(goldens.FILTERED_CASES[case][0])[0]
            blob = goldens.base64.b64decode(goldens.V2_FILTERED_BLOBS_B64[case])
        body = container.read_body(container.unwrap_envelope(blob)[0])
        handed = []
        decoded = decode_delta(blob, base, unseal=lambda b: handed.append(b) or body)
        assert handed == [blob]
        plain = decode_delta(blob, base)
        assert decoded.dtype == plain.dtype and decoded.tobytes() == plain.tobytes()

    def test_lowband_delta_roundtrips(self):
        blob, base, orig = self._delta(predictor="lowband")
        recon = decode_delta(blob, base)
        assert np.abs(orig - recon).max() <= EB * (1 + 1e-6)


# -- residual filter ------------------------------------------------------------


def _loop_filter(q: np.ndarray, axis: int) -> np.ndarray:
    """Reference: the first difference item by item in Python ints,
    wrapped into the dtype's range by hand."""
    info = np.iinfo(q.dtype)
    lo, span = int(info.min), int(info.max) - int(info.min) + 1
    out = q.copy()
    for idx in np.ndindex(q.shape):
        if idx[axis]:
            before = idx[:axis] + (idx[axis] - 1,) + idx[axis + 1 :]
            out[idx] = (int(q[idx]) - int(q[before]) - lo) % span + lo
    return out


@st.composite
def _indices_and_axis(draw, *, lowest_is_min: bool):
    """An index array of 1 to 4 axes (length-1 axes included) whose values
    crowd the ends of the dtype's range, and an axis to filter along."""
    dtype = np.dtype(draw(st.sampled_from([np.int8, np.int16, np.int32])))
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    info = np.iinfo(dtype)
    lo = int(info.min) if lowest_is_min else -int(info.max)
    hi = int(info.max)
    elements = st.one_of(
        st.sampled_from([lo, lo + 1, -1, 0, 1, hi - 1, hi]), st.integers(lo, hi)
    )
    q = draw(hnp.arrays(dtype, shape, elements=elements))
    return q, draw(st.integers(0, len(shape) - 1))


class TestResidualFilter:
    @given(_indices_and_axis(lowest_is_min=True))
    def test_filter_matches_the_loop_and_undoes_exactly(self, case):
        q, axis = case
        filtered = temporal._apply_filter(q, axis)
        assert filtered.dtype == q.dtype  # the width never grows
        np.testing.assert_array_equal(filtered, _loop_filter(q, axis))
        restored = temporal._undo_filter(filtered, axis)
        assert restored.dtype == q.dtype
        np.testing.assert_array_equal(restored, q)

    def test_wrap_boundary_by_hand(self):
        q = np.array([127, -128, 127, 0], dtype=np.int8)
        filtered = temporal._apply_filter(q, 0)
        np.testing.assert_array_equal(filtered, np.array([127, 1, -1, -127], np.int8))
        np.testing.assert_array_equal(temporal._undo_filter(filtered, 0), q)

    @settings(deadline=None, max_examples=60)
    @given(_indices_and_axis(lowest_is_min=False), st.data())
    def test_filtered_blob_decodes_like_the_unfiltered_path(self, case, data):
        """Whatever the indices, dtype and axis: a filtered blob decodes,
        bit for bit, to what the same residual stored unfiltered decodes
        to -- and to what the encoder staged."""
        q, axis = case
        # the encoder sizes the dtype by the largest |index|: pin it, with
        # the two ends of the range side by side
        flat = q.reshape(-1).copy()
        flat[0] = np.iinfo(q.dtype).max
        if flat.size > 1:
            flat[1] = -np.iinfo(q.dtype).max
        q = flat.reshape(q.shape)
        # enough items that the header does not make the delta inflate
        grow = data.draw(st.integers(0, q.ndim - 1))
        q = np.concatenate([q] * -(-160 // q.size), axis=grow)
        # 2 * eb == 1 and a zero prediction: the residual index *is* the value
        config = TemporalConfig(error_bound=0.5)
        prev = np.zeros(q.shape)
        arr = q.astype(np.float64)
        with mock.patch.object(temporal, "choose_filter", return_value=axis):
            blob, recon, reason, _err, spec = temporal._encode_delta(
                arr, prev, 0, 1, config
            )
        with mock.patch.object(temporal, "choose_filter", return_value=None):
            plain, plain_recon, _reason, _err, plain_spec = temporal._encode_delta(
                arr, prev, 0, 1, config
            )
        assert reason == "delta" and blob is not None and plain is not None
        assert spec == {"kind": "delta", "axis": axis} and plain_spec == FILTER_NONE
        header, sections = container.read_body(container.unwrap_envelope(blob)[0])
        assert header["filter"] == spec and list(sections) == ["filtered"]
        assert header["index_dtype"] == q.dtype.str
        plain_header, plain_sections = container.read_body(
            container.unwrap_envelope(plain)[0]
        )
        assert "filter" not in plain_header and list(plain_sections) == ["indices"]
        decoded = decode_delta(blob, prev)
        assert decoded.tobytes() == decode_delta(plain, prev).tobytes()
        assert decoded.tobytes() == recon.tobytes() == plain_recon.tobytes()
        assert decoded.tobytes() == arr.tobytes()


def _smooth_indices(dtype=np.int8, shape=(64, 48)) -> np.ndarray:
    """Indices that vary smoothly down axis 0 and jump from column to
    column: only the axis-0 difference is small."""
    scale = np.iinfo(dtype).max / 3
    wave = np.sin(np.arange(shape[0]) / 9.0)[:, None]
    jumps = np.random.default_rng(2).uniform(-1, 1, shape[1])[None, :]
    return np.rint(scale * (wave + jumps)).astype(dtype)


class TestFilterChoice:
    def test_smooth_residual_is_differenced_along_its_smooth_axis(self):
        assert choose_filter(_smooth_indices()) == 0
        assert choose_filter(_smooth_indices().T.copy()) == 1
        assert choose_filter(_smooth_indices(np.int16)) == 0

    def test_white_noise_keeps_none(self):
        rng = np.random.default_rng(5)
        for dtype, spread in ((np.int8, 40), (np.int8, 127), (np.int16, 3000)):
            q = rng.integers(-spread, spread + 1, size=(300, 40, 2)).astype(dtype)
            assert choose_filter(q) is None, (dtype, spread)

    def test_all_zero_residual_keeps_none(self):
        assert choose_filter(np.zeros((200, 30), dtype=np.int8)) is None
        assert choose_filter(np.zeros(5, dtype=np.int32)) is None

    def test_sparse_residual_under_the_huffman_floor_keeps_none(self):
        """Under one bit per index no Huffman code gets smaller: LZ77
        codes such a plane, and differencing only breaks up its runs."""
        q = np.zeros((400, 50), dtype=np.int8)
        q[::7, ::5] = 1
        q[3::11, 2::9] = -1
        assert choose_filter(q) is None

    def test_length_one_axes_are_never_chosen(self):
        q = _smooth_indices()[:, None, :, None]
        assert choose_filter(q) == 0
        assert choose_filter(np.arange(100, dtype=np.int8).reshape(1, 100, 1)) == 1

    def test_engine_records_the_choice(self):
        eng = TemporalEngine(TemporalConfig(error_bound=0.5))
        base = np.zeros((64, 48))
        key = eng.encode("f", base, 0)
        assert key.is_keyframe and key.filter is None
        assert "filter" not in key.params
        eng.commit(0)
        recon = eng.committed_recon("f")
        smooth = eng.encode("f", recon + _smooth_indices(), 1)
        assert smooth.filter == smooth.params["filter"] == {"kind": "delta", "axis": 0}
        rng = np.random.default_rng(1)
        noise = eng.encode("f", recon + rng.integers(-9, 10, size=base.shape), 1)
        assert noise.filter == noise.params["filter"] == FILTER_NONE

    def test_choice_and_bytes_are_the_same_in_another_process(self):
        """No clock, no hash order, no state: a child interpreter with a
        different hash seed picks the same filters and emits the same
        bytes."""
        code = (
            "import hashlib, numpy as np\n"
            "from repro.ckpt.temporal import TemporalEngine, choose_filter\n"
            "from repro.config import TemporalConfig\n"
            "rng = np.random.default_rng(11)\n"
            "walk = np.cumsum(rng.integers(-3, 4, size=(500, 37, 2)), axis=0)\n"
            "print(choose_filter(walk.astype(np.int16)),\n"
            "      choose_filter(np.swapaxes(walk, 0, 1).astype(np.int16).copy()),\n"
            "      choose_filter(rng.integers(-5, 6, size=(90, 90)).astype(np.int8)))\n"
            "eng = TemporalEngine(TemporalConfig(error_bound=0.5))\n"
            "eng.encode('f', np.zeros(walk.shape), 0); eng.commit(0)\n"
            "enc = eng.encode('f', eng.committed_recon('f') + walk, 1)\n"
            "print(enc.filter, hashlib.sha256(enc.blob).hexdigest())\n"
        )

        def run(hash_seed: str) -> str:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True,
                text=True, timeout=120, check=True,
            )
            return done.stdout

        first = run("1")
        assert first == run("2")
        assert first.startswith("0 1 None\n{'kind': 'delta', 'axis': 0}")


# -- chain closure --------------------------------------------------------------


class _FakeEntry:
    def __init__(self, name, codec, params):
        self.name, self.codec, self.codec_params = name, codec, params


class _FakeManifest:
    def __init__(self, *entries):
        self.entries = entries


class TestChainClosure:
    def test_walks_base_links_to_the_keyframe(self):
        manifests = {
            0: _FakeManifest(_FakeEntry("f", CODEC_KEYFRAME, {})),
            1: _FakeManifest(_FakeEntry("f", CODEC_DELTA, {"base_step": 0})),
            2: _FakeManifest(_FakeEntry("f", CODEC_DELTA, {"base_step": 1})),
            3: _FakeManifest(_FakeEntry("f", CODEC_KEYFRAME, {})),
        }
        assert chain_closure(manifests.__getitem__, [2]) == {0, 1, 2}
        assert chain_closure(manifests.__getitem__, [3]) == {3}
        assert chain_closure(manifests.__getitem__, [2, 3]) == {0, 1, 2, 3}

    def test_missing_base_step_is_corruption(self):
        manifests = {5: _FakeManifest(_FakeEntry("f", CODEC_DELTA, {}))}
        with pytest.raises(CorruptionError, match="base_step"):
            chain_closure(manifests.__getitem__, [5])

    def test_uncommitted_base_is_corruption(self):
        def read_manifest(step):
            if step == 4:
                raise CheckpointNotFoundError("no committed checkpoint for step 4")
            return _FakeManifest(_FakeEntry("f", CODEC_DELTA, {"base_step": 4}))

        with pytest.raises(CorruptionError, match="generation 4 .*step 4"):
            chain_closure(read_manifest, [5])


# -- manager integration --------------------------------------------------------


def _registry(arr: np.ndarray, name: str = "field") -> ArrayRegistry:
    reg = ArrayRegistry()
    reg.register(name, arr.copy())
    return reg


def _manager(registry, store, **kwargs) -> CheckpointManager:
    kwargs.setdefault(
        "temporal", TemporalConfig(error_bound=EB, keyframe_every=4)
    )
    return CheckpointManager(registry, store, **kwargs)


def _write_chain(store, steps, **kwargs):
    """Checkpoint every array in ``steps`` through one manager."""
    reg = _registry(steps[0])
    manager = _manager(reg, store, **kwargs)
    for i, arr in enumerate(steps):
        np.copyto(reg.get("field"), arr)
        manager.checkpoint(i)
    return manager


class TestManagerChains:
    def test_manifest_records_keyframes_and_deltas(self):
        store = MemoryStore()
        manager = _write_chain(store, _drifting_arrays(6))
        codecs = [
            manager.read_manifest(s).entry("field").codec
            for s in range(6)
        ]
        assert codecs == [
            CODEC_KEYFRAME, CODEC_DELTA, CODEC_DELTA, CODEC_DELTA,
            CODEC_KEYFRAME, CODEC_DELTA,
        ]
        entry = manager.read_manifest(5).entry("field")
        assert entry.codec_params["base_step"] == 4
        assert entry.codec_params["chain_index"] == 1

    def test_every_generation_restores_within_bound(self):
        steps = _drifting_arrays(6)
        store = MemoryStore()
        _write_chain(store, steps)
        reader = _manager(_registry(np.zeros_like(steps[0])), store)
        for i, arr in enumerate(steps):
            reader.restore(i)
            err = np.abs(reader.registry.get("field") - arr).max()
            assert err <= EB * (1 + 1e-6), f"step {i}: {err}"

    def test_restore_at_keyframe_boundary_is_self_contained(self):
        steps = _drifting_arrays(5)
        store = MemoryStore()
        manager = _write_chain(store, steps)
        for kf_step in (0, 4):
            entry = manager.read_manifest(kf_step).entry("field")
            assert entry.codec == CODEC_KEYFRAME
            reader = _manager(_registry(np.zeros_like(steps[0])), store)
            reader.restore(kf_step)
            # the keyframe decodes standalone, identical to the chained path
            blob = store.get(array_key(kf_step, "field"))
            np.testing.assert_array_equal(
                reader.registry.get("field"), deserialize_array(blob)
            )

    def test_two_readers_decode_bit_identically(self):
        steps = _drifting_arrays(6)
        store = MemoryStore()
        _write_chain(store, steps)
        a = _manager(_registry(np.zeros_like(steps[0])), store).load_arrays(5)
        b = _manager(_registry(np.zeros_like(steps[0])), store).load_arrays(5)
        np.testing.assert_array_equal(a["field"], b["field"])

    def test_fresh_writer_continues_the_chain(self):
        steps = _drifting_arrays(4)
        store = MemoryStore()
        _write_chain(store, steps[:3])
        # a new process, no shared state: must seed from the store and
        # keep appending deltas instead of restarting with a keyframe
        reg = _registry(steps[3])
        writer = _manager(reg, store)
        writer.checkpoint(3)
        entry = writer.read_manifest(3).entry("field")
        assert entry.codec == CODEC_DELTA
        assert entry.codec_params["base_step"] == 2
        assert entry.codec_params["chain_index"] == 3
        reader = _manager(_registry(np.zeros_like(steps[0])), store)
        reader.restore(3)
        assert (
            np.abs(reader.registry.get("field") - steps[3]).max()
            <= EB * (1 + 1e-6)
        )

    def test_restore_rewinds_the_predictor(self):
        steps = _drifting_arrays(4)
        store = MemoryStore()
        reg = _registry(steps[0])
        manager = _manager(reg, store)
        for i in range(3):
            np.copyto(reg.get("field"), steps[i])
            manager.checkpoint(i)
        manager.restore(1)  # the app rewinds two generations
        np.copyto(reg.get("field"), steps[3])
        manager.checkpoint(3)
        entry = manager.read_manifest(3).entry("field")
        assert entry.codec == CODEC_DELTA
        # the delta predicts from the restored generation, not from step 2
        assert entry.codec_params["base_step"] == 1

    def test_drift_fallback_reaches_the_manifest(self):
        # Seed the predictor with the half-ulp construction from
        # test_drift_forces_a_keyframe so the drift fallback fires
        # deterministically inside a real commit.
        store = MemoryStore()
        arr = np.full(8, 8192.0, dtype=np.float32)
        prev = np.full(8, 8192.0 - 4 * 2**-10, dtype=np.float32)
        reg = _registry(arr)
        manager = _manager(
            reg, store, temporal=TemporalConfig(error_bound=5.5e-4)
        )
        manager._temporal_engine.seed(0, {"field": prev}, {"field": 0})
        manager._temporal_seeded = True
        manager.checkpoint(1)
        entry = manager.read_manifest(1).entry("field")
        assert entry.codec == CODEC_KEYFRAME
        assert entry.codec_params["reason"] == "drift"

    def test_ineligible_arrays_take_the_normal_path(self):
        store = MemoryStore()
        reg = ArrayRegistry()
        reg.register("field", np.cumsum(np.ones((6, 4))).reshape(6, 4))
        reg.register("counter", np.arange(3, dtype=np.int64))
        manager = _manager(reg, store)
        manager.checkpoint(0)
        manifest = manager.read_manifest(0)
        assert manifest.entry("field").codec == CODEC_KEYFRAME
        assert manifest.entry("counter").codec.startswith("lossless:")
        reader_reg = ArrayRegistry()
        reader_reg.register("field", np.zeros((6, 4)))
        reader_reg.register("counter", np.zeros(3, dtype=np.int64))
        _manager(reader_reg, store).restore(0)
        np.testing.assert_array_equal(
            reader_reg.get("counter"), np.arange(3, dtype=np.int64)
        )


class _KeyRecordingStore(CountingStore):
    """CountingStore that also remembers which keys were read."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.keys_read: list[str] = []

    def _before(self, op: str, key: str) -> None:
        if op == "get":
            self.keys_read.append(key)


class TestRestoreReadsEachManifestOnce:
    N_ARRAYS = 4

    def _store_with_chain(self, n_steps: int) -> MemoryStore:
        store = MemoryStore()
        series = {
            f"f{i}": _drifting_arrays(n_steps, seed=10 + i)
            for i in range(self.N_ARRAYS)
        }
        reg = ArrayRegistry()
        for name, steps in series.items():
            reg.register(name, steps[0].copy())
        manager = _manager(reg, store)
        for step in range(n_steps):
            for name, steps in series.items():
                np.copyto(reg.get(name), steps[step])
            manager.checkpoint(step)
        return store

    @pytest.mark.parametrize("step, chain_length", [(0, 1), (1, 2), (3, 4), (5, 2)])
    def test_manifest_reads_do_not_scale_with_the_array_count(
        self, step, chain_length
    ):
        """All arrays of a generation share their ancestors: a restore
        opens each generation of the chain once -- its commit marker and
        its sealed manifest, the ancestors exactly as the generation
        restored -- not once per array."""
        store = _KeyRecordingStore(self._store_with_chain(6))
        reg = ArrayRegistry()
        for i in range(self.N_ARRAYS):
            reg.register(f"f{i}", np.zeros((12, 6)))
        reader = _manager(reg, store)
        reader.restore(step)
        markers = [k for k in store.keys_read if k.endswith(COMMIT_FILENAME)]
        manifest_reads = [k for k in store.keys_read if k.endswith(MANIFEST_FILENAME)]
        assert len(markers) == len(set(markers)) == chain_length
        assert len(manifest_reads) == len(set(manifest_reads)) == chain_length
        # the blobs themselves: every link of every array, once
        blobs = len(store.keys_read) - len(markers) - len(manifest_reads)
        assert blobs == self.N_ARRAYS * chain_length

    def test_fresh_writer_seeds_from_one_read_of_the_latest_manifest(self):
        store = _KeyRecordingStore(self._store_with_chain(3))
        reg = ArrayRegistry()
        for i in range(self.N_ARRAYS):
            reg.register(f"f{i}", _drifting_arrays(4, seed=10 + i)[3])
        _manager(reg, store)._seed_temporal_from_store()
        manifest_reads = [k for k in store.keys_read if k.endswith(MANIFEST_FILENAME)]
        assert sorted(manifest_reads) == sorted(set(manifest_reads))
        assert len(manifest_reads) == 3  # generation 2 and its ancestors 1, 0


class TestChainPruning:
    def test_retention_spares_the_chain_closure(self):
        steps = _drifting_arrays(5)
        store = MemoryStore()
        manager = _write_chain(store, steps[:4], retention=2)
        # steps 2,3 are retained deltas chained back to keyframe 0:
        # nothing may be pruned yet
        assert manager.steps() == [0, 1, 2, 3]
        np.copyto(manager.registry.get("field"), steps[4])
        manager.checkpoint(4)  # chain-limit keyframe
        # retained {3,4}: 3 still chains to 0, so only nothing-before-0 --
        # everything stays
        assert manager.steps() == [0, 1, 2, 3, 4]
        reader = _manager(_registry(np.zeros_like(steps[0])), store)
        reader.restore(3)

    def test_prune_fires_once_chains_detach(self):
        steps = _drifting_arrays(6)
        store = MemoryStore()
        manager = _write_chain(store, steps, retention=2)
        # after step 5 (delta on keyframe 4) the retained closure is {4,5}
        assert manager.steps() == [4, 5]
        reader = _manager(_registry(np.zeros_like(steps[0])), store)
        reader.restore(5)
        assert (
            np.abs(reader.registry.get("field") - steps[5]).max()
            <= EB * (1 + 1e-6)
        )


class TestChainCorruption:
    def test_missing_base_generation_is_reported_as_a_broken_chain(self):
        steps = _drifting_arrays(3)
        store = MemoryStore()
        manager = _write_chain(store, steps)
        manager.delete(1)  # sever the chain under step 2
        reader = _manager(_registry(np.zeros_like(steps[0])), store)
        with pytest.raises(CorruptionError, match="chain.*broken"):
            reader.restore(2)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda payload: bytes([payload[0] ^ 0x01]) + payload[1:],
            # still a manifest that parses, just not the one the marker sealed
            lambda payload: re.sub(
                rb'("crc32": \d*)(\d)',
                lambda m: m[1] + b"%d" % ((int(m[2]) + 1) % 10),
                payload,
                count=1,
            ),
        ],
        ids=["first-byte-flipped", "crc-digit-changed"],
    )
    def test_damaged_base_manifest_breaks_the_chain_there(self, damage):
        """A base generation whose manifest no longer matches its marker is
        not committed: the chain is reported broken at it, with the
        classification's reason, and no intact blob is blamed."""
        steps = _drifting_arrays(4)
        store = MemoryStore()
        manager = _write_chain(store, steps)
        store.put(manifest_key(2), damage(store.get(manifest_key(2))))
        assert manager.steps() == [0, 1, 3]
        reader = _manager(_registry(np.zeros_like(steps[0])), store)
        with pytest.raises(CorruptionError) as excinfo:
            reader.restore(3)
        message = str(excinfo.value)
        assert "broken at base generation 2" in message
        assert "does not match the CRC/length sealed by the commit marker" in message

    def test_corrupt_base_blob_names_the_broken_generation(self):
        steps = _drifting_arrays(3)
        store = MemoryStore()
        _write_chain(store, steps)
        key = array_key(1, "field")
        store.put(key, store.get(key)[:-7])  # truncate the mid-chain delta
        reader = _manager(_registry(np.zeros_like(steps[0])), store)
        with pytest.raises(CorruptionError, match="checkpoint 1"):
            reader.restore(2)


# -- crash matrix ---------------------------------------------------------------


def _ops_per_delta_commit() -> int:
    steps = _drifting_arrays(2)
    store = MemoryStore()
    _write_chain(store, steps[:1])
    counting = CountingStore(store)
    reg = _registry(steps[1])
    _manager(reg, counting).checkpoint(1)
    return counting.puts + counting.gets


class TestCrashMatrix:
    @pytest.mark.parametrize("mode", CRASH_KINDS)
    def test_crash_mid_delta_commit_preserves_the_committed_chain(self, mode):
        n_ops = _ops_per_delta_commit()
        steps = _drifting_arrays(3)
        for op_index in range(n_ops):
            inner = MemoryStore()
            _write_chain(inner, steps[:2])  # keyframe 0 + delta 1 committed
            before = _manager(
                _registry(np.zeros_like(steps[0])), inner
            ).load_arrays(1)["field"]

            crashing = FaultInjectingStore(
                inner, FaultPlan(schedule=[(op_index, mode)], seed=op_index)
            )
            writer = _manager(_registry(steps[2]), crashing)
            with pytest.raises(SimulatedCrash):
                writer.checkpoint(2)

            # next incarnation: recovery finds the committed prefix intact
            report = recover(inner)
            assert report.committed[:2] == [0, 1], (
                f"op {op_index} mode {mode}: committed chain lost"
            )
            reader = _manager(_registry(np.zeros_like(steps[0])), inner)
            newest = report.committed[-1]
            reader.restore(newest)
            if newest == 1:
                # the generation the crash interrupted left no trace;
                # restore is bit-identical to the pre-crash decode
                np.testing.assert_array_equal(
                    reader.registry.get("field"), before
                )
            assert (
                np.abs(reader.registry.get("field") - steps[newest]).max()
                <= EB * (1 + 1e-6)
            )

            # and a fresh writer continues from whatever committed
            reg = _registry(steps[2])
            cont = _manager(reg, inner)
            if newest != 2:
                cont.checkpoint(2)
            cont_reader = _manager(_registry(np.zeros_like(steps[0])), inner)
            cont_reader.restore(2)
            assert (
                np.abs(cont_reader.registry.get("field") - steps[2]).max()
                <= EB * (1 + 1e-6)
            )

    def test_failed_commit_rolls_the_predictor_back(self):
        steps = _drifting_arrays(3)
        store = MemoryStore()
        manager = _write_chain(store, steps[:2])
        # a live failure (not a crash): non-finite data aborts the txn
        np.copyto(manager.registry.get("field"), np.full_like(steps[0], np.nan))
        with pytest.raises(NonFiniteDataError):
            manager.checkpoint(2)
        # the engine must still predict from committed generation 1
        np.copyto(manager.registry.get("field"), steps[2])
        manager.checkpoint(3)
        entry = manager.read_manifest(3).entry("field")
        assert entry.codec == CODEC_DELTA
        assert entry.codec_params["base_step"] == 1


class TestManagerValidation:
    def test_temporal_must_be_a_config(self):
        with pytest.raises(CheckpointError, match="TemporalConfig"):
            CheckpointManager(
                _registry(np.zeros((2, 2))), MemoryStore(),
                temporal={"error_bound": 1e-3},
            )

    def test_none_disables_the_temporal_path(self):
        store = MemoryStore()
        steps = _drifting_arrays(2)
        manager = _write_chain(store, steps, temporal=None)
        codec = manager.read_manifest(1).entry("field").codec
        assert codec not in (CODEC_DELTA, CODEC_KEYFRAME)
