"""Unit tests for bitmap/index encoding (paper Sections III-C/III-D)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoding import (
    EncodedPayload,
    decode_coefficients,
    encode_coefficients,
)
from repro.exceptions import DecompressionError


def make_payload(rng, size=100, quantized_fraction=0.7, n_bins=8):
    coeffs = rng.standard_normal(size)
    mask = rng.random(size) < quantized_fraction
    n_q = int(mask.sum())
    indices = rng.integers(0, n_bins, n_q).astype(np.uint8)
    averages = rng.standard_normal(n_bins)
    return coeffs, mask, indices, averages


class TestEncode:
    def test_roundtrip(self, rng):
        coeffs, mask, indices, averages = make_payload(rng)
        payload = encode_coefficients(coeffs, mask, indices, averages)
        decoded = decode_coefficients(payload)
        np.testing.assert_array_equal(decoded[~mask], coeffs[~mask])
        np.testing.assert_array_equal(decoded[mask], averages[indices])

    def test_roundtrip_no_quantization(self, rng):
        coeffs = rng.standard_normal(37)
        payload = encode_coefficients(
            coeffs, np.zeros(37, bool), np.zeros(0, np.uint8), np.zeros(0)
        )
        np.testing.assert_array_equal(decode_coefficients(payload), coeffs)

    def test_roundtrip_all_quantized(self, rng):
        coeffs, _, _, averages = make_payload(rng, n_bins=4)
        mask = np.ones(coeffs.size, bool)
        indices = rng.integers(0, 4, coeffs.size).astype(np.uint8)
        payload = encode_coefficients(coeffs, mask, indices, averages)
        np.testing.assert_array_equal(decode_coefficients(payload), averages[indices])

    def test_multidim_input_flattened_in_order(self, rng):
        coeffs = rng.standard_normal((6, 4))
        mask = np.zeros(24, bool)
        payload = encode_coefficients(coeffs, mask, np.zeros(0, np.uint8), np.zeros(0))
        np.testing.assert_array_equal(payload.raw_values, coeffs.ravel())

    def test_bitmap_is_packed(self, rng):
        coeffs, mask, indices, averages = make_payload(rng, size=100)
        payload = encode_coefficients(coeffs, mask, indices, averages)
        assert payload.bitmap.size == (100 + 7) // 8

    def test_mask_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            encode_coefficients(
                rng.standard_normal(10), np.zeros(9, bool), np.zeros(0, np.uint8), np.zeros(0)
            )

    def test_indices_length_mismatch(self, rng):
        mask = np.ones(10, bool)
        with pytest.raises(ValueError):
            encode_coefficients(
                rng.standard_normal(10), mask, np.zeros(5, np.uint8), np.zeros(4)
            )

    def test_index_beyond_table(self, rng):
        mask = np.ones(4, bool)
        with pytest.raises(ValueError):
            encode_coefficients(
                rng.standard_normal(4),
                mask,
                np.array([0, 1, 2, 5], np.uint8),
                np.zeros(4),
            )


class TestDecodeValidation:
    def _payload(self, rng):
        coeffs, mask, indices, averages = make_payload(rng, size=50)
        return encode_coefficients(coeffs, mask, indices, averages)

    def test_bitmap_size_mismatch(self, rng):
        p = self._payload(rng)
        bad = EncodedPayload(p.bitmap[:-1], p.averages, p.indices, p.raw_values, p.size)
        with pytest.raises(DecompressionError):
            decode_coefficients(bad)

    def test_index_count_mismatch(self, rng):
        p = self._payload(rng)
        bad = EncodedPayload(p.bitmap, p.averages, p.indices[:-1], p.raw_values, p.size)
        with pytest.raises(DecompressionError):
            decode_coefficients(bad)

    def test_raw_count_mismatch(self, rng):
        p = self._payload(rng)
        bad = EncodedPayload(p.bitmap, p.averages, p.indices, p.raw_values[:-1], p.size)
        with pytest.raises(DecompressionError):
            decode_coefficients(bad)

    def test_index_out_of_table(self, rng):
        p = self._payload(rng)
        indices = p.indices.copy()
        if indices.size:
            indices[0] = 200
            bad = EncodedPayload(p.bitmap, p.averages, indices, p.raw_values, p.size)
            with pytest.raises(DecompressionError):
                decode_coefficients(bad)

    def test_negative_size(self, rng):
        p = self._payload(rng)
        bad = EncodedPayload(p.bitmap, p.averages, p.indices, p.raw_values, -1)
        with pytest.raises(DecompressionError):
            decode_coefficients(bad)

    def test_empty_payload(self):
        p = EncodedPayload(
            np.zeros(0, np.uint8), np.zeros(0), np.zeros(0, np.uint8), np.zeros(0), 0
        )
        assert decode_coefficients(p).size == 0
