"""Property-based tests (hypothesis) for the core invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import CompressionConfig, WaveletCompressor
from repro.core import container
from repro.core.encoding import decode_coefficients, encode_coefficients
from repro.core.quantization import proposed_quantize, simple_quantize
from repro.core.wavelet import haar_forward, haar_inverse
from repro.lossless import get_codec

SETTINGS = settings(max_examples=60, deadline=None)

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)

small_shapes = st.lists(st.integers(1, 12), min_size=1, max_size=3).map(tuple)


@st.composite
def float_arrays(draw):
    shape = draw(small_shapes)
    return draw(
        hnp.arrays(np.float64, shape, elements=finite_floats)
    )


@st.composite
def float_vectors(draw, max_size=200):
    n = draw(st.integers(0, max_size))
    return draw(hnp.arrays(np.float64, (n,), elements=finite_floats))


class TestWaveletProperties:
    @SETTINGS
    @given(arr=float_arrays(), levels=st.one_of(st.integers(1, 4), st.just("max")))
    def test_roundtrip(self, arr, levels):
        coeffs, applied = haar_forward(arr, levels)
        back = haar_inverse(coeffs, applied)
        scale = max(1.0, float(np.abs(arr).max()))
        np.testing.assert_allclose(back, arr, atol=1e-9 * scale, rtol=1e-9)

    @SETTINGS
    @given(arr=float_arrays())
    def test_mean_preserved(self, arr):
        """The repeated pairwise average preserves the global mean exactly
        for power-of-two axes and approximately otherwise."""
        coeffs, applied = haar_forward(arr, 1)
        # level-1 low band of an even-length axis has the same mean
        if all(s % 2 == 0 for s in arr.shape) and arr.size:
            low = coeffs[tuple(slice(0, s // 2) for s in arr.shape)]
            scale = max(1.0, float(np.abs(arr).max()))
            assert abs(low.mean() - arr.mean()) < 1e-9 * scale

    @SETTINGS
    @given(arr=float_arrays())
    def test_linearity(self, arr):
        c1, a1 = haar_forward(arr, 1)
        c2, a2 = haar_forward(2.0 * arr, 1)
        assert a1 == a2
        np.testing.assert_allclose(c2, 2.0 * c1, rtol=1e-12, atol=1e-9)


class TestQuantizationProperties:
    @SETTINGS
    @given(values=float_vectors(), n=st.integers(1, 256))
    def test_simple_error_bound(self, values, n):
        r = simple_quantize(values, n)
        if values.size:
            approx = r.averages[r.indices]
            slack = 1e-12 * max(1.0, float(np.abs(values).max()))
            assert np.abs(values - approx).max() <= r.bin_width * (1 + 1e-9) + slack

    @SETTINGS
    @given(values=float_vectors(), n=st.integers(1, 256), d=st.integers(1, 128))
    def test_proposed_error_bound_and_exact_remainder(self, values, n, d):
        r = proposed_quantize(values, n, d)
        approx = values.copy()
        approx[r.quantized_mask] = r.averages[r.indices]
        untouched = ~r.quantized_mask
        np.testing.assert_array_equal(approx[untouched], values[untouched])
        if r.n_quantized:
            err = np.abs(values - approx)[r.quantized_mask].max()
            slack = 1e-12 * max(1.0, float(np.abs(values).max()))
            assert err <= r.bin_width * (1 + 1e-9) + slack

    @SETTINGS
    @given(values=float_vectors(max_size=100), n=st.integers(1, 64))
    def test_simple_mean_of_bin_is_average(self, values, n):
        """Each quantized value maps to the true mean of its bin members."""
        r = simple_quantize(values, n)
        if values.size == 0:
            return
        for b in np.unique(r.indices):
            members = values[r.indices == b]
            # atol absorbs summation-order noise for near-zero bins, where
            # bincount-weights and pairwise mean() differ by a few ULPs
            np.testing.assert_allclose(
                r.averages[b], members.mean(), rtol=1e-9, atol=1e-15
            )


class TestEncodingProperties:
    @SETTINGS
    @given(data=st.data())
    def test_roundtrip(self, data):
        values = data.draw(float_vectors())
        n = values.size
        mask = data.draw(hnp.arrays(np.bool_, (n,)))
        n_q = int(mask.sum())
        n_bins = data.draw(st.integers(1, 256))
        indices = data.draw(
            hnp.arrays(np.uint8, (n_q,), elements=st.integers(0, n_bins - 1))
        )
        averages = data.draw(
            hnp.arrays(np.float64, (n_bins,), elements=finite_floats)
        )
        payload = encode_coefficients(values, mask, indices, averages)
        out = decode_coefficients(payload)
        np.testing.assert_array_equal(out[~mask], values[~mask])
        np.testing.assert_array_equal(out[mask], averages[indices])


class TestContainerProperties:
    @SETTINGS
    @given(
        sections=st.dictionaries(
            st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1,
                max_size=20,
            ),
            st.binary(max_size=500),
            max_size=5,
        ),
        header=st.dictionaries(
            # "planes" is the container's own key (it refuses it)
            st.text(max_size=10).filter(lambda k: k != "planes"),
            st.integers(-1000, 1000),
            max_size=5,
        ),
    )
    def test_body_roundtrip(self, sections, header):
        body = container.write_body(header, sections)
        h, s = container.read_body(body)
        assert h == header and s == sections

    @SETTINGS
    @given(
        arrays=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.sampled_from(["u1", "i2", "u2", "f4", "i4", "f8", "i8"]).flatmap(
                lambda dt: hnp.arrays(
                    dt,
                    st.integers(0, 70),  # empty and 1-element sections included
                    elements=st.integers(0, 100),
                )
            ),
            max_size=4,
        ),
        backend=st.sampled_from(["zlib", "gzip", "zlib-mt", "gzip-mt", "none"]),
    )
    def test_typed_sections_roundtrip_through_the_envelope(self, arrays, backend):
        """Whatever item width a section has, and however the backend cuts
        the body up, the caller gets its bytes back in item order."""
        body = container.write_body({"k": 1}, arrays)
        codec = get_codec(backend, threads=2, block_bytes=64)
        blob = container.wrap_envelope(body, backend, codec=codec)
        h, s = container.read_body(container.unwrap_envelope(blob)[0])
        assert h == {"k": 1}
        assert s == {name: arr.tobytes() for name, arr in arrays.items()}

    @SETTINGS
    @given(payload=st.binary(max_size=2000), backend=st.sampled_from(
        ["zlib", "gzip", "none", "rle", "xor-delta"]
    ))
    def test_envelope_roundtrip(self, payload, backend):
        blob = container.wrap_envelope(payload, backend)
        out, name = container.unwrap_envelope(blob)
        assert out == payload and name == backend


class TestPipelineProperties:
    @SETTINGS
    @given(
        shape=st.lists(st.integers(0, 9), min_size=1, max_size=3).map(tuple),
        dtype=st.sampled_from([np.float32, np.float64]),
        quantizer=st.sampled_from(["simple", "proposed", "bounded", "none"]),
        backend=st.sampled_from(["gzip", "zlib", "gzip-mt", "zlib-mt"]),
        seed=st.integers(0, 2**16),
    )
    def test_roundtrip_every_dtype_quantizer_backend(
        self, shape, dtype, quantizer, backend, seed
    ):
        """Empty arrays, single elements, zero-length sections (quantizer
        "none" leaves no indices/averages): every combination decodes to
        the same array through every deflate backend."""
        arr = np.random.default_rng(seed).normal(0.0, 50.0, shape).astype(dtype)
        knobs = {"error_bound": 0.5} if quantizer == "bounded" else {"n_bins": 8}
        config = CompressionConfig(
            quantizer=quantizer, backend=backend, backend_threads=2,
            backend_block_bytes=128, **knobs,
        )
        blob = WaveletCompressor(config).compress(arr)
        out = WaveletCompressor.decompress(blob)
        assert out.shape == arr.shape and out.dtype == arr.dtype
        reference = WaveletCompressor.decompress(
            WaveletCompressor(config.replace(backend="none")).compress(arr)
        )
        assert out.tobytes() == reference.tobytes()
        if quantizer == "none":
            np.testing.assert_allclose(out, arr, rtol=1e-5, atol=1e-4)

    @SETTINGS
    @given(
        arr=float_arrays(),
        n=st.sampled_from([1, 8, 64, 256]),
        quantizer=st.sampled_from(["simple", "proposed", "none"]),
    )
    def test_roundtrip_shape_dtype(self, arr, n, quantizer):
        comp = WaveletCompressor(
            CompressionConfig(n_bins=n, quantizer=quantizer, levels="max")
        )
        out = comp.decompress(comp.compress(arr))
        assert out.shape == arr.shape
        assert out.dtype == arr.dtype

    @SETTINGS
    @given(arr=float_arrays())
    def test_lossless_mode_tight(self, arr):
        comp = WaveletCompressor(CompressionConfig(quantizer="none", levels="max"))
        out = comp.decompress(comp.compress(arr))
        scale = max(1.0, float(np.abs(arr).max()))
        np.testing.assert_allclose(out, arr, atol=1e-9 * scale, rtol=1e-9)
