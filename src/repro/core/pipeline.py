"""End-to-end lossy compression pipeline (paper Fig. 1).

:class:`WaveletCompressor` chains the four stages -- wavelet transformation,
quantization, encoding and formatting + lossless backend -- and their exact
inverses.  Every stage runs inside a :mod:`repro.obs` span because the
paper's Fig. 9 reasons about the *breakdown* of compression cost, not just
its sum: per-call timings land in :class:`CompressionStats`, spans land in
the global tracer when enabled, and aggregates land in the always-on
metrics registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..config import (
    QUANTIZER_BOUNDED,
    QUANTIZER_NONE,
    QUANTIZER_PROPOSED,
    QUANTIZER_SIMPLE,
    CompressionConfig,
)
from ..exceptions import CompressionError, DecompressionError, FormatError
from ..lossless.tempfile_gzip import TempfileGzipCodec
from ..lossless import get_codec
from ..obs.metrics import get_registry, top_level_seconds
from ..obs.trace import get_tracer
from . import container
from .bands import high_band_mask
from .encoding import EncodedPayload, decode_coefficients, encode_coefficients
from .quantization import (
    bounded_quantize,
    non_finite_error,
    proposed_quantize,
    simple_quantize,
)
from .wavelet import wavelet_forward, wavelet_inverse

__all__ = ["CompressionStats", "WaveletCompressor", "compress", "decompress", "inspect"]

_SUPPORTED_DTYPES = (np.float64, np.float32)

_SEC_BITMAP = "bitmap"
_SEC_AVERAGES = "averages"
_SEC_INDICES = "indices"
_SEC_RAW = "rawvals"


@dataclass
class CompressionStats:
    """Sizes, counts and per-stage wall-clock timings of one compress call.

    ``timings`` keys mirror the paper's Fig. 9 legend: ``wavelet``,
    ``quantization``, ``encoding``, ``formatting`` and ``backend`` (the
    gzip pass); when the temp-file backend is used, ``temp_write`` and
    ``gzip`` additionally split the backend cost.  Which keys refine which
    is defined once, in :data:`repro.obs.metrics.STAGE_PARENT`.

    The object is a typed view over the same quantities the metrics
    registry aggregates: :meth:`to_metrics` folds one call into a
    registry (counters named ``<prefix>.*``).
    """

    original_bytes: int = 0
    formatted_bytes: int = 0
    compressed_bytes: int = 0
    applied_levels: int = 0
    n_coefficients: int = 0
    n_quantized: int = 0
    timings: dict[str, float] = field(default_factory=dict)
    config: CompressionConfig | None = None

    @property
    def compression_rate_percent(self) -> float:
        """Paper Eq. 5 (compressed as % of original; lower is better)."""
        if self.original_bytes <= 0:
            return float("nan")
        return 100.0 * self.compressed_bytes / self.original_bytes

    @property
    def backend_mb_s(self) -> float:
        """Backend-stage throughput in MB/s (formatted body in / second).

        The number the thread-parallel backends move: serial gzip on one
        core versus ``gzip-mt``/``zlib-mt`` across all of them.
        """
        seconds = self.timings.get("backend", 0.0)
        if seconds <= 0.0 or self.formatted_bytes <= 0:
            return float("nan")
        return self.formatted_bytes / seconds / 1e6

    @property
    def total_compression_seconds(self) -> float:
        """Sum of the stage timings, counting each cost exactly once.

        Sub-stage keys (``temp_write``/``gzip`` splitting ``backend``, per
        the stage relation in :mod:`repro.obs.metrics`) are excluded only
        when the stage they refine is present, so an orphaned sub-stage
        timing still contributes instead of silently vanishing.
        """
        return top_level_seconds(self.timings)

    @property
    def quantized_fraction(self) -> float:
        if self.n_coefficients == 0:
            return 0.0
        return self.n_quantized / self.n_coefficients

    # -- metrics-registry bridge ------------------------------------------

    def to_metrics(self) -> None:
        """Fold this call's stats into the global metrics registry."""
        get_registry().observe_stats(self)


class WaveletCompressor:
    """The paper's lossy compressor with a symmetric decompressor.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import WaveletCompressor, CompressionConfig
    >>> comp = WaveletCompressor(CompressionConfig(n_bins=128))
    >>> field = np.add.outer(np.linspace(0, 1, 64), np.linspace(0, 2, 64))
    >>> blob = comp.compress(field)
    >>> approx = comp.decompress(blob)
    >>> approx.shape == field.shape
    True
    """

    def __init__(self, config: CompressionConfig | None = None, **overrides: Any):
        base = config if config is not None else CompressionConfig()
        self._config = base.replace(**overrides) if overrides else base
        # Wavelet work buffer, reused across same-shaped compress calls of
        # one thread (the slabs an executor runs in-process, the analysis
        # sweeps).  Because of it an instance is not safe for concurrent use
        # from multiple threads: build one per thread, as worker *processes*
        # and temporal keyframes (one per encode) do.
        self._scratch: np.ndarray | None = None

    @property
    def config(self) -> CompressionConfig:
        return self._config

    def _wavelet_scratch(self, shape: tuple[int, ...]) -> np.ndarray:
        if self._scratch is None or self._scratch.shape != shape:
            self._scratch = np.empty(shape, dtype=np.float64)
        return self._scratch

    # -- compression -------------------------------------------------------

    def _check_input(self, arr: np.ndarray) -> np.ndarray:
        a = np.asarray(arr)
        if a.dtype not in [np.dtype(d) for d in _SUPPORTED_DTYPES]:
            raise CompressionError(
                f"unsupported dtype {a.dtype}; the lossy pipeline targets "
                "floating-point mesh data (float32/float64). Use a lossless "
                "codec from repro.lossless for other dtypes."
            )
        if a.ndim == 0:
            raise CompressionError("cannot compress a 0-dimensional array")
        if a.size and not np.isfinite(a).all():
            raise non_finite_error(a, "lossy pipeline input")
        return a

    def compress(self, arr: np.ndarray) -> bytes:
        """Compress ``arr`` into a self-describing blob."""
        blob, _ = self.compress_with_stats(arr)
        return blob

    def compress_with_stats(
        self, arr: np.ndarray, *, seal: Callable[..., Any] | None = None
    ) -> tuple[Any, CompressionStats]:
        """Compress and report sizes plus the per-stage cost breakdown.

        Each Fig. 9 stage runs inside its own tracing span (nested under
        one ``compress`` root); stage durations always reach
        ``stats.timings`` and the metrics registry, whether or not span
        *recording* is enabled.

        ``seal(body, stats)`` runs the backend stage and its result is
        returned in the blob's place.  The default is :meth:`seal` itself,
        giving ``(blob, stats)``; a caller that overlaps the deflate with
        other work hands :meth:`seal` to another thread and returns its
        own handle, and ``stats`` is complete once that seal has run.
        """
        a = self._check_input(arr)
        cfg = self._config
        tracer = get_tracer()
        stats = CompressionStats(
            original_bytes=int(a.nbytes),
            n_coefficients=int(a.size),
            config=cfg,
        )

        with tracer.span(
            "compress",
            nbytes=int(a.nbytes),
            shape=list(a.shape),
            quantizer=cfg.quantizer,
            backend=cfg.backend,
        ) as root:
            with tracer.span("wavelet") as sp_wavelet:
                coeffs, applied = wavelet_forward(
                    a, cfg.levels, cfg.wavelet, scratch=self._wavelet_scratch(a.shape)
                )
            stats.applied_levels = applied

            with tracer.span("quantization") as sp_quant:
                hb_mask = high_band_mask(a.shape, applied)
                if cfg.quantizer == QUANTIZER_NONE:
                    full_mask = np.zeros(a.size, dtype=bool)
                    indices = np.zeros(0, dtype=np.uint8)
                    averages = np.zeros(0, dtype=np.float64)
                else:
                    hb_values = coeffs[hb_mask]
                    if cfg.quantizer == QUANTIZER_SIMPLE:
                        qr = simple_quantize(hb_values, cfg.n_bins)
                    elif cfg.quantizer == QUANTIZER_PROPOSED:
                        qr = proposed_quantize(
                            hb_values, cfg.n_bins, cfg.spike_partitions
                        )
                    elif cfg.quantizer == QUANTIZER_BOUNDED:
                        # Each reconstructed element is the deep low
                        # coefficient plus one unit-weight high coefficient
                        # per band per level, so dividing the element-level
                        # bound by that term count makes the guarantee hold
                        # after the inverse transform.
                        terms = max(1, (2**a.ndim - 1) * applied)
                        qr = bounded_quantize(
                            hb_values, cfg.error_bound / terms, cfg.spike_partitions
                        )
                    else:  # pragma: no cover - config validates eagerly
                        raise CompressionError(f"unknown quantizer {cfg.quantizer!r}")
                    full_mask = np.zeros(a.size, dtype=bool)
                    full_mask[hb_mask.ravel()] = qr.quantized_mask
                    indices = qr.indices
                    averages = qr.averages
                    if cfg.quantizer == QUANTIZER_BOUNDED and indices.size:
                        # Residual of the quantization against its bound:
                        # the error-bounded mode's standing health metric.
                        residual = float(
                            np.abs(
                                hb_values[qr.quantized_mask]
                                - qr.averages[qr.indices]
                            ).max()
                        )
                        sp_quant.set(max_residual=residual)
                        get_registry().histogram(
                            "pipeline.bounded_residual"
                        ).observe(residual)

            with tracer.span("encoding") as sp_encode:
                payload = encode_coefficients(coeffs, full_mask, indices, averages)
            stats.n_quantized = int(indices.size)

            with tracer.span("formatting") as sp_format:
                header = {
                    "shape": list(a.shape),
                    "dtype": str(a.dtype),
                    "applied_levels": applied,
                    "config": cfg.to_dict(),
                    "n_coefficients": int(a.size),
                    "n_quantized": int(indices.size),
                    "index_dtype": str(payload.indices.dtype),
                }
                # The encoded streams go in as arrays: write_body copies
                # each exactly once, into its single preallocated body
                # buffer, and reads the item width off the dtype.
                sections = {
                    _SEC_BITMAP: payload.bitmap,
                    _SEC_AVERAGES: payload.averages,
                    _SEC_INDICES: payload.indices,
                    _SEC_RAW: payload.raw_values,
                }
                body = container.write_body(header, sections)
            stats.formatted_bytes = len(body)

            stats.timings = {
                "wavelet": sp_wavelet.duration,
                "quantization": sp_quant.duration,
                "encoding": sp_encode.duration,
                "formatting": sp_format.duration,
            }
            sealed = (seal if seal is not None else self.seal)(body, stats)
        return sealed, stats

    def seal(
        self, body: container.Body, stats: CompressionStats, *, parent: Any = None
    ) -> bytes:
        """The backend stage: deflate a formatted ``body`` into the blob.

        Completes ``stats`` (``compressed_bytes``, the ``backend`` timing
        and the temp-file split) and folds it into the metrics registry.
        Touches no compressor state, so it may run on another thread than
        the stages before it; ``parent`` then names the span the
        ``backend`` span belongs under (the tracer's stack is per thread).
        """
        cfg = self._config
        tracer = get_tracer()
        with tracer.span("backend", parent=parent, backend=cfg.backend) as sp_backend:
            codec = get_codec(
                cfg.backend,
                level=cfg.backend_level,
                threads=cfg.backend_threads,
                block_bytes=cfg.backend_block_bytes,
            )
            blob = container.wrap_envelope(body, cfg.backend, codec=codec)
            stats.compressed_bytes = len(blob)
            # what codec and why: the deflate family reports how the
            # body split between its two strategies
            segments = getattr(codec, "last_segments", None)
            if segments is not None:
                sp_backend.set(**segments.attrs())
            sp_backend.set(compressed_bytes=len(blob))
            rate = stats.compression_rate_percent
            if rate == rate:  # finite (empty inputs have no defined rate)
                sp_backend.set(rate_percent=rate)
        stats.timings["backend"] = sp_backend.duration
        if isinstance(codec, TempfileGzipCodec):
            stats.timings.update(codec.last_timings)
            # Mirror the codec-internal split as sub-spans of the
            # backend stage so traces carry both Fig. 9 backend bars.
            if tracer.enabled:
                split = sp_backend.start + codec.last_timings["temp_write"]
                tracer.record("temp_write", sp_backend.start, split, parent=sp_backend)
                tracer.record(
                    "gzip", split, split + codec.last_timings["gzip"], parent=sp_backend
                )
        stats.to_metrics()
        return blob

    # -- decompression -------------------------------------------------------

    @staticmethod
    def decompress(
        blob: bytes, *, unseal: Callable[[bytes], tuple[dict, dict]] | None = None
    ) -> np.ndarray:
        """Decode a blob produced by any :class:`WaveletCompressor`.

        The blob is self-describing, so this is a static method: the
        configuration used for compression is read from the header.

        ``unseal(blob)`` yields the blob's ``(header, sections)``.  The
        default is :meth:`unseal` itself; a caller that inflated the blob
        on another thread while this one decoded its predecessor hands in
        that result (the mirror of ``compress_with_stats(seal=)``).
        """
        tracer = get_tracer()
        with tracer.span("decompress", nbytes=len(blob)):
            header, sections = (unseal or WaveletCompressor.unseal)(blob)
            return WaveletCompressor._decode_body(header, sections, tracer)

    @staticmethod
    def unseal(blob: bytes, *, parent: Any = None) -> tuple[dict, dict]:
        """The backend stage inverted: inflate ``blob`` and split its body
        into ``(header, sections)``.  Touches no shared state, so it may
        run on another thread than the decode; ``parent`` then names the
        span the ``backend_inverse`` span belongs under."""
        with get_tracer().span("backend_inverse", parent=parent):
            body, _backend = container.unwrap_envelope(blob)
            return container.read_body(body)

    @staticmethod
    def _decode_body(header, sections, tracer) -> np.ndarray:
        shape = container.header_shape(header, what="container")
        try:
            dtype = np.dtype(header["dtype"])
            applied = int(header["applied_levels"])
            size = int(header["n_coefficients"])
            index_dtype = np.dtype(header.get("index_dtype", "uint8"))
            wavelet = str(header.get("config", {}).get("wavelet", "haar"))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"container header is missing fields: {exc}") from exc
        if index_dtype not in (np.dtype(np.uint8), np.dtype(np.uint16)):
            raise FormatError(f"unsupported index dtype {index_dtype}")
        expected_size = math.prod(shape)
        if expected_size != size:
            raise DecompressionError(
                f"header shape {shape} implies {expected_size} coefficients, "
                f"header records {size}"
            )
        def section(name: str, dt: Any) -> np.ndarray:
            return container.section_array(sections, name, dt, what="container")

        with tracer.span("decoding"):
            payload = EncodedPayload(
                bitmap=section(_SEC_BITMAP, np.uint8),
                averages=section(_SEC_AVERAGES, np.float64),
                indices=section(_SEC_INDICES, index_dtype),
                raw_values=section(_SEC_RAW, np.float64),
                size=size,
            )
            flat = decode_coefficients(payload)
            coeffs = flat.reshape(shape)
        with tracer.span("wavelet_inverse"):
            restored = wavelet_inverse(coeffs, applied, wavelet, copy=False)
            return restored.astype(dtype, copy=False)

    # -- convenience ---------------------------------------------------------

    def roundtrip(self, arr: np.ndarray) -> tuple[np.ndarray, CompressionStats]:
        """Compress then decompress; returns the lossy copy and the stats."""
        blob, stats = self.compress_with_stats(arr)
        return self.decompress(blob), stats


def compress(arr: np.ndarray, config: CompressionConfig | None = None, **overrides: Any) -> bytes:
    """Module-level convenience wrapper around :class:`WaveletCompressor`."""
    return WaveletCompressor(config, **overrides).compress(arr)


def decompress(blob: bytes) -> np.ndarray:
    """Decode a blob produced by :func:`compress`."""
    return WaveletCompressor.decompress(blob)


def inspect(blob: bytes) -> dict[str, Any]:
    """Container header of a compressed blob (no coefficient decoding).

    Single pipeline blobs also report their ``layout`` (backend, container
    format version, per-section plane widths); chunked streams report
    chunk-level metadata (chunk count, rows, per-chunk sizes and
    the first chunk's self-describing header).
    """
    if blob[:4] == container.CHUNK_MAGIC:
        from .chunked import inspect_chunked  # here to avoid an import cycle

        return inspect_chunked(blob)
    body, backend = container.unwrap_envelope(blob)
    header, _sections = container.read_body(body)
    return {**header, "layout": {"backend": backend, **container.body_layout(body)}}
