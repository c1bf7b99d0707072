"""Measured per-process compression cost breakdown (Fig. 9's stacked bars).

The paper decomposes per-process compression time into: wavelet
transformation, quantization + encoding, temporary file write, the gzip
pass, and "other overheads".  :func:`measure_breakdown` reproduces that
measurement on this machine by timing the pipeline stages with the
temp-file gzip backend (the paper's implementation), taking the median of
several repeats.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..config import CompressionConfig
from ..core.pipeline import WaveletCompressor
from ..exceptions import ConfigurationError

__all__ = ["PhaseBreakdown", "measure_breakdown", "BREAKDOWN_PHASES"]

#: Fig. 9 legend order (bottom to top of the stacked bars).
BREAKDOWN_PHASES = (
    "wavelet",
    "quantization_encoding",
    "temp_write",
    "gzip",
    "other",
)


@dataclass(frozen=True)
class PhaseBreakdown:
    """Per-process compression cost split (seconds), Fig. 9 legend."""

    wavelet: float = 0.0
    quantization_encoding: float = 0.0
    temp_write: float = 0.0
    gzip: float = 0.0
    other: float = 0.0
    compression_rate_percent: float = float("nan")
    per_process_bytes: int = 0

    @property
    def total_seconds(self) -> float:
        return (
            self.wavelet
            + self.quantization_encoding
            + self.temp_write
            + self.gzip
            + self.other
        )

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def measure_breakdown(
    arr: np.ndarray,
    config: CompressionConfig | None = None,
    *,
    repeats: int = 3,
) -> PhaseBreakdown:
    """Time the pipeline stages on ``arr`` (median over ``repeats``).

    The configuration is forced onto the ``tempfile-gzip`` backend so the
    temp-write/gzip split of the paper's implementation is observable; pass
    a config with ``backend="zlib"`` wrapped in
    ``config.replace(backend="tempfile-gzip")`` semantics yourself if you
    want a different quantizer or depth.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    cfg = (config if config is not None else CompressionConfig()).replace(
        backend="tempfile-gzip"
    )
    compressor = WaveletCompressor(cfg)
    samples: list[dict[str, float]] = []
    rate = float("nan")
    for _ in range(repeats):
        _, stats = compressor.compress_with_stats(arr)
        t = stats.timings
        backend_total = t["backend"]
        temp_write = t.get("temp_write", 0.0)
        gzip_time = t.get("gzip", backend_total)
        # Residual backend overhead (envelope assembly) counts as "other",
        # as does the container formatting stage.
        residual = max(0.0, backend_total - temp_write - gzip_time)
        samples.append(
            {
                "wavelet": t["wavelet"],
                "quantization_encoding": t["quantization"] + t["encoding"],
                "temp_write": temp_write,
                "gzip": gzip_time,
                "other": t["formatting"] + residual,
            }
        )
        rate = stats.compression_rate_percent
    median = {
        key: float(np.median([s[key] for s in samples])) for key in samples[0]
    }
    return PhaseBreakdown(
        compression_rate_percent=rate,
        per_process_bytes=int(np.asarray(arr).nbytes),
        **median,
    )
