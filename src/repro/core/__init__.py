"""The paper's primary contribution: the wavelet lossy compression pipeline."""

from .bands import final_low_shape, high_band_mask
from .chunked import (
    chunked_compress,
    chunked_compress_with_stats,
    chunked_decompress,
    inspect_chunked,
    iter_chunks,
)
from .encoding import EncodedPayload, decode_coefficients, encode_coefficients
from .errors import (
    ErrorReport,
    compression_rate,
    error_report,
    max_relative_error,
    mean_relative_error,
    relative_errors,
    rmse,
    value_range,
)
from .pipeline import (
    CompressionStats,
    WaveletCompressor,
    compress,
    decompress,
    inspect,
)
from .quantization import (
    QuantizationResult,
    bounded_quantize,
    detect_spiked_partitions,
    proposed_quantize,
    simple_quantize,
)
from .tuning import (
    TuningResult,
    tune_division_number,
    tune_for_tolerance,
)
from .wavelet import (
    haar_forward,
    haar_forward_axis,
    haar_inverse,
    haar_inverse_axis,
    level_shapes,
    low_band_shape,
    plan_levels,
    wavelet_forward,
    wavelet_inverse,
)

__all__ = [
    "final_low_shape",
    "high_band_mask",
    "chunked_compress",
    "chunked_compress_with_stats",
    "chunked_decompress",
    "inspect_chunked",
    "iter_chunks",
    "EncodedPayload",
    "decode_coefficients",
    "encode_coefficients",
    "ErrorReport",
    "compression_rate",
    "error_report",
    "max_relative_error",
    "mean_relative_error",
    "relative_errors",
    "rmse",
    "value_range",
    "CompressionStats",
    "WaveletCompressor",
    "compress",
    "decompress",
    "inspect",
    "QuantizationResult",
    "bounded_quantize",
    "detect_spiked_partitions",
    "proposed_quantize",
    "simple_quantize",
    "TuningResult",
    "tune_division_number",
    "tune_for_tolerance",
    "wavelet_forward",
    "wavelet_inverse",
    "haar_forward",
    "haar_forward_axis",
    "haar_inverse",
    "haar_inverse_axis",
    "level_shapes",
    "low_band_shape",
    "plan_levels",
]
