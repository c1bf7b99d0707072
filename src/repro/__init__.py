"""repro -- wavelet-based lossy compression for application-level
checkpoint/restart.

Reproduction of Sasaki, Sato, Endo & Matsuoka, "Exploration of Lossy
Compression for Application-level Checkpoint/Restart" (IPDPS 2015).

Quickstart
----------
>>> import numpy as np
>>> import repro
>>> field = np.add.outer(np.linspace(0, 1, 128), np.linspace(0, 1, 128))
>>> blob = repro.compress(field, n_bins=128, quantizer="proposed")
>>> approx = repro.decompress(blob)
>>> float(repro.mean_relative_error(field, approx)) < 0.01
True
"""

from .config import (
    MAX_LEVELS,
    QUANTIZER_BOUNDED,
    QUANTIZER_NONE,
    QUANTIZER_PROPOSED,
    QUANTIZER_SIMPLE,
    CompressionConfig,
    TemporalConfig,
)
from .core import (
    CompressionStats,
    ErrorReport,
    TuningResult,
    WaveletCompressor,
    compress,
    compression_rate,
    decompress,
    error_report,
    haar_forward,
    haar_inverse,
    inspect,
    max_relative_error,
    mean_relative_error,
    relative_errors,
    rmse,
    tune_division_number,
    tune_for_tolerance,
)
from .exceptions import (
    CheckpointError,
    CheckpointNotFoundError,
    CompressionError,
    ConfigurationError,
    DecompressionError,
    FormatError,
    IntegrityError,
    ReproError,
    RestoreError,
    StorageError,
    TuningError,
)

# Subpackages, importable as attributes (repro.apps.ClimateProxy, ...).
from . import analysis, apps, ckpt, failure, iomodel, lossless, obs, parallel  # noqa: E402

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "CompressionConfig",
    "TemporalConfig",
    "MAX_LEVELS",
    "QUANTIZER_SIMPLE",
    "QUANTIZER_PROPOSED",
    "QUANTIZER_BOUNDED",
    "QUANTIZER_NONE",
    # pipeline
    "WaveletCompressor",
    "CompressionStats",
    "compress",
    "decompress",
    "inspect",
    "haar_forward",
    "haar_inverse",
    # metrics
    "compression_rate",
    "relative_errors",
    "mean_relative_error",
    "max_relative_error",
    "rmse",
    "error_report",
    "ErrorReport",
    # tuning
    "tune_division_number",
    "tune_for_tolerance",
    "TuningResult",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "CompressionError",
    "DecompressionError",
    "FormatError",
    "IntegrityError",
    "CheckpointError",
    "CheckpointNotFoundError",
    "RestoreError",
    "StorageError",
    "TuningError",
]
