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

from .config import CompressionConfig
from .core.errors import error_report, mean_relative_error
from .core.pipeline import WaveletCompressor, compress, decompress
from .core.tuning import tune_for_tolerance

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "CompressionConfig",
    "WaveletCompressor",
    "compress",
    "decompress",
    "error_report",
    "mean_relative_error",
    "tune_for_tolerance",
]
