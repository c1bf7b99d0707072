"""The paper's primary contribution: the wavelet lossy compression pipeline."""
