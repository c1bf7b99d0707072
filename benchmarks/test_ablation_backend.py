"""Ablation (design choice): the final lossless backend.

Section IV-D observes that "most of the compression time is consumed by
gzip" through temp files and proposes in-memory zlib.  This bench
quantifies the whole backend menu: rate and wall-clock for temp-file gzip
(the paper's implementation), in-memory gzip/zlib (the paper's proposed
fix), RLE and the XOR-delta float codec, and no backend at all.

Every backend codes the same format-2 body (float64 sections stored as
byte planes); ``gzip``/``zlib`` additionally code it segment by segment
(LZ77 or Huffman-only per plane), which is where their lead over
``tempfile-gzip`` -- plain gzip over the same bytes, the paper's arm --
comes from.
"""

from __future__ import annotations

import time

from repro import CompressionConfig, WaveletCompressor
from repro.analysis.tables import render_table

from _util import save_and_print

BACKENDS = ("tempfile-gzip", "gzip", "zlib", "rle", "xor-delta", "none")


def sweep_backends(temperature):
    rows = []
    for backend in BACKENDS:
        comp = WaveletCompressor(
            CompressionConfig(n_bins=128, quantizer="proposed", backend=backend)
        )
        comp.compress(temperature)  # warm-up
        t0 = time.perf_counter()
        _, stats = comp.compress_with_stats(temperature)
        elapsed = time.perf_counter() - t0
        rows.append((backend, stats.compression_rate_percent, elapsed * 1e3))
    return rows


def test_ablation_backend(benchmark, temperature):
    rows = benchmark.pedantic(
        sweep_backends, args=(temperature,), rounds=1, iterations=1
    )
    text = render_table(
        ["backend", "rate [%]", "compress [ms]"],
        rows,
        floatfmt=".2f",
        title="Ablation: lossless backend after quantization/encoding",
    )
    save_and_print("ablation_backend", text)

    by_name = {r[0]: r for r in rows}
    # Deflate-family backends compress hardest.
    assert by_name["zlib"][1] < by_name["none"][1]
    assert by_name["zlib"][1] < by_name["rle"][1]
    # In-memory zlib is not slower than the temp-file path (paper's point).
    assert by_name["zlib"][2] <= by_name["tempfile-gzip"][2] * 1.5
    # gzip framing and zlib produce nearly identical rates.
    assert abs(by_name["zlib"][1] - by_name["gzip"][1]) < 1.0
