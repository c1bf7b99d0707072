"""Section III / IV-D claim: the lossy compression runs in O(n).

"While time complexity of several existing lossy compression algorithms is
O(n log n) to checkpoint size, n, our lossy compression is completed with
O(n)" -- and Fig. 9's extrapolation to larger checkpoints leans on it.

This bench times the pipeline on a geometric ladder of checkpoint sizes
and checks that time-per-byte stays flat (no super-linear drift).
"""

from __future__ import annotations

import time

from repro import CompressionConfig, WaveletCompressor
from repro.analysis.tables import render_series
from repro.apps.fields import smooth_field

from _util import FAST, save_and_print

SIZES = (
    [(72, 20, 2), (144, 40, 2), (288, 40, 2)]
    if FAST
    else [(144, 40, 2), (289, 41, 2), (578, 82, 2), (1156, 82, 2), (2312, 82, 2)]
)


def time_ladder():
    comp = WaveletCompressor(CompressionConfig(n_bins=128, quantizer="proposed"))
    rows = []
    for shape in SIZES:
        arr = smooth_field(shape, 7, amplitude=20.0, offset=280.0, noise=0.01)
        comp.compress(arr)  # warm-up
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            comp.compress(arr)
            samples.append(time.perf_counter() - t0)
        best = min(samples)
        rows.append((arr.nbytes, best, best / arr.nbytes * 1e9))
    return rows


def test_scaling_linearity(benchmark):
    rows = benchmark.pedantic(time_ladder, rounds=1, iterations=1)
    nbytes = [r[0] for r in rows]
    secs = [r[1] for r in rows]
    ns_per_byte = [r[2] for r in rows]
    text = render_series(
        nbytes,
        {"compress [ms]": [s * 1e3 for s in secs], "ns/byte": ns_per_byte},
        x_label="bytes",
        floatfmt=".3f",
        title="O(n) check: compression time vs checkpoint size",
    )
    save_and_print("scaling_linearity", text)

    # Time per byte must stay flat within a generous factor across the
    # ladder (an O(n log n) or O(n^2) pipeline would drift upward steadily).
    assert max(ns_per_byte) < 4.0 * min(ns_per_byte)
    # And the largest size must remain strictly sane in absolute terms.
    assert secs[-1] < 5.0
