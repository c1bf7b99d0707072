"""Related-work baseline -- incremental checkpointing (paper Section V).

"Incremental checkpointing stores only differences with the last
checkpoint ... the effects of this approach may be limited in scientific
applications because the entire arrays of physical quantities are
frequently updated."

This bench measures exactly that on the climate proxy: checkpoint the
temperature array every 10 steps through (a) XOR-incremental deltas,
(b) plain gzip full images, (c) the paper's lossy pipeline, and compare
stored bytes plus the incremental scheme's restore-chain cost.
"""

from __future__ import annotations

from repro import CompressionConfig, WaveletCompressor
from repro.analysis.tables import render_table
from repro.apps.climate import ClimateProxy
from repro.ckpt.incremental import IncrementalArrayStore
from repro.lossless import get_codec

from _util import FAST, save_and_print

SHAPE = (128, 24, 2) if FAST else (512, 82, 2)
N_CHECKPOINTS = 6
STEPS_BETWEEN = 10


def run_comparison():
    app = ClimateProxy(shape=SHAPE, seed=11)
    snapshots = []
    for _ in range(N_CHECKPOINTS):
        for _ in range(STEPS_BETWEEN):
            app.step()
        snapshots.append(app.temperature.copy())

    incremental = IncrementalArrayStore(differencer="xor", full_every=N_CHECKPOINTS)
    for step, arr in enumerate(snapshots):
        incremental.append(step, arr)

    gzip_codec = get_codec("zlib", level=6)
    gzip_bytes = sum(len(gzip_codec.compress(a.tobytes())) for a in snapshots)

    lossy = WaveletCompressor(CompressionConfig(n_bins=128, quantizer="proposed"))
    lossy_bytes = sum(len(lossy.compress(a)) for a in snapshots)

    raw_bytes = sum(a.nbytes for a in snapshots)
    return {
        "raw": raw_bytes,
        "incremental-xor": incremental.total_stored_bytes(),
        "gzip full images": gzip_bytes,
        "lossy (proposed, n=128)": lossy_bytes,
        "chain_length": incremental.chain_length(),
    }


def test_baseline_incremental(benchmark):
    result = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    raw = result["raw"]
    rows = [
        [name, result[name], 100.0 * result[name] / raw]
        for name in ("incremental-xor", "gzip full images", "lossy (proposed, n=128)")
    ]
    text = render_table(
        ["scheme", "stored bytes", "rate [%]"],
        rows,
        floatfmt=".2f",
        title=(
            f"Section V baseline: {N_CHECKPOINTS} checkpoints of a "
            f"{SHAPE} temperature array, {STEPS_BETWEEN} steps apart\n"
            f"(incremental restore chain length at the end: "
            f"{result['chain_length']})"
        ),
    )
    save_and_print("baseline_incremental", text)

    # The paper's argument: with every value updated each step, XOR deltas
    # barely beat plain gzip, while the lossy pipeline is far smaller.
    assert result["incremental-xor"] > raw * 0.3
    assert result["lossy (proposed, n=128)"] < result["incremental-xor"] / 2
    assert result["lossy (proposed, n=128)"] < result["gzip full images"] / 2
