#!/usr/bin/env python
"""Rank-parallel compression with RAID-5-style checkpoint redundancy.

The paper's conclusion proposes combining lossy compression "with other
efforts to reduce checkpointing costs".  This example composes three of
them end to end:

1. a global NICAM-like field is domain-decomposed across 8 simulated
   ranks (paper Section IV-D's weak-scaling setting);
2. every rank compresses its slab independently (embarrassingly parallel);
3. the compressed rank blobs form an XOR parity group (the in-memory
   RAID-5 technique of refs. [27][28]) -- so redundancy overhead also
   shrinks by the compression rate;
4. one rank's checkpoint is "lost", reconstructed from parity, and the
   global field restored.

Run:  python examples/parallel_redundancy.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro import CompressionConfig
from repro.analysis.tables import format_bytes, render_table
from repro.apps.climate import ClimateProxy
from repro.ckpt.redundancy import encode_parity, rebuild_member
from repro.core.pipeline import WaveletCompressor
from repro.iomodel.storage import PAPER_PFS
from repro.parallel import parallel_checkpoint, reassemble

N_RANKS = 8


def main() -> None:
    app = ClimateProxy(shape=(512, 41, 2), seed=21)
    for _ in range(40):
        app.step()
    field = app.temperature

    result = parallel_checkpoint(
        field, N_RANKS,
        config=CompressionConfig(n_bins=128, quantizer="proposed"),
        storage=PAPER_PFS,
    )
    rows = [
        [r.rank, format_bytes(r.raw_bytes), format_bytes(r.stored_bytes),
         f"{100 * r.stored_bytes / r.raw_bytes:.1f}",
         f"{r.compress_seconds * 1e3:.2f}"]
        for r in result.ranks
    ]
    print(render_table(
        ["rank", "raw", "stored", "rate [%]", "compress [ms]"],
        rows,
        title=f"per-rank compression of a {field.shape} field across {N_RANKS} ranks",
    ))
    print(
        f"\nparallel compute time (max rank) : {result.compute_seconds * 1e3:.2f} ms"
        f"\nsimulated shared-PFS write       : {result.io_seconds_with * 1e6:.1f} us "
        f"(vs {result.io_seconds_without * 1e6:.1f} us uncompressed)"
    )

    # --- parity block over the *compressed* blobs --------------------------
    blobs = [r.blob for r in result.ranks]
    parity = encode_parity(blobs)
    payload = sum(len(b) for b in blobs)
    print(
        f"\nparity group: {len(blobs)} members + one parity block of "
        f"{format_bytes(len(parity))} "
        f"({len(parity) / payload * 100:.1f} % redundancy overhead over the "
        "compressed payload)"
    )
    raw_parity_cost = field.nbytes // N_RANKS + 8
    print(
        f"the same parity block over *uncompressed* slabs would be "
        f"{format_bytes(raw_parity_cost)}"
    )

    # --- lose a rank, reconstruct, restore ---------------------------------
    lost = 5
    survivors = {i: b for i, b in enumerate(blobs) if i != lost}
    rebuilt = rebuild_member(parity, survivors, N_RANKS, lost)
    assert rebuilt == result.ranks[lost].blob
    blocks = [
        WaveletCompressor.decompress(rebuilt if i == lost else result.ranks[i].blob)
        for i in range(N_RANKS)
    ]
    restored = reassemble(result.decomposition, blocks)
    err = repro.mean_relative_error(field, restored)
    print(
        f"\nlost rank {lost}'s checkpoint, reconstructed from parity: "
        f"bit-identical blob; global restore mean relative error "
        f"{err * 100:.5f} % (the lossy-compression error only)"
    )
    assert np.isfinite(restored).all()


if __name__ == "__main__":
    main()
