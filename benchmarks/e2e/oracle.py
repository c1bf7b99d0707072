"""Keeper of the original states, in a process of its own.

Checking a lossy restore needs the original arrays of every generation
(~7.5 MB each).  Holding them in the measured process would put ~1 GB of
harness data into its ``ru_maxrss`` and bury the library's own memory, so
they live here; the measured process sends each generation once and later
asks for a verdict on what it restored.  The oracle only works while the
measured process waits for its reply, so it never competes for a core with
a timed operation.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Mapping

import numpy as np


def _serve(conn: Any, src_dir: str, lossless: tuple[str, ...]) -> None:
    import sys

    sys.path.insert(0, src_dir)
    from repro.core.errors import mean_relative_error

    originals: dict[int, dict[str, np.ndarray]] = {}
    while True:
        try:
            op, gen, arrays = conn.recv()
        except EOFError:
            return
        if op == "stop":
            return
        if op == "put":
            originals[gen] = arrays
            conn.send(True)
            continue
        # op == "check": compare a restored state with the original
        original = originals[gen]
        verdict = {"rel_err_sum": 0.0, "lossy_arrays": 0, "max_abs_err": 0.0, "exact": True}
        for name, want in original.items():
            got = arrays.get(name)
            if got is None or got.shape != want.shape or got.dtype != want.dtype:
                verdict["exact"] = False
                verdict["max_abs_err"] = float("inf")
                continue
            if name not in lossless:
                verdict["rel_err_sum"] += mean_relative_error(want, got)
                verdict["lossy_arrays"] += 1
                verdict["max_abs_err"] = max(
                    verdict["max_abs_err"], float(np.abs(want - got).max())
                )
            elif want.tobytes() != got.tobytes():
                verdict["exact"] = False
        conn.send(verdict)


class Oracle:
    """Handle of the oracle process (start before anything is timed)."""

    def __init__(self, src_dir: str, lossless: tuple[str, ...]) -> None:
        """``lossless`` names the arrays that must restore bit-identically;
        every other array is compared by error."""
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_serve, args=(child_conn, src_dir, tuple(lossless)), daemon=True
        )
        self._proc.start()
        child_conn.close()

    def put(self, gen: int, arrays: Mapping[str, np.ndarray]) -> None:
        self._conn.send(("put", gen, dict(arrays)))
        self._conn.recv()

    def check(self, gen: int, arrays: Mapping[str, np.ndarray]) -> dict[str, Any]:
        """``rel_err_sum``/``lossy_arrays`` (paper Eq. 6, mean per array),
        ``max_abs_err`` over the lossy arrays, ``exact`` for the rest."""
        self._conn.send(("check", gen, dict(arrays)))
        return self._conn.recv()

    def close(self) -> None:
        try:
            self._conn.send(("stop", 0, None))
        except (OSError, ValueError):
            pass
        self._conn.close()
        self._proc.join(timeout=10)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
