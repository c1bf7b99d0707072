"""Common machinery for proxy applications.

A *proxy app* is a small, deterministic time-stepping simulation exposing
the :class:`~repro.ckpt.protocol.Checkpointable` protocol plus a step
counter.  The drift experiment (paper Fig. 10) and the restart coordinator
drive any of them interchangeably.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Protocol, runtime_checkable

import numpy as np

from ..ckpt.journal import is_committed
from ..exceptions import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from ..ckpt.manager import CheckpointManager

__all__ = ["ProxyApp", "run_steps", "run_with_checkpoints", "state_allclose"]


@runtime_checkable
class ProxyApp(Protocol):
    """Time-stepping simulation with checkpointable state."""

    #: Logical step counter; advanced by :meth:`step`, reset on restart.
    step_index: int

    def step(self) -> None:
        """Advance the simulation by one time step."""
        ...

    def state_arrays(self) -> dict[str, np.ndarray]: ...

    def load_state_arrays(self, arrays: Mapping[str, np.ndarray]) -> None: ...


def run_steps(app: ProxyApp, n: int) -> ProxyApp:
    """Advance ``app`` by ``n`` steps (returns it for chaining)."""
    if n < 0:
        raise ReproError(f"cannot run a negative number of steps: {n}")
    for _ in range(n):
        app.step()
    return app


def run_with_checkpoints(
    app: ProxyApp,
    manager: "CheckpointManager",
    *,
    total_steps: int,
    interval: int,
) -> list[int]:
    """Step ``app`` to ``total_steps``, committing a checkpoint every
    ``interval`` steps and at the final step.

    Restart-aware: the app may already be mid-run (restored from a
    committed generation), and steps whose generation is already committed
    are skipped rather than rewritten -- exactly what an incarnation
    resuming past its predecessor's checkpoints needs.  Returns the steps
    checkpointed by *this* call.
    """
    if total_steps < 0:
        raise ReproError(f"total_steps must be >= 0, got {total_steps}")
    if interval < 1:
        raise ReproError(f"interval must be >= 1, got {interval}")
    written: list[int] = []
    while app.step_index < total_steps:
        app.step()
        s = int(app.step_index)
        due = s % interval == 0 or s == total_steps
        if due and not is_committed(manager.store, s):
            manager.checkpoint(s)
            written.append(s)
    return written


def state_allclose(
    a: Mapping[str, np.ndarray],
    b: Mapping[str, np.ndarray],
    *,
    rtol: float = 1e-12,
    atol: float = 1e-12,
) -> bool:
    """True when two state snapshots hold the same arrays within tolerance."""
    if set(a) != set(b):
        return False
    return all(
        np.allclose(np.asarray(a[k]), np.asarray(b[k]), rtol=rtol, atol=atol)
        for k in a
    )
