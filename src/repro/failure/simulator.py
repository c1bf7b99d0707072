"""Run-with-failures simulation, analytic and executed.

Two complementary tools:

* :func:`simulate_run` -- a discrete-event timeline of a checkpointed run
  under a :class:`~repro.failure.injector.FailureSchedule`.  No application
  executes; it validates the Young/Daly economics in
  :mod:`repro.ckpt.interval` (Monte Carlo agreement is an integration
  test) and quantifies how compression's cheaper checkpoints change total
  wallclock.

* :func:`run_app_with_failures` -- actually executes a proxy application,
  checkpointing through a real :class:`~repro.ckpt.manager.CheckpointManager`
  and rolling back on injected failures, so the state the application
  resumes from went through the full (possibly lossy) compression pipeline.
  This is the related-work experiment of Ni et al. (paper ref. [31]):
  lossy checkpoints under a varying number of failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..ckpt.journal import is_committed
from ..ckpt.manager import CheckpointManager
from ..exceptions import ConfigurationError
from .injector import FailureSchedule

__all__ = [
    "RunEvent",
    "RunResult",
    "simulate_run",
    "monte_carlo_expected_runtime",
    "ExecutedRun",
    "run_app_with_failures",
]


@dataclass(frozen=True)
class RunEvent:
    """One interval of the simulated timeline."""

    kind: str  # "work" | "checkpoint" | "failure" | "restart"
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class RunResult:
    """Outcome of a simulated run."""

    wall_seconds: float
    work_seconds: float
    n_failures: int
    n_checkpoints: int
    lost_work_seconds: float
    checkpoint_seconds: float
    restart_seconds: float
    events: list[RunEvent] = field(default_factory=list)

    @property
    def overhead_fraction(self) -> float:
        """Wallclock overhead relative to failure-free, checkpoint-free
        execution of the same work."""
        if self.work_seconds <= 0:
            return 0.0
        return self.wall_seconds / self.work_seconds - 1.0


def simulate_run(
    work_seconds: float,
    checkpoint_interval: float,
    checkpoint_cost: float,
    restart_cost: float,
    failures: FailureSchedule,
    *,
    record_events: bool = False,
) -> RunResult:
    """Discrete-event simulation of segment/checkpoint/rollback.

    The run alternates ``checkpoint_interval`` seconds of work with a
    checkpoint write (the final partial segment is not followed by one).  A
    failure anywhere inside a segment or its checkpoint discards the
    segment (work since the last completed checkpoint is lost), costs
    ``restart_cost``, and the segment is retried.  Failures striking during
    a restart restart the restart.
    """
    if work_seconds < 0:
        raise ConfigurationError(f"work_seconds must be >= 0, got {work_seconds}")
    if checkpoint_interval <= 0:
        raise ConfigurationError(
            f"checkpoint_interval must be positive, got {checkpoint_interval}"
        )
    if checkpoint_cost < 0 or restart_cost < 0:
        raise ConfigurationError("checkpoint and restart costs must be >= 0")

    events: list[RunEvent] = []
    wall = 0.0
    done = 0.0
    n_failures = 0
    n_checkpoints = 0
    lost = 0.0
    ckpt_total = 0.0
    restart_total = 0.0

    def emit(kind: str, start: float, duration: float) -> None:
        if record_events and duration > 0:
            events.append(RunEvent(kind, start, duration))

    while done < work_seconds:
        segment = min(checkpoint_interval, work_seconds - done)
        is_final = done + segment >= work_seconds
        ckpt = 0.0 if is_final else checkpoint_cost
        segment_end = wall + segment
        block_end = segment_end + ckpt
        failure = failures.next_after(wall)
        if failure is not None and failure < block_end:
            worked = max(0.0, min(failure, segment_end) - wall)
            emit("work", wall, worked)
            if failure > segment_end:
                emit("checkpoint", segment_end, failure - segment_end)
                ckpt_total += failure - segment_end
            emit("failure", failure, 0.0)
            lost += worked
            n_failures += 1
            wall = failure
            # A failure during the restart restarts the restart.
            while True:
                restart_end = wall + restart_cost
                next_failure = failures.next_after(wall)
                if next_failure is not None and next_failure < restart_end:
                    emit("restart", wall, next_failure - wall)
                    restart_total += next_failure - wall
                    n_failures += 1
                    wall = next_failure
                    continue
                emit("restart", wall, restart_cost)
                restart_total += restart_cost
                wall = restart_end
                break
            continue
        emit("work", wall, segment)
        if ckpt > 0:
            emit("checkpoint", segment_end, ckpt)
            n_checkpoints += 1
            ckpt_total += ckpt
        wall = block_end
        done += segment

    return RunResult(
        wall_seconds=wall,
        work_seconds=work_seconds,
        n_failures=n_failures,
        n_checkpoints=n_checkpoints,
        lost_work_seconds=lost,
        checkpoint_seconds=ckpt_total,
        restart_seconds=restart_total,
        events=events,
    )


def monte_carlo_expected_runtime(
    work_seconds: float,
    checkpoint_interval: float,
    checkpoint_cost: float,
    restart_cost: float,
    dist,
    *,
    trials: int = 100,
    seed: int = 0,
) -> float:
    """Mean simulated wallclock over ``trials`` sampled failure schedules.

    Converges toward :func:`repro.ckpt.interval.expected_runtime` for
    exponential failures -- the agreement is asserted by the integration
    tests.
    """
    import numpy as np

    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    total = 0.0
    # Horizon heuristic: generous multiple of the failure-free runtime.
    base = work_seconds * (1.0 + checkpoint_cost / checkpoint_interval)
    for _ in range(trials):
        horizon = max(base * 20.0, dist.mean * 20.0)
        schedule = FailureSchedule.from_distribution(dist, horizon, rng)
        total += simulate_run(
            work_seconds, checkpoint_interval, checkpoint_cost, restart_cost, schedule
        ).wall_seconds
    return total / trials


# -- executed mode -------------------------------------------------------------


@dataclass
class ExecutedRun:
    """Outcome of :func:`run_app_with_failures`."""

    final_step: int
    steps_executed: int
    rework_steps: int
    n_failures: int
    restored_from: list[int]
    checkpoint_steps: list[int]


def run_app_with_failures(
    app,
    manager: CheckpointManager,
    total_steps: int,
    checkpoint_interval: int,
    fail_at_steps: Iterable[int] = (),
) -> ExecutedRun:
    """Drive a proxy app to ``total_steps`` with rollback on failures.

    A failure scheduled at step ``f`` strikes the moment the application
    reaches ``f`` (before executing it): the state is thrown away and the
    newest checkpoint is restored through the manager, so the resumed
    trajectory starts from *decompressed* -- possibly lossy -- data.

    An initial checkpoint of the entry state is written so a rollback is
    always possible.
    """
    if total_steps < 0:
        raise ConfigurationError(f"total_steps must be >= 0, got {total_steps}")
    if checkpoint_interval < 1:
        raise ConfigurationError(
            f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
        )
    pending = sorted(set(int(s) for s in fail_at_steps))
    if pending and pending[0] <= app.step_index:
        raise ConfigurationError(
            f"failure at step {pending[0]} is not after the app's current "
            f"step {app.step_index}"
        )

    executed = 0
    n_failures = 0
    restored_from: list[int] = []
    start_step = app.step_index
    if not is_committed(manager.store, app.step_index):
        manager.checkpoint(app.step_index, {"reason": "entry"})

    while app.step_index < total_steps:
        if pending and app.step_index >= pending[0]:
            pending.pop(0)
            n_failures += 1
            manifest = manager.restore()
            restored_from.append(manifest.step)
            continue
        app.step()
        executed += 1
        at = app.step_index
        if (
            at % checkpoint_interval == 0
            and at < total_steps
            and not is_committed(manager.store, at)
        ):
            manager.checkpoint(at, {"reason": "interval"})

    return ExecutedRun(
        final_step=app.step_index,
        steps_executed=executed,
        rework_steps=executed - (total_steps - start_step),
        n_failures=n_failures,
        restored_from=restored_from,
        checkpoint_steps=manager.steps(),
    )
