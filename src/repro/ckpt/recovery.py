"""Startup recovery: classify generations, reap torn ones, fall back.

The commit journal (:mod:`repro.ckpt.journal`) guarantees that a crash
leaves every generation in exactly one of three states; this module is the
reader side that enforces it on the next start:

``committed``
    A parseable commit marker whose CRC/length pin the manifest that is
    actually present.  The only state a restore may touch.  What exactly
    that means is written once, in :func:`repro.ckpt.journal.classify`.
``torn``
    The commit protocol started its metadata phase but died before the
    marker matched the manifest: a manifest with no (or a damaged, or a
    mismatching) marker, or a marker whose manifest is gone.  Garbage by
    definition -- reaped.
``orphaned``
    Blobs only, no metadata at all: a crash during the blob fan-out.
    Equally garbage -- reaped.

On top of classification sits the *fallback ladder*: when the newest
committed generation still fails to restore (corruption at rest beyond
what PR 4's retry/parity repair can heal), ``restore_with_fallback`` walks
to older committed generations, recording every skip, and the
:class:`RestartCoordinator` drives a whole application through repeated
crash/restart cycles -- the paper's SSV scenario of a job riding over
MTBF-distributed failures with bounded rework.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, TYPE_CHECKING

from ..exceptions import (
    CheckpointError,
    CheckpointNotFoundError,
    FormatError,
    IntegrityError,
    RestoreError,
    SimulatedCrash,
    StorageError,
)
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .journal import (
    GEN_COMMITTED,
    GEN_ORPHANED,
    GEN_TORN,
    GenerationInfo,
    published_steps,
    reap_generation,
    scan_generations,
)
from .manifest import CheckpointManifest
from .store import Store

if TYPE_CHECKING:  # pragma: no cover
    from ..apps.base import ProxyApp
    from .manager import CheckpointManager

__all__ = [
    "RecoveryReport",
    "recover",
    "FallbackResult",
    "restore_with_fallback",
    "RestartCycle",
    "RestartReport",
    "RestartCoordinator",
]

@dataclass
class RecoveryReport:
    """What one startup-recovery pass found and did."""

    generations: list[GenerationInfo] = field(default_factory=list)
    reaped: list[int] = field(default_factory=list)
    keys_removed: int = 0

    @property
    def committed(self) -> list[int]:
        return [g.step for g in self.generations if g.state == GEN_COMMITTED]

    @property
    def torn(self) -> list[int]:
        return [g.step for g in self.generations if g.state == GEN_TORN]

    @property
    def orphaned(self) -> list[int]:
        return [g.step for g in self.generations if g.state == GEN_ORPHANED]

    def to_dict(self) -> dict[str, Any]:
        return {
            "generations": [g.to_dict() for g in self.generations],
            "committed": self.committed,
            "torn": self.torn,
            "orphaned": self.orphaned,
            "reaped": list(self.reaped),
            "keys_removed": self.keys_removed,
        }


def recover(store: Store, *, reap: bool = True) -> RecoveryReport:
    """Scan a store at startup; optionally reap torn/orphaned generations.

    Idempotent: a second pass over the same store finds only committed
    generations and reaps nothing.  Safe to interrupt: the reap removes
    the commit marker first, so a crash mid-reap re-classifies the
    remainder as torn or orphaned on the next pass, never as committed.
    """
    report = RecoveryReport()
    registry = get_registry()
    with get_tracer().span("ckpt.recover") as sp:
        report.generations = scan_generations(store)
        for gen in report.generations:
            if gen.state == GEN_COMMITTED or not reap:
                continue
            report.keys_removed += reap_generation(store, gen.step)
            report.reaped.append(gen.step)
        sp.set(
            committed=len(report.committed),
            torn=len(report.torn),
            orphaned=len(report.orphaned),
            reaped=len(report.reaped),
        )
    registry.counter("ckpt.recover.scans").inc()
    registry.counter("ckpt.recover.committed").inc(len(report.committed))
    registry.counter("ckpt.recover.torn").inc(len(report.torn))
    registry.counter("ckpt.recover.orphaned").inc(len(report.orphaned))
    registry.counter("ckpt.recover.reaped").inc(len(report.reaped))
    return report


@dataclass(frozen=True)
class FallbackResult:
    """Outcome of a restore that may have walked the fallback ladder."""

    step: int  # generation actually restored
    manifest: CheckpointManifest
    skipped: tuple[tuple[int, str], ...]  # (step, reason) newest-first
    repairs: int  # parity repairs applied during the winning restore

    @property
    def rolled_back(self) -> int:
        """How many newer committed generations had to be skipped."""
        return len(self.skipped)

    def describe(self) -> str:
        """One-line diagnosis for logs and the CLI."""
        msg = f"restored generation {self.step}"
        if self.skipped:
            msg += (
                f"; skipped {len(self.skipped)} newer generation(s): "
                + ", ".join(str(s) for s, _ in self.skipped)
            )
        if self.repairs:
            msg += f"; {self.repairs} parity repair(s) applied"
        return msg

    def to_dict(self) -> dict[str, Any]:
        return {
            "step": self.step,
            "skipped": [[s, r] for s, r in self.skipped],
            "repairs": self.repairs,
        }


def restore_with_fallback(
    manager: "CheckpointManager",
    *,
    step: int | None = None,
    repair: bool | None = None,
    max_fallback: int | None = None,
) -> FallbackResult:
    """Restore the newest committed generation that actually works.

    Starts at ``step`` (default: the newest generation holding a commit
    marker) and walks down the ladder of older ones whenever a restore
    fails even after the retry/CRC-re-read/parity-repair remedies, or the
    generation turns out not to be committed after all (marker or
    manifest damaged after the seal) -- each skip is recorded with its
    reason.  A generation no marker was ever published for is not a
    candidate and not a skip.  ``max_fallback`` bounds how
    many *older* generations may be tried after the first (``None`` tries
    them all).  Raises :class:`RestoreError` carrying the full per-step
    diagnosis when every candidate fails, and
    :class:`CheckpointNotFoundError` when there is nothing to try.

    Deliberately does **not** catch :class:`~repro.exceptions.SimulatedCrash`:
    an injected process death must kill the whole restore, not slide it
    down the ladder.
    """
    steps = published_steps(manager.store)
    if step is not None:
        steps = [s for s in steps if s <= int(step)]
        if int(step) not in steps:
            raise CheckpointNotFoundError(f"no committed checkpoint for step {step}")
    if not steps:
        raise CheckpointNotFoundError("store holds no committed checkpoints")
    candidates = list(reversed(steps))
    if max_fallback is not None:
        if max_fallback < 0:
            raise CheckpointError(
                f"max_fallback must be >= 0 or None, got {max_fallback}"
            )
        candidates = candidates[: max_fallback + 1]
    skipped: list[tuple[int, str]] = []
    registry = get_registry()
    with get_tracer().span("ckpt.fallback_restore", newest=candidates[0]) as sp:
        for s in candidates:
            repairs_before = len(manager.repair_log)
            try:
                manifest = manager.restore(s, repair=repair)
            except (
                CheckpointNotFoundError,  # published, then damaged: not committed
                RestoreError,
                FormatError,
                IntegrityError,
                StorageError,
            ) as exc:
                skipped.append((s, str(exc)))
                registry.counter("ckpt.fallback.rollbacks").inc()
                continue
            sp.set(restored=s, skipped=len(skipped))
            return FallbackResult(
                step=s,
                manifest=manifest,
                skipped=tuple(skipped),
                repairs=len(manager.repair_log) - repairs_before,
            )
        sp.set(restored=None, skipped=len(skipped))
    detail = "; ".join(f"step {s}: {r}" for s, r in skipped)
    raise RestoreError(
        f"restore failed across {len(skipped)} committed generation(s) "
        f"(newest {candidates[0]}, oldest tried {candidates[-1]}): {detail}"
    )


@dataclass(frozen=True)
class RestartCycle:
    """One crash/restart cycle of the coordinator."""

    attempt: int
    recovered_torn: tuple[int, ...]  # torn/orphaned generations reaped
    restored_step: int | None  # generation resumed from (None = cold start)
    rolled_back: int  # newer generations skipped by the ladder
    crashed: bool  # this cycle ended in a SimulatedCrash
    crash_step: int | None  # app step index at the moment of death
    reason: str  # crash message, or "completed"

    def to_dict(self) -> dict[str, Any]:
        return {
            "attempt": self.attempt,
            "recovered_torn": list(self.recovered_torn),
            "restored_step": self.restored_step,
            "rolled_back": self.rolled_back,
            "crashed": self.crashed,
            "crash_step": self.crash_step,
            "reason": self.reason,
        }


@dataclass
class RestartReport:
    """Outcome of a whole crash/restart campaign."""

    completed: bool = False
    final_step: int | None = None
    cycles: list[RestartCycle] = field(default_factory=list)

    @property
    def restarts(self) -> int:
        """Crash/restart cycles needed before completion."""
        return sum(1 for c in self.cycles if c.crashed)

    @property
    def rework_steps(self) -> int:
        """Total application steps recomputed because of rollbacks.

        For each crashed cycle: steps advanced past the last restored
        checkpoint are lost and redone by the next cycle.
        """
        total = 0
        for c in self.cycles:
            if c.crashed and c.crash_step is not None:
                total += c.crash_step - (c.restored_step or 0)
        return total

    def to_dict(self) -> dict[str, Any]:
        return {
            "completed": self.completed,
            "final_step": self.final_step,
            "restarts": self.restarts,
            "rework_steps": self.rework_steps,
            "cycles": [c.to_dict() for c in self.cycles],
        }


class RestartCoordinator:
    """Run an application to completion across injected process deaths.

    Each cycle models one scheduler dispatch of the job: build a fresh
    application and manager (the previous incarnation died with the
    process), run startup recovery (reap torn generations), resume from
    the newest committed generation via the fallback ladder, and step
    forward, checkpointing every ``interval`` steps.  A
    :class:`~repro.exceptions.SimulatedCrash` anywhere in the cycle --
    mid-commit, mid-recovery, mid-restore -- ends the incarnation; the
    loop starts the next one.  Anything else propagates: real corruption
    or protocol bugs must fail the campaign, not be retried into noise.

    Parameters
    ----------
    app_factory:
        Zero-argument callable building a *fresh* application at its
        initial state (same seed every time -- determinism is the point).
    manager_factory:
        Builds a :class:`~repro.ckpt.manager.CheckpointManager` for one
        app incarnation; receives the app.  The manager's store should be
        the (possibly crash-injecting) store shared across cycles --
        storage survives process death, that is what makes restart work.
    total_steps / interval:
        Length of the run and the checkpoint cadence.
    max_restarts:
        Upper bound on crash/restart cycles before the campaign is
        declared stuck (raises :class:`~repro.exceptions.CheckpointError`).
    repair / max_fallback:
        Forwarded to :func:`restore_with_fallback`.
    """

    def __init__(
        self,
        app_factory: Callable[[], "ProxyApp"],
        manager_factory: Callable[["ProxyApp"], "CheckpointManager"],
        *,
        total_steps: int,
        interval: int,
        max_restarts: int = 100,
        repair: bool | None = None,
        max_fallback: int | None = None,
    ) -> None:
        if total_steps < 0:
            raise CheckpointError(f"total_steps must be >= 0, got {total_steps}")
        if interval < 1:
            raise CheckpointError(f"interval must be >= 1, got {interval}")
        if max_restarts < 0:
            raise CheckpointError(f"max_restarts must be >= 0, got {max_restarts}")
        self.app_factory = app_factory
        self.manager_factory = manager_factory
        self.total_steps = int(total_steps)
        self.interval = int(interval)
        self.max_restarts = int(max_restarts)
        self.repair = repair
        self.max_fallback = max_fallback
        self.app: "ProxyApp | None" = None  # the final, completed incarnation

    def run(self) -> RestartReport:
        from ..apps.base import run_with_checkpoints

        report = RestartReport()
        registry = get_registry()
        for attempt in range(self.max_restarts + 1):
            app = self.app_factory()
            manager = self.manager_factory(app)
            restored: int | None = None
            rolled_back = 0
            reaped: tuple[int, ...] = ()
            try:
                rec = recover(manager.store, reap=True)
                reaped = tuple(rec.reaped)
                if rec.committed:
                    result = restore_with_fallback(
                        manager,
                        repair=self.repair,
                        max_fallback=self.max_fallback,
                    )
                    restored = result.step
                    rolled_back = result.rolled_back
                run_with_checkpoints(
                    app,
                    manager,
                    total_steps=self.total_steps,
                    interval=self.interval,
                )
            except SimulatedCrash as exc:
                report.cycles.append(
                    RestartCycle(
                        attempt=attempt,
                        recovered_torn=reaped,
                        restored_step=restored,
                        rolled_back=rolled_back,
                        crashed=True,
                        crash_step=int(app.step_index),
                        reason=str(exc),
                    )
                )
                registry.counter("ckpt.restart.crashes").inc()
                continue
            report.cycles.append(
                RestartCycle(
                    attempt=attempt,
                    recovered_torn=reaped,
                    restored_step=restored,
                    rolled_back=rolled_back,
                    crashed=False,
                    crash_step=None,
                    reason="completed",
                )
            )
            report.completed = True
            report.final_step = int(app.step_index)
            self.app = app
            registry.counter("ckpt.restart.completions").inc()
            return report
        raise CheckpointError(
            f"run did not complete within {self.max_restarts} restarts "
            f"({report.restarts} crashes; last cycle reached step "
            f"{report.cycles[-1].crash_step if report.cycles else 'n/a'})"
        )
