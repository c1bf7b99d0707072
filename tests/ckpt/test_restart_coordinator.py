"""End-to-end restart-coordinator tests: crashes, resume, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.base import run_steps
from repro.apps.heat import HeatDiffusionProxy
from repro.ckpt.faults import CRASH_KINDS, FaultInjectingStore, FaultPlan
from repro.ckpt.journal import committed_steps
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.protocol import registry_from_checkpointable
from repro.ckpt.recovery import RestartCoordinator
from repro.ckpt.store import MemoryStore
from repro.exceptions import CheckpointError
from repro.failure.distributions import ExponentialFailures

SHAPE = (8, 8, 4)
SEED = 3


def _coordinator(store, *, total_steps=12, interval=3, **kwargs):
    def manager_factory(app):
        return CheckpointManager(
            registry_from_checkpointable(app),
            store,
            # lossless temperature -> restores are bit-exact, so a resumed
            # trajectory is indistinguishable from an uninterrupted one
            policy={"temperature": "lossless"},
        )

    return RestartCoordinator(
        lambda: HeatDiffusionProxy(SHAPE, SEED),
        manager_factory,
        total_steps=total_steps,
        interval=interval,
        **kwargs,
    )


def _reference_final(total_steps=12) -> np.ndarray:
    return run_steps(HeatDiffusionProxy(SHAPE, SEED), total_steps).temperature


class TestHappyPath:
    def test_no_crashes(self):
        report = _coordinator(MemoryStore()).run()
        assert report.completed
        assert report.final_step == 12
        assert report.restarts == 0
        assert report.rework_steps == 0
        assert len(report.cycles) == 1
        assert report.cycles[0].restored_step is None  # cold start

    def test_resumes_existing_store(self):
        """A second campaign over an already-complete store restores and
        finishes without rewriting anything."""
        store = MemoryStore()
        _coordinator(store).run()
        coord = _coordinator(store, total_steps=18)
        report = coord.run()
        assert report.completed
        assert report.cycles[0].restored_step == 12
        np.testing.assert_array_equal(
            coord.app.temperature, _reference_final(18)
        )


class TestCrashCampaign:
    def _run_crashy(self, points, *, total_steps=12, seed=0):
        inner = MemoryStore()
        crashing = FaultInjectingStore(inner, FaultPlan(schedule=points, seed=seed))
        coord = _coordinator(crashing, total_steps=total_steps)
        return coord, coord.run()

    def test_final_state_identical_to_uncrashed_run(self):
        points = [(2, "crash-torn"), (9, "crash-before"), (17, "crash-after")]
        coord, report = self._run_crashy(points)
        assert report.completed
        assert report.final_step == 12
        assert report.restarts == 3
        np.testing.assert_array_equal(
            coord.app.temperature, _reference_final(12)
        )

    def test_rework_accounting(self):
        coord, report = self._run_crashy([(6, "crash-before")])
        crashed = [c for c in report.cycles if c.crashed]
        assert len(crashed) == 1
        expected = sum(
            c.crash_step - (c.restored_step or 0) for c in crashed
        )
        assert report.rework_steps == expected

    def test_torn_generations_are_reaped_on_restart(self):
        # a torn put mid-commit leaves debris the next cycle must reap
        coord, report = self._run_crashy([(5, "crash-torn")])
        assert report.completed
        reaped = [s for c in report.cycles for s in c.recovered_torn]
        assert reaped, "the torn generation was never reaped"
        np.testing.assert_array_equal(
            coord.app.temperature, _reference_final(12)
        )

    def test_restart_rolls_back_to_newest_committed_generation(self):
        """A process death tearing step 12's commit leaves 3, 6 and 9
        committed: the next incarnation resumes from 9, not from the torn
        generation and not from an older one."""
        inner = MemoryStore()
        crashing = FaultInjectingStore(inner, FaultPlan(schedule=[(13, "crash-torn")]))
        with pytest.raises(CheckpointError, match="did not complete"):
            _coordinator(crashing, max_restarts=0).run()
        assert committed_steps(inner) == [3, 6, 9]
        report = _coordinator(inner).run()
        assert report.cycles[0].restored_step == 9
        assert report.cycles[0].recovered_torn == (12,)

    def test_campaign_is_deterministic(self):
        points = [(3, "crash-torn"), (11, "crash-before"), (20, "crash-after")]
        _, first = self._run_crashy(points, seed=42)
        _, second = self._run_crashy(points, seed=42)
        assert first.to_dict() == second.to_dict()

    def test_mtbf_distribution_campaign(self):
        inner = MemoryStore()
        plan = FaultPlan.from_distribution(
            ExponentialFailures(mtbf=12.0),
            horizon_ops=200,
            kinds=CRASH_KINDS,
            seed=11,
        )
        crashing = FaultInjectingStore(inner, plan)
        coord = _coordinator(crashing, total_steps=15, max_restarts=200)
        report = coord.run()
        assert report.completed
        assert report.final_step == 15
        np.testing.assert_array_equal(
            coord.app.temperature, _reference_final(15)
        )

    def test_stuck_campaign_raises(self):
        points = [(i, "crash-before") for i in range(300)]
        inner = MemoryStore()
        crashing = FaultInjectingStore(inner, FaultPlan(schedule=points))
        coord = _coordinator(crashing, max_restarts=3)
        with pytest.raises(CheckpointError, match="did not complete"):
            coord.run()


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_steps": -1},
            {"interval": 0},
            {"max_restarts": -1},
        ],
    )
    def test_bad_arguments(self, kwargs):
        with pytest.raises(CheckpointError):
            _coordinator(MemoryStore(), **{**{"total_steps": 4, "interval": 2}, **kwargs})
