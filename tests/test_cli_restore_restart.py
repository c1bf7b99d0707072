"""Unit tests for the ``repro-ckpt restore`` and ``restart`` subcommands.

Error paths matter as much as the happy ones: a broken store must produce
a nonzero exit and a one-line diagnosis naming what was used, skipped, or
repaired -- never a traceback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt.manager import CheckpointManager
from repro.ckpt.manifest import array_key, commit_key
from repro.ckpt.protocol import ArrayRegistry
from repro.ckpt.store import DirectoryStore
from repro.cli import main

from .ckpt.test_recovery import DAMAGE_AFTER_SEAL


def _field(tag: int) -> np.ndarray:
    return np.cumsum(
        np.random.default_rng(tag).standard_normal((16, 12)), axis=0
    )


@pytest.fixture
def ckpt_dir(tmp_path):
    root = tmp_path / "ckpts"
    for step in (1, 2, 3):
        registry = ArrayRegistry()
        registry.register("field", _field(step).copy())
        CheckpointManager(registry, DirectoryStore(str(root))).checkpoint(step)
    return root


def _corrupt(root, step: int) -> None:
    path = root.joinpath(*array_key(step, "field").split("/"))
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestRestore:
    def test_restores_newest(self, ckpt_dir, tmp_path, capsys):
        out_npz = tmp_path / "state.npz"
        assert main(["restore", str(ckpt_dir), str(out_npz)]) == 0
        line = capsys.readouterr().out.strip()
        assert "restored generation 3" in line
        assert "1 array(s)" in line
        with np.load(out_npz) as data:
            assert data["field"].shape == (16, 12)

    def test_explicit_step(self, ckpt_dir, tmp_path, capsys):
        out_npz = tmp_path / "state.npz"
        assert main(["restore", str(ckpt_dir), str(out_npz), "--step", "2"]) == 0
        assert "restored generation 2" in capsys.readouterr().out

    def test_fallback_reports_skipped_generation(self, ckpt_dir, tmp_path, capsys):
        _corrupt(ckpt_dir, 3)
        out_npz = tmp_path / "state.npz"
        assert main(["restore", str(ckpt_dir), str(out_npz)]) == 0
        line = capsys.readouterr().out.strip()
        assert "restored generation 2" in line
        assert "skipped 1 newer generation(s): 3" in line

    def test_no_fallback_fails_with_diagnosis(self, ckpt_dir, tmp_path, capsys):
        _corrupt(ckpt_dir, 3)
        out_npz = tmp_path / "state.npz"
        rc = main(["restore", str(ckpt_dir), str(out_npz), "--fallback", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "step 3" in err
        assert not out_npz.exists()

    def test_missing_step_fails(self, ckpt_dir, tmp_path, capsys):
        rc = main(["restore", str(ckpt_dir), str(tmp_path / "x.npz"), "--step", "9"])
        assert rc == 1
        assert "no committed checkpoint for step 9" in capsys.readouterr().err

    def test_empty_directory_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["restore", str(empty), str(tmp_path / "x.npz")])
        assert rc == 1
        assert "no committed checkpoints" in capsys.readouterr().err

    def test_not_a_directory_fails(self, tmp_path, capsys):
        rc = main(["restore", str(tmp_path / "nope"), str(tmp_path / "x.npz")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", DAMAGE_AFTER_SEAL)
    def test_falls_back_past_a_generation_damaged_after_its_seal(
        self, damage, ckpt_dir, tmp_path, capsys
    ):
        # no recovery pass runs first: the CLI must diagnose the acked,
        # then damaged, generation 3 itself, say so, and use 2
        DAMAGE_AFTER_SEAL[damage][0](DirectoryStore(str(ckpt_dir)), 3)
        out_npz = tmp_path / "state.npz"
        assert main(["restore", str(ckpt_dir), str(out_npz)]) == 0
        line = capsys.readouterr().out.strip()
        assert "restored generation 2" in line
        assert "skipped 1 newer generation(s): 3" in line
        with np.load(out_npz) as data:
            assert data["field"].shape == (16, 12)
        # verify calls it torn, once, and does not also try to verify it
        assert main(["verify", str(ckpt_dir)]) == 0
        out = capsys.readouterr().out
        assert out.count("TORN") == 1
        assert out.count("ok") == 2

    def test_torn_generation_is_not_a_candidate(self, ckpt_dir, tmp_path, capsys):
        # deleting the marker tears generation 3: restore must use 2
        # without calling it "skipped" (it was never committed)
        ckpt_dir.joinpath(*commit_key(3).split("/")).unlink()
        out_npz = tmp_path / "state.npz"
        assert main(["restore", str(ckpt_dir), str(out_npz)]) == 0
        line = capsys.readouterr().out.strip()
        assert "restored generation 2" in line
        assert "skipped" not in line


class TestVerifyTorn:
    def test_torn_generation_reported(self, ckpt_dir, capsys):
        ckpt_dir.joinpath(*commit_key(2).split("/")).unlink()
        assert main(["verify", str(ckpt_dir)]) == 0
        out = capsys.readouterr().out
        assert "TORN" in out
        assert out.count("ok") == 2  # generations 1 and 3 still verify

    def test_only_torn_generations(self, tmp_path, capsys):
        root = tmp_path / "ckpts"
        registry = ArrayRegistry()
        registry.register("field", _field(1).copy())
        CheckpointManager(registry, DirectoryStore(str(root))).checkpoint(1)
        root.joinpath(*commit_key(1).split("/")).unlink()
        assert main(["verify", str(root)]) == 0
        out = capsys.readouterr().out
        assert "TORN" in out
        assert "await recovery" in out


class TestRestart:
    def test_completes_without_crashes(self, tmp_path, capsys):
        rc = main(
            [
                "restart",
                str(tmp_path / "ckpts"),
                "--steps", "8",
                "--interval", "4",
                "--shape", "8,8,4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "completed 8 steps after 0 restart(s)" in out

    def test_completes_under_injected_crashes(self, tmp_path, capsys):
        rc = main(
            [
                "restart",
                str(tmp_path / "ckpts"),
                "--steps", "10",
                "--interval", "2",
                "--shape", "8,8,4",
                "--crash-mtbf-ops", "15",
                "--crash-seed", "7",
                "--max-restarts", "200",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # pinned for this seed: the schedule (op indices and crash kinds)
        # the MTBF model draws must not move
        assert "completed 10 steps after 5 restart(s); 12 step(s) of rework" in out
        assert "cycle   1: resumed from 4, crashed at step 8 (1 torn reaped)" in out
        assert "cycle   5: completed at step 10 (1 torn reaped)" in out

    def test_zero_crash_horizon_injects_no_crash(self, tmp_path, capsys):
        """``--crash-horizon-ops 0`` draws the schedule over no operation,
        not over the 20 x MTBF default."""
        rc = main(
            [
                "restart",
                str(tmp_path / "ckpts"),
                "--steps", "10",
                "--interval", "2",
                "--shape", "8,8,4",
                "--crash-mtbf-ops", "5",
                "--crash-horizon-ops", "0",
            ]
        )
        assert rc == 0
        assert "completed 10 steps after 0 restart(s)" in capsys.readouterr().out

    def test_bad_shape_fails(self, tmp_path, capsys):
        rc = main(
            [
                "restart",
                str(tmp_path / "ckpts"),
                "--steps", "4",
                "--interval", "2",
                "--shape", "8,banana,4",
            ]
        )
        assert rc == 1
        assert "--shape" in capsys.readouterr().err

    def test_nonpositive_mtbf_fails(self, tmp_path, capsys):
        rc = main(
            [
                "restart",
                str(tmp_path / "ckpts"),
                "--steps", "4",
                "--interval", "2",
                "--shape", "8,8,4",
                "--crash-mtbf-ops", "0",
            ]
        )
        assert rc == 1
        assert "crash-mtbf-ops" in capsys.readouterr().err
