"""Unit tests for the ``repro-ckpt verify`` subcommand."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.manifest import array_key
from repro.ckpt.protocol import ArrayRegistry
from repro.ckpt.store import DirectoryStore
from repro.config import ResilienceConfig
from repro.exceptions import StorageError


@pytest.fixture
def ckpt_dir(tmp_path, smooth2d):
    root = tmp_path / "ckpts"
    registry = ArrayRegistry()
    registry.register("field", smooth2d.copy())
    manager = CheckpointManager(registry, DirectoryStore(str(root)))
    manager.checkpoint(1)
    manager.checkpoint(2)
    return root


@pytest.fixture
def parity_dir(tmp_path, smooth2d):
    """One parity-protected generation whose array blob is gone."""
    root = tmp_path / "parity"
    registry = ArrayRegistry()
    registry.register("field", smooth2d.copy())
    CheckpointManager(
        registry, DirectoryStore(str(root)), resilience=ResilienceConfig(parity=True)
    ).checkpoint(1)
    root.joinpath(*array_key(1, "field").split("/")).unlink()
    return root


class TestVerify:
    def test_healthy_store(self, ckpt_dir, capsys):
        assert main(["verify", str(ckpt_dir)]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == 2
        assert "step          1" in out

    def test_corruption_detected(self, ckpt_dir, capsys):
        path = ckpt_dir.joinpath(*array_key(2, "field").split("/"))
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert main(["verify", str(ckpt_dir)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert out.count("ok") == 1  # step 1 still healthy

    def test_missing_blob_detected(self, ckpt_dir, capsys):
        ckpt_dir.joinpath(*array_key(1, "field").split("/")).unlink()
        assert main(["verify", str(ckpt_dir)]) == 1
        assert "missing blob" in capsys.readouterr().out

    def test_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["verify", str(empty)]) == 0
        assert "no checkpoints" in capsys.readouterr().out

    def test_not_a_directory(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_repair_heals_and_the_store_verifies_clean(self, parity_dir, capsys):
        assert main(["verify", str(parity_dir)]) == 1
        assert main(["verify", str(parity_dir), "--repair"]) == 0
        assert "... healed field\n" in capsys.readouterr().out
        assert main(["verify", str(parity_dir)]) == 0

    def test_repair_that_is_not_written_back_fails(self, parity_dir, capsys, monkeypatch):
        def refuse(self, key, data):
            raise StorageError(f"put of {key!r} refused")

        monkeypatch.setattr(DirectoryStore, "put", refuse)
        assert main(["verify", str(parity_dir), "--repair"]) == 1
        captured = capsys.readouterr()
        assert "healed field (not written back)" in captured.out
        assert "1 of 1 committed generation(s) failed" in captured.err
        monkeypatch.undo()
        assert main(["verify", str(parity_dir)]) == 1  # still missing at rest
