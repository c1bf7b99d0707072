"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import sys
import threading
import zlib

import numpy as np
import pytest

from repro.apps.fields import nicam_like_variables, smooth_field


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def smooth3d(rng) -> np.ndarray:
    """A small, smooth 3D double field (temperature-like)."""
    return smooth_field((64, 16, 2), rng, amplitude=20.0, offset=280.0)


@pytest.fixture
def smooth2d(rng) -> np.ndarray:
    return smooth_field((48, 32), rng, amplitude=5.0, offset=100.0)


@pytest.fixture
def smooth1d(rng) -> np.ndarray:
    return smooth_field((256,), rng, amplitude=1.0)


@pytest.fixture
def nicam_small() -> dict[str, np.ndarray]:
    """The five NICAM-like variables at a test-friendly shape."""
    return nicam_like_variables((72, 20, 2), rng=7)


@pytest.fixture
def crc_bytes(monkeypatch) -> dict[str, int]:
    """Bytes ``zlib.crc32`` hashes from here on, by calling module."""
    seen: dict[str, int] = {}
    lock = threading.Lock()
    crc32 = zlib.crc32

    def counting(data, value=0):
        module = sys._getframe(1).f_globals.get("__name__", "?")
        with lock:
            seen[module] = seen.get(module, 0) + memoryview(data).nbytes
        return crc32(data, value)

    monkeypatch.setattr(zlib, "crc32", counting)
    return seen


def pytest_make_parametrize_id(config, val, argname):
    """Crash kinds parametrize under their bare mode name (``before``,
    ``torn``, ``after``): the crash-matrix test ids predate the
    ``crash-`` prefix and CI history is keyed on them."""
    if isinstance(val, str) and val.startswith("crash-"):
        return val.removeprefix("crash-")
    return None
