"""Application-facing checkpoint protocol and array registry.

The paper compresses *application-level* checkpoints: the application
nominates the floating-point mesh arrays that constitute its restartable
state (NICAM's pressure/temperature/wind).  :class:`Checkpointable` is the
protocol a simulation implements; :class:`ArrayRegistry` is the lower-level
building block that tracks named live arrays and can snapshot or restore
them in place (so the application keeps its own references).
"""

from __future__ import annotations

from typing import Iterator, Mapping, Protocol, runtime_checkable

import numpy as np

from ..exceptions import CheckpointError, RestoreError

__all__ = ["Checkpointable", "ArrayRegistry", "registry_from_checkpointable"]


@runtime_checkable
class Checkpointable(Protocol):
    """Anything that can expose and re-absorb its state arrays."""

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Live views (or copies) of every array that must be checkpointed."""
        ...

    def load_state_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Overwrite the application state from a snapshot."""
        ...


class ArrayRegistry:
    """Named live arrays with snapshot/restore.

    Restore copies into the registered buffer, preserving application
    references.  State the application rebuilds on load goes through
    :func:`registry_from_checkpointable` instead.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._arrays)

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def names(self) -> list[str]:
        """Registered array names in registration-stable sorted order."""
        return sorted(self._arrays)

    def _check_name(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise CheckpointError(f"array name must be a non-empty str, got {name!r}")
        if "/" in name or "\\" in name or name in (".", ".."):
            raise CheckpointError(f"array name must not look like a path: {name!r}")
        if name in self:
            raise CheckpointError(f"array {name!r} is already registered")

    def register(self, name: str, array: np.ndarray) -> None:
        """Register a live ndarray; restore copies into this same buffer."""
        self._check_name(name)
        arr = np.asarray(array)
        if arr.ndim == 0:
            raise CheckpointError(f"array {name!r} is 0-dimensional; wrap scalars")
        self._arrays[name] = arr

    def get(self, name: str) -> np.ndarray:
        """The current live value of one registered array."""
        try:
            return self._arrays[name]
        except KeyError:
            raise CheckpointError(f"array {name!r} is not registered") from None

    def snapshot(self) -> dict[str, np.ndarray]:
        """Consistent copies of every registered array (name -> copy)."""
        return {name: np.array(self.get(name), copy=True) for name in self.names()}

    def restore(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Write a snapshot back into the live application state.

        Every registered array must be present with a matching shape;
        each is restored with an in-place copy so references held by the
        application stay valid.  dtype conversions
        follow NumPy same-kind casting (a float64 snapshot restores into a
        float64 buffer bit-exactly).
        """
        missing = [n for n in self.names() if n not in arrays]
        if missing:
            raise RestoreError(f"snapshot is missing arrays: {missing}")
        for name in self.names():
            value = np.asarray(arrays[name])
            target = self._arrays[name]
            if target.shape != value.shape:
                raise RestoreError(
                    f"array {name!r}: snapshot shape {value.shape} does not "
                    f"match live shape {target.shape}"
                )
            np.copyto(target, value, casting="same_kind")


def registry_from_checkpointable(app: Checkpointable) -> ArrayRegistry:
    """Build a registry backed by an application's protocol methods.

    The registry stays live: reads call :meth:`Checkpointable.state_arrays`
    on demand, and restore pushes the whole snapshot through
    :meth:`Checkpointable.load_state_arrays` exactly once (not per-array),
    preserving any invariants the application re-establishes on load.
    """
    registry = _CheckpointableRegistry(app)
    return registry


class _CheckpointableRegistry(ArrayRegistry):
    """Registry view over a :class:`Checkpointable` application."""

    def __init__(self, app: Checkpointable) -> None:
        super().__init__()
        self._app = app
        self._names = sorted(app.state_arrays())
        if not self._names:
            raise CheckpointError("checkpointable exposes no state arrays")

    def names(self) -> list[str]:
        return list(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __len__(self) -> int:
        return len(self._names)

    def get(self, name: str) -> np.ndarray:
        arrays = self._app.state_arrays()
        if name not in arrays:
            raise CheckpointError(f"application no longer exposes array {name!r}")
        return np.asarray(arrays[name])

    def snapshot(self) -> dict[str, np.ndarray]:
        arrays = self._app.state_arrays()
        missing = [n for n in self._names if n not in arrays]
        if missing:
            raise CheckpointError(f"application no longer exposes arrays: {missing}")
        return {name: np.array(arrays[name], copy=True) for name in self._names}

    def restore(self, arrays: Mapping[str, np.ndarray]) -> None:
        missing = [n for n in self._names if n not in arrays]
        if missing:
            raise RestoreError(f"snapshot is missing arrays: {missing}")
        self._app.load_state_arrays({n: np.asarray(arrays[n]) for n in self._names})

    def register(self, name: str, array: np.ndarray) -> None:  # pragma: no cover
        raise CheckpointError(
            "cannot register extra arrays on a Checkpointable-backed registry"
        )
