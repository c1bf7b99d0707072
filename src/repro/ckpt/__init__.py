"""Application-level checkpoint/restart framework."""

from .manager import CheckpointManager
from .protocol import registry_from_checkpointable
from .store import DirectoryStore

__all__ = ["CheckpointManager", "DirectoryStore", "registry_from_checkpointable"]
