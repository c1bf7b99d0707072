"""Storage backends for checkpoint blobs.

Checkpoint data flows through a tiny key/value interface so the same
manager drives an in-memory store (unit tests, in-memory checkpointing a la
FTI/FMI), a POSIX directory (the paper's NFS target) or a bandwidth-modelled
store standing in for the 20 GB/s parallel filesystem of paper Section IV-D.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
import zlib
from abc import ABC, abstractmethod
from typing import Callable

from ..exceptions import IntegrityError, StorageError

__all__ = [
    "Store",
    "MemoryStore",
    "DirectoryStore",
    "StoreWrapper",
    "CountingStore",
    "LatencyStore",
]


class Store(ABC):
    """Minimal key/value blob store."""

    @abstractmethod
    def put(self, key: str, data: bytes) -> None:
        """Write ``data`` under ``key`` (atomically where the medium allows)."""

    @abstractmethod
    def get(self, key: str) -> bytes:
        """Read the blob under ``key``; raises :class:`StorageError` if absent."""

    def get_verified(self, key: str, crc32: int, nbytes: int | None = None) -> bytes:
        """Read ``key`` for a caller that knows the payload's CRC-32 (and
        length), and return only bytes that match them.

        A mismatch raises :class:`~repro.exceptions.IntegrityError`, a
        missing key :class:`~repro.exceptions.StorageError`; the caller
        does not check again.  The default is :meth:`get` plus one check.
        A store that can do better with that knowledge -- re-read a
        transient mismatch, fail over to another replica -- overrides it.
        """
        return _check_payload(key, self.get(key), crc32, nbytes)

    @abstractmethod
    def exists(self, key: str) -> bool: ...

    @abstractmethod
    def delete(self, key: str) -> None:
        """Remove ``key``; deleting a missing key is a no-op."""

    @abstractmethod
    def list_keys(self, prefix: str = "") -> list[str]:
        """All keys starting with ``prefix``, sorted."""

    def sync(self) -> None:
        """Durability barrier: block until previously written data is safe.

        The two-phase commit journal calls this between protocol phases
        (after the blob fan-out, and again after the manifest) so a crash
        later in the protocol can never be reordered before the data it
        depends on.  The default is a no-op -- correct for stores whose
        ``put`` is already durable on return (:class:`MemoryStore`,
        :class:`DirectoryStore` with its per-write fsync).  Backends that
        buffer writes should override it.
        """


def _check_payload(key: str, data: bytes, crc32: int, nbytes: int | None = None) -> bytes:
    """``data``, read from ``key``, if its CRC-32 is ``crc32`` and (when
    given) its length ``nbytes``; otherwise :class:`IntegrityError`
    naming what came back.  The one check of a verified read."""
    got = (zlib.crc32(data), len(data))
    want = (crc32 & 0xFFFFFFFF, len(data) if nbytes is None else nbytes)
    if got != want:
        raise IntegrityError(
            f"blob {key!r} read back CRC {got[0]:#010x} over {got[1]} "
            f"bytes, expected CRC {want[0]:#010x} over {want[1]} bytes"
        )
    return data


def _check_key(key: str) -> str:
    if not isinstance(key, str) or not key:
        raise StorageError(f"store key must be a non-empty str, got {key!r}")
    parts = key.split("/")
    if any(p in ("", ".", "..") for p in parts):
        raise StorageError(f"store key must be a clean relative path: {key!r}")
    return key


def _fsync_dir(path: str) -> None:
    """Flush a directory's entry table so a completed rename survives a
    crash.  Best-effort: platforms that cannot open a directory for fsync
    (no ``O_DIRECTORY``, or fsync on directories unsupported) degrade to
    the pre-fsync durability rather than failing the write."""
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(path, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class MemoryStore(Store):
    """Dict-backed store (unit tests and in-memory checkpointing).

    Thread-safe: a service over it puts from drain worker threads while
    readers list and restore from others, so every operation -- including
    the :attr:`total_bytes` aggregation -- runs under one lock.  Python's
    dict ops are individually atomic under the GIL, but ``total_bytes``
    and ``list_keys`` iterate the dict and would otherwise race a
    concurrent ``put``/``delete`` mid-iteration.
    """

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def put(self, key: str, data: bytes) -> None:
        key = _check_key(key)
        data = bytes(data)
        with self._lock:
            self._blobs[key] = data

    def get(self, key: str) -> bytes:
        key = _check_key(key)
        with self._lock:
            try:
                return self._blobs[key]
            except KeyError:
                raise StorageError(f"no object stored under key {key!r}") from None

    def exists(self, key: str) -> bool:
        key = _check_key(key)
        with self._lock:
            return key in self._blobs

    def delete(self, key: str) -> None:
        key = _check_key(key)
        with self._lock:
            self._blobs.pop(key, None)

    def list_keys(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(k for k in self._blobs if k.startswith(prefix))

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._blobs.values())


class DirectoryStore(Store):
    """Files under a root directory, written atomically (tmp + rename).

    Keys map to nested paths; the rename guarantees a reader never sees a
    torn checkpoint blob even if the writer dies mid-write -- the property
    application-level checkpointing depends on.

    ``durability`` selects when writes are flushed to the medium:

    ``"always"`` (default)
        Every ``put`` fsyncs its file, its directory and the parent of
        every directory it had to create before returning -- ``put`` is
        durable on return, ``sync`` only flushes the root's entry table.
    ``"batch"``
        ``put`` writes and renames but defers every fsync; dirty files
        and directories are tracked and flushed together by the next
        :meth:`sync`.  This is the write-behind mode the group-commit
        journal path and the burst-buffer drain tier are built on: many
        puts share one flush pass, so the per-put fsync pair (file +
        parent directory) is paid once per sync barrier instead of once
        per object.  Readers still never see torn blobs (rename is still
        atomic); the only weakened promise is that an *unsynced* put may
        be lost in a crash -- exactly the window the two-phase commit
        protocol already treats as uncommitted.
    """

    def __init__(self, root: str, *, durability: str = "always") -> None:
        if durability not in ("always", "batch"):
            raise StorageError(
                f"durability must be 'always' or 'batch', got {durability!r}"
            )
        self.root = os.path.abspath(root)
        self.durability = durability
        self._dirty_lock = threading.Lock()
        self._dirty_files: set[str] = set()
        self._dirty_dirs: set[str] = set()
        try:
            os.makedirs(self.root, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot create store root {self.root}: {exc}") from exc

    def _path(self, key: str) -> str:
        return os.path.join(self.root, *_check_key(key).split("/"))

    def _collision_guard(self, key: str, path: str) -> None:
        """Reject keys whose path collides with an existing key's path.

        ``put("a", ...)`` then ``put("a/b", ...)`` maps key ``a`` to a
        file *and* to a directory -- impossible on a filesystem.  Name
        both keys instead of letting the write die with a raw
        ``NotADirectoryError``.
        """
        parts = _check_key(key).split("/")
        cur = self.root
        for i, part in enumerate(parts[:-1]):
            cur = os.path.join(cur, part)
            if os.path.isfile(cur):
                raise StorageError(
                    f"key {key!r} collides with existing key "
                    f"{'/'.join(parts[: i + 1])!r}: a key cannot also be a "
                    f"prefix of deeper keys"
                )
        if os.path.isdir(path):
            child = next(iter(self.list_keys(key + "/")), None)
            suffix = f" (e.g. {child!r})" if child else ""
            raise StorageError(
                f"key {key!r} collides with existing keys under "
                f"{key + '/'!r}{suffix}"
            )

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        self._collision_guard(key, path)
        deferred = self.durability == "batch"
        # the file's directory, then the parent of every directory this put
        # has to create (a new generation's entry in ``ckpt/``): each gains
        # an entry that only a flush of that directory makes durable
        flush = [os.path.dirname(path)]
        while not os.path.isdir(flush[-1]):
            flush.append(os.path.dirname(flush[-1]))
        try:
            os.makedirs(flush[0], exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=flush[0], prefix=".tmp-")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                    if not deferred:
                        fh.flush()
                        os.fsync(fh.fileno())
                os.replace(tmp, path)
                # the data blocks are durable (fsync above); the *rename*
                # is only durable once the parent directory is flushed too
                if deferred:
                    with self._dirty_lock:
                        self._dirty_files.add(path)
                        self._dirty_dirs.update(flush)
                else:
                    for directory in flush:
                        _fsync_dir(directory)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            raise StorageError(f"write of {key!r} failed: {exc}") from exc

    def get(self, key: str) -> bytes:
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            raise StorageError(f"no object stored under key {key!r}") from None
        except OSError as exc:
            raise StorageError(f"read of {key!r} failed: {exc}") from exc

    def exists(self, key: str) -> bool:
        return os.path.isfile(self._path(key))

    def delete(self, key: str) -> None:
        path = self._path(key)
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise StorageError(f"delete of {key!r} failed: {exc}") from exc
        if self.durability == "batch":
            with self._dirty_lock:
                self._dirty_files.discard(path)
                self._dirty_dirs.add(os.path.dirname(path))

    def list_keys(self, prefix: str = "") -> list[str]:
        # Prune the walk to the prefix subtree: a per-tenant or
        # per-generation scan must not go O(total keys) as the store
        # grows.  Only the *complete* leading path segments of the prefix
        # name a directory we can descend into -- the last segment may be
        # a partial filename ("ckpt/00001" matches "ckpt/000012/...").
        base = self.root
        segments = prefix.split("/")[:-1] if prefix else []
        for seg in segments:
            base = os.path.join(base, seg)
        if segments and not os.path.isdir(base):
            return []
        keys = []
        for dirpath, _dirnames, filenames in os.walk(base):
            for fn in filenames:
                if fn.startswith(".tmp-"):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, fn), self.root)
                key = rel.replace(os.sep, "/")
                if key.startswith(prefix):
                    keys.append(key)
        return sorted(keys)

    def sync(self) -> None:
        """Durability barrier.

        In ``"always"`` mode every ``put`` already fsynced its file, its
        directory and the parent of each directory it created (that, not
        this barrier, is what makes a fresh generation directory's entry
        durable: it is a child of ``ckpt/``, not of the root), so only
        the root's own entry table is left to flush.
        In ``"batch"`` mode this is where the deferred flushes happen:
        every dirty file, then every dirty directory, then the root --
        data before the directory entries that reference it.
        """
        if self.durability == "batch":
            with self._dirty_lock:
                files, self._dirty_files = self._dirty_files, set()
                dirs, self._dirty_dirs = self._dirty_dirs, set()
            pending = sorted(files)
            for i, path in enumerate(pending):
                try:
                    fd = os.open(path, os.O_RDONLY)
                except OSError:
                    continue  # deleted (or reaped) since the put
                try:
                    os.fsync(fd)
                except OSError as exc:
                    # nothing from this file on is flushed: keep it all
                    # dirty, or a retried barrier would report success
                    # over data that never reached the medium
                    with self._dirty_lock:
                        self._dirty_files.update(pending[i:])
                        self._dirty_dirs.update(dirs)
                    raise StorageError(f"sync of {path!r} failed: {exc}") from exc
                finally:
                    os.close(fd)
            for path in sorted(dirs):
                _fsync_dir(path)
        _fsync_dir(self.root)


class StoreWrapper(Store):
    """A store that forwards every operation to ``inner``.

    The one place the forwarding is written.  A wrapper that only needs
    to fail, delay or account operations overrides a hook and nothing
    else: :meth:`_before` runs ahead of the inner call (raise to fail the
    operation before it touches the store), :meth:`_after` once it has
    succeeded, with the payload bytes it moved (0 for metadata
    operations).  ``get`` and the verified read are one path,
    :meth:`_read`, taking the inner reader -- both report as a ``get``,
    and a wrapper that alters reads sees each exactly once.  A verified
    read trusts the bytes the inner store verified; only bytes a
    :meth:`_read` put in their place (an injected bit flip) are checked
    again, so nothing a wrapper does to a read reaches the caller
    unverified.  A wrapper that changes a key or a written payload
    overrides the method itself.
    """

    def __init__(self, inner: Store) -> None:
        self.inner = inner

    def _before(self, op: str, key: str) -> None:
        pass

    def _after(self, op: str, nbytes: int) -> None:
        pass

    def put(self, key: str, data: bytes) -> None:
        self._before("put", key)
        self.inner.put(key, data)
        self._after("put", len(data))

    def _read(self, key: str, read: Callable[[], bytes]) -> bytes:
        self._before("get", key)
        data = read()
        self._after("get", len(data))
        return data

    def get(self, key: str) -> bytes:
        return self._read(key, lambda: self.inner.get(key))

    def get_verified(self, key: str, crc32: int, nbytes: int | None = None) -> bytes:
        verified: list[bytes] = []

        def read() -> bytes:
            verified.append(self.inner.get_verified(key, crc32, nbytes))
            return verified[0]

        data = self._read(key, read)
        if verified and data is verified[0]:
            return data
        return _check_payload(key, data, crc32, nbytes)

    def exists(self, key: str) -> bool:
        self._before("exists", key)
        found = self.inner.exists(key)
        self._after("exists", 0)
        return found

    def delete(self, key: str) -> None:
        self._before("delete", key)
        self.inner.delete(key)
        self._after("delete", 0)

    def list_keys(self, prefix: str = "") -> list[str]:
        self._before("list_keys", prefix)
        keys = self.inner.list_keys(prefix)
        self._after("list_keys", 0)
        return keys

    def sync(self) -> None:
        self._before("sync", "")
        self.inner.sync()
        self._after("sync", 0)


class CountingStore(StoreWrapper):
    """Wrapper recording operation counts and byte totals (diagnostics)."""

    def __init__(self, inner: Store) -> None:
        super().__init__(inner)
        self.puts = 0
        self.gets = 0
        self.deletes = 0
        self.lists = 0
        self.syncs = 0
        self.bytes_written = 0
        self.bytes_read = 0

    def _after(self, op: str, nbytes: int) -> None:
        if op == "put":
            self.puts += 1
            self.bytes_written += nbytes
        elif op == "get":
            self.gets += 1
            self.bytes_read += nbytes
        elif op == "delete":
            self.deletes += 1
        elif op == "list_keys":
            self.lists += 1
        elif op == "sync":
            self.syncs += 1


class LatencyStore(StoreWrapper):
    """Wrapper that *really sleeps* to model a slower tier's latencies.

    The analytic Section IV-D model of a shared filesystem is
    :class:`~repro.iomodel.storage.StorageModel`; this wrapper makes the
    cost physical so wall-clock benchmarks of the ingest service measure
    honest ratios on media (tmpfs, CI runners) whose own barriers are
    nearly free.  Each
    operation sleeps ``op latency + nbytes / bandwidth``; ``sync`` sleeps
    ``sync_latency`` -- the device write-barrier cost whose amortization
    is exactly what the group-commit path buys.

    Sleeps happen *after* the inner operation so injected faults and
    crashes from an inner fault-injecting store fire at full speed.
    """

    def __init__(
        self,
        inner: Store,
        *,
        op_latency_sec: float = 0.0,
        sync_latency_sec: float = 0.0,
        bandwidth_bytes_per_sec: float | None = None,
    ) -> None:
        if op_latency_sec < 0 or sync_latency_sec < 0:
            raise StorageError(
                f"latencies must be >= 0, got op={op_latency_sec}, "
                f"sync={sync_latency_sec}"
            )
        if bandwidth_bytes_per_sec is not None and bandwidth_bytes_per_sec <= 0:
            raise StorageError(
                f"bandwidth must be positive, got {bandwidth_bytes_per_sec}"
            )
        super().__init__(inner)
        self.op_latency = float(op_latency_sec)
        self.sync_latency = float(sync_latency_sec)
        self.bandwidth = bandwidth_bytes_per_sec
        self.slept_seconds = 0.0

    def _after(self, op: str, nbytes: int) -> None:
        cost = self.sync_latency if op == "sync" else self.op_latency
        if self.bandwidth is not None:
            cost += nbytes / self.bandwidth
        if cost > 0:
            time.sleep(cost)
            self.slept_seconds += cost
