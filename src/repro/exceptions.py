"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish configuration mistakes from data corruption.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CompressionError",
    "NonFiniteDataError",
    "DecompressionError",
    "FormatError",
    "IntegrityError",
    "CheckpointError",
    "CommitError",
    "CheckpointNotFoundError",
    "RestoreError",
    "CorruptionError",
    "StorageError",
    "TransientStorageError",
    "SimulatedCrash",
    "TuningError",
    "ServiceError",
    "UnknownTenantError",
    "QuotaExceededError",
    "ServiceUnavailableError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter or parameter combination was supplied."""


class CompressionError(ReproError):
    """Compression of an array failed (unsupported dtype, shape, ...)."""


class NonFiniteDataError(CompressionError, ValueError):
    """Lossy-compression input contains NaN or Inf values.

    Derives from :class:`ValueError` as well as
    :class:`CompressionError`: non-finite mesh data is a *value* problem in
    the caller's arrays -- quantization ranges and spike detection would
    silently produce garbage bins from it -- so it is rejected eagerly with
    a message naming how many values are bad and where the first one sits.
    Arrays that legitimately carry NaN/Inf (masked oceans, sentinel cells)
    belong on the lossless path (``policy={name: "lossless"}``), which
    round-trips them bit-exactly.
    """


class DecompressionError(ReproError):
    """A compressed blob could not be decoded back into an array."""


class FormatError(DecompressionError):
    """A serialized container is malformed (bad magic, truncated section)."""


class IntegrityError(DecompressionError):
    """Stored checksums do not match the payload; the data is corrupt."""


class CheckpointError(ReproError):
    """Checkpoint write or bookkeeping failed."""


class CommitError(CheckpointError):
    """The two-phase checkpoint commit protocol was violated.

    Raised by :mod:`repro.ckpt.journal` when a commit cannot begin or
    finish cleanly -- e.g. the target generation already holds a published
    commit marker, or the marker does not match the manifest it claims to
    seal.  Distinct from :class:`StorageError`: the store worked, the
    *protocol state* is wrong.
    """


class CheckpointNotFoundError(CheckpointError, KeyError):
    """The requested checkpoint step does not exist in the store."""

    # KeyError prints its argument's repr; the CLI and the fallback ladder's
    # skip reasons want the message as written
    __str__ = Exception.__str__


class RestoreError(CheckpointError):
    """A checkpoint exists but could not be restored into the application."""


class StorageError(ReproError):
    """A storage backend failed to read or write an object."""


class TransientStorageError(StorageError):
    """A storage operation failed in a way that may succeed on retry.

    Raised by fault injection (and available to real backends) for the
    transient I/O error class -- the NFS hiccups and EINTR-style failures
    that bounded retry with backoff is designed to ride over.  The store
    state is unchanged: a failed ``put`` wrote nothing, a failed ``get``
    read nothing.
    """


class SimulatedCrash(ReproError):
    """An injected process death (crash testing only).

    Raised by :class:`repro.ckpt.faults.FaultInjectingStore` at a
    scheduled ``crash-*`` placement of its
    :class:`~repro.ckpt.faults.FaultPlan` to model the writer dying
    mid-commit.  Deliberately *not* a :class:`StorageError`: no
    retry/repair layer may absorb it -- the whole point is that everything
    above the store dies with the process and recovery happens on the next
    start.  Only the restart coordinator (and test harnesses standing in
    for a scheduler) catch it.
    """


class CorruptionError(RestoreError, FormatError):
    """Stored checkpoint data is damaged beyond what repair can recover.

    Derives from both :class:`RestoreError` (the checkpoint cannot come
    back) and :class:`FormatError` (the on-store bytes are wrong), so
    callers watching either hierarchy see it.  Raised only after every
    available remedy -- retry, CRC-aware re-read, parity reconstruction --
    has been exhausted; it never masks silently-wrong data.
    """


class TuningError(ReproError):
    """Parameter auto-tuning could not satisfy the requested error bound."""


class ServiceError(ReproError):
    """The checkpoint ingest service rejected or failed a request.

    The service-layer error family (PR 5 taxonomy convention): every
    refusal the multi-tenant ingest front-end can issue derives from this
    class, carries a one-line diagnosis, and crosses the wire protocol as
    a typed error frame -- a client never sees a hung stream or a generic
    ``OSError`` for a policy refusal.
    """


class UnknownTenantError(ServiceError, KeyError):
    """A request named a tenant the service has no namespace for.

    Derives from :class:`KeyError` as well: the tenant name is a lookup
    key, and callers iterating tenants may reasonably catch ``KeyError``.
    """

    def __str__(self) -> str:
        # KeyError.__str__ reprs its argument; keep the plain one-line
        # diagnosis the CLI prints for every ReproError.
        return Exception.__str__(self)


class QuotaExceededError(ServiceError):
    """A tenant's byte or ingest-rate quota refused the request.

    Raised *before* any blob of the offending generation is absorbed, so
    a refused submit leaves no partial state to reap.  The message names
    the tenant, the quota kind (``bytes`` or ``rate``) and the limit.
    """


class ServiceUnavailableError(ServiceError):
    """The service cannot take requests (shutting down, or crashed).

    Distinct from :class:`QuotaExceededError`: nothing is wrong with the
    request -- the service itself is not in an accepting state.  In-flight
    submits interrupted by an injected crash also resolve to this family
    so clients can tell "refused" from "service died under me".
    """
