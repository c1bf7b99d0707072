"""Two-phase checkpoint commit: blobs, manifest, barrier, marker, barrier.

The paper's premise (SSI, SSV) is that processes die at arbitrary moments,
which includes *while a checkpoint is being written*.  A generation is
therefore never trusted just because its files exist; it counts only once
a tiny commit marker -- published in one atomic ``put`` after everything
it seals is durable -- says so.  The write-ahead discipline is the one
SCR and FTI use for multi-level checkpointing:

1. **Blob phase** -- every array and parity blob is written under the
   generation prefix ``ckpt/<step>/``.  The generation is *pending*: a
   reader must ignore it.
2. **Manifest phase** -- the manifest (format_version
   :data:`COMMIT_FORMAT_VERSION`) is written; without a marker it is
   still pending.
3. **Barrier** -- :meth:`~repro.ckpt.store.Store.sync` makes the blobs and
   the manifest durable before anything can promise them.
4. **Publish** -- a :class:`CommitMarker` recording the manifest's CRC32
   and length lands at ``ckpt/<step>/COMMIT`` in a single atomic put, and
   a second barrier makes it durable.  Only now is the generation
   *committed*, and only now may the writer say so.

Phases 2-4 are one routine, :func:`_publish`, whether it seals one
generation (:meth:`CommitTransaction.seal`) or a batch
(:func:`group_seal`).

A crash at any instant leaves either a committed generation (marker
present and matching) or a torn one (anything else) -- and torn
generations are garbage, reaped by :mod:`repro.ckpt.recovery` at the next
start.  There is no intermediate state a restore could half-trust.

The reader side of that contract lives here too, once: :func:`classify`
is the only definition of *committed*, and :func:`is_committed`,
:func:`scan_generations`, :func:`committed_steps` and
:func:`load_committed` are views of it.  Nothing outside this module
lists ``ckpt/`` or parses a step number out of a key.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Sequence

from ..exceptions import (
    CheckpointNotFoundError,
    CommitError,
    FormatError,
    IntegrityError,
    StorageError,
)
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .manifest import CheckpointManifest, commit_key, generation_prefix, manifest_key
from .store import Store

__all__ = [
    "COMMIT_FORMAT_VERSION",
    "CommitMarker",
    "CommitTransaction",
    "CommitJournal",
    "GEN_COMMITTED",
    "GEN_TORN",
    "GEN_ORPHANED",
    "GenerationInfo",
    "classify",
    "is_committed",
    "scan_generations",
    "committed_steps",
    "published_steps",
    "load_committed",
    "GroupSealItem",
    "group_seal",
]

#: Manifest ``format_version`` written by the journal.  Version 1 manifests
#: predate commit markers; version >= 2 promises that a marker was published,
#: so a v2 manifest *without* a valid marker is evidence of a torn commit.
COMMIT_FORMAT_VERSION = 2


@dataclass(frozen=True)
class CommitMarker:
    """The atomic publish record sealing one checkpoint generation.

    Besides announcing "this generation is complete", the marker pins the
    exact manifest it seals (CRC32 + length), so a marker paired with a
    later-damaged or swapped manifest is detected as torn rather than
    trusted.  ``n_entries``/``n_parity`` are redundant summaries used in
    recovery diagnostics.
    """

    step: int
    manifest_crc32: int
    manifest_bytes: int
    n_entries: int
    n_parity: int = 0
    format_version: int = COMMIT_FORMAT_VERSION

    def to_json(self) -> bytes:
        return json.dumps(
            {
                "format_version": self.format_version,
                "step": self.step,
                "manifest_crc32": self.manifest_crc32,
                "manifest_bytes": self.manifest_bytes,
                "n_entries": self.n_entries,
                "n_parity": self.n_parity,
            },
            sort_keys=True,
        ).encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes) -> "CommitMarker":
        try:
            doc = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"commit marker is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise FormatError(
                f"commit marker must be a JSON object, got {type(doc).__name__}"
            )
        try:
            return cls(
                step=int(doc["step"]),
                manifest_crc32=int(doc["manifest_crc32"]),
                manifest_bytes=int(doc["manifest_bytes"]),
                n_entries=int(doc["n_entries"]),
                n_parity=int(doc.get("n_parity", 0)),
                format_version=int(doc.get("format_version", COMMIT_FORMAT_VERSION)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"commit marker is missing fields: {exc}") from exc


GEN_COMMITTED = "committed"
GEN_TORN = "torn"
GEN_ORPHANED = "orphaned"


@dataclass(frozen=True)
class GenerationInfo:
    """Classification of one on-store generation."""

    step: int
    state: str  # GEN_COMMITTED | GEN_TORN | GEN_ORPHANED
    reason: str  # why it landed in that state (diagnostics)
    n_keys: int  # objects under the generation prefix (0 for a point check)
    #: the manifest the marker seals -- set exactly when ``state`` is committed
    manifest: CheckpointManifest | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict[str, Any]:
        return {
            "step": self.step,
            "state": self.state,
            "reason": self.reason,
            "n_keys": self.n_keys,
        }


def classify(store: Store, step: int, keys: list[str] | None = None) -> GenerationInfo:
    """The one definition of *committed*, with the reason attached.

    Committed iff a parseable marker exists, names ``step``, and the
    manifest it seals is present, matches the sealed CRC32 and length,
    and parses.  The manifest is read through ``get_verified`` with the
    CRC the marker records, so it heals the way array blobs do: a
    retrying store re-reads, a replicated one fails over and repairs the
    bad copy.  That read is the check: what it returns matches.  Anything
    else is torn (the metadata phase started) or orphaned (blobs only) --
    garbage either way.

    ``keys`` is the listing of the generation's prefix when the caller
    holds one (a scan).  Without it this is a point check, O(1) in the
    generations held: it probes the marker, lists nothing, and reports a
    step without one as torn whatever else is under the prefix.
    """
    step = int(step)
    ckey, mkey = commit_key(step), manifest_key(step)
    listed = keys is not None
    n_keys = len(keys) if listed else 0
    torn = partial(GenerationInfo, step, GEN_TORN, n_keys=n_keys)
    if not (ckey in keys if listed else store.exists(ckey)):
        if listed and mkey not in keys:
            return GenerationInfo(
                step, GEN_ORPHANED, "blobs without manifest or commit marker", n_keys
            )
        return torn("no commit marker was published")
    try:
        marker = CommitMarker.from_json(store.get(ckey))
    except (FormatError, StorageError) as exc:
        return torn(f"commit marker is unreadable: {exc}")
    if marker.step != step:
        return torn(f"commit marker names step {marker.step}, found under step {step}")
    if listed and mkey not in keys:
        return torn("commit marker present but manifest is missing")
    try:
        payload = store.get_verified(
            mkey, marker.manifest_crc32, marker.manifest_bytes
        )
    except StorageError as exc:
        return torn(f"manifest is unreadable: {exc}")
    except IntegrityError as exc:
        return torn(
            "manifest does not match the CRC/length sealed by the commit "
            f"marker: {exc}"
        )
    try:
        manifest = CheckpointManifest.from_json(payload)
    except FormatError as exc:
        # CRC matched, so the *marker itself* sealed garbage -- a protocol
        # bug rather than a crash, but still not restorable.
        return torn(f"sealed manifest does not parse: {exc}")
    return GenerationInfo(
        step, GEN_COMMITTED, "marker seals manifest", n_keys, manifest
    )


def _generations(store: Store) -> dict[int, list[str]]:
    """The one listing of ``ckpt/``: each generation's keys, ascending by step.

    Prefixes that do not parse as a zero-padded step number are ignored --
    they were never written by the journal and reaping them could destroy
    foreign data sharing the store.
    """
    by_step: dict[int, list[str]] = {}
    for key in store.list_keys("ckpt/"):
        parts = key.split("/")
        if len(parts) < 3:
            continue
        try:
            step = int(parts[1])
        except ValueError:
            continue
        by_step.setdefault(step, []).append(key)
    return dict(sorted(by_step.items()))


def is_committed(store: Store, step: int) -> bool:
    """Whether generation ``step`` is fully committed (see :func:`classify`)."""
    return classify(store, step).state == GEN_COMMITTED


def scan_generations(store: Store) -> list[GenerationInfo]:
    """Classify every generation under ``ckpt/``, ascending by step."""
    return [classify(store, step, keys) for step, keys in _generations(store).items()]


def committed_steps(store: Store) -> list[int]:
    """Steps of every committed generation, ascending (one manifest alive
    at a time, however many generations the store holds)."""
    return [
        step
        for step, keys in _generations(store).items()
        if classify(store, step, keys).state == GEN_COMMITTED
    ]


def published_steps(store: Store) -> list[int]:
    """Steps holding a commit marker key, ascending, from the listing alone.

    Whether each *is* committed stays :func:`classify`'s call: the
    fallback ladder walks these so that an acked generation damaged after
    its seal is diagnosed and skipped, not silently invisible.
    """
    return [s for s, keys in _generations(store).items() if commit_key(s) in keys]


def load_committed(store: Store, step: int | None = None) -> CheckpointManifest:
    """The manifest of committed generation ``step`` (default: the newest
    one, found by classifying newest-first).

    Raises :class:`CheckpointNotFoundError`, carrying the classification
    reason when ``step`` was named and is anything but committed.
    """
    if step is not None:
        info = classify(store, step)
        if info.manifest is None:
            raise CheckpointNotFoundError(
                f"no committed checkpoint for step {step} (torn or absent): "
                f"{info.reason}"
            )
        return info.manifest
    for newest, keys in reversed(_generations(store).items()):
        manifest = classify(store, newest, keys).manifest
        if manifest is not None:
            return manifest
    raise CheckpointNotFoundError("store holds no committed checkpoints")


class CommitTransaction:
    """One in-flight checkpoint commit (phases 1-4 above).

    Obtained from :meth:`CommitJournal.begin`; blob puts go through
    :meth:`put_blob` so the journal can confine them to the generation
    prefix and refuse writes after :meth:`seal`.
    """

    def __init__(self, journal: "CommitJournal", step: int) -> None:
        self.journal = journal
        self.store = journal.store
        self.step = int(step)
        self.prefix = generation_prefix(step)
        self.blob_keys: list[str] = []
        self._sealed = False

    @property
    def sealed(self) -> bool:
        return self._sealed

    def put_blob(self, key: str, data: bytes) -> None:
        """Phase-1 write of one array/parity blob under the pending prefix."""
        if self._sealed:
            raise CommitError(
                f"transaction for step {self.step} is already sealed; "
                f"no further blobs may join the generation"
            )
        if not key.startswith(self.prefix):
            raise CommitError(
                f"blob key {key!r} is outside generation prefix {self.prefix!r}"
            )
        if key in (manifest_key(self.step), commit_key(self.step)):
            raise CommitError(
                f"key {key!r} is reserved for the commit protocol; "
                f"blobs may not impersonate the manifest or marker"
            )
        if key in self.blob_keys:
            raise CommitError(
                f"blob key {key!r} was already written by this transaction; "
                f"a second put would overwrite bytes the manifest records"
            )
        self.store.put(key, data)
        self.blob_keys.append(key)

    def seal(self, manifest: CheckpointManifest) -> CommitMarker:
        """Phases 2-4: :func:`_publish` for this one generation."""
        if self._sealed:
            raise CommitError(f"transaction for step {self.step} is already sealed")
        if int(manifest.step) != self.step:
            raise CommitError(
                f"manifest is for step {manifest.step}, transaction owns "
                f"step {self.step}"
            )
        item = GroupSealItem(self.store, manifest)
        with get_tracer().span(
            "ckpt.commit", step=self.step, n_blobs=len(self.blob_keys)
        ) as sp:
            (marker,) = _publish((item,), self.store)
            sp.set(manifest_bytes=marker.manifest_bytes, n_entries=marker.n_entries)
        self._sealed = True
        get_registry().counter("ckpt.commits").inc()
        return marker

    def abort(self) -> None:
        """Best-effort reap of everything this transaction wrote.

        Only callable before :meth:`seal`; a sealed generation is
        committed and owned by retention, not the transaction.
        """
        if self._sealed:
            raise CommitError(
                f"transaction for step {self.step} is sealed; a committed "
                f"generation cannot be aborted"
            )
        reap_generation(self.store, self.step)
        self.blob_keys.clear()


def reap_generation(store: Store, step: int) -> int:
    """Delete every object of generation ``step``; returns keys removed.

    Deletion order makes a crash *during* the reap safe: the marker goes
    first (the generation atomically stops looking committed), then the
    manifest, then blobs -- so a half-reaped generation re-classifies as
    torn or orphaned, never as committed, and reaping is idempotent.
    """
    removed = 0
    ckey = commit_key(step)
    if store.exists(ckey):
        store.delete(ckey)
        removed += 1
    mkey = manifest_key(step)
    if store.exists(mkey):
        store.delete(mkey)
        removed += 1
    for key in store.list_keys(generation_prefix(step)):
        store.delete(key)
        removed += 1
    return removed


class GroupSealItem:
    """One generation awaiting :func:`_publish`: in a :func:`group_seal`
    batch, or alone in :meth:`CommitTransaction.seal`.

    ``store`` is the (possibly namespaced) store the generation's blobs
    were written under -- manifest and marker keys are built relative to
    it, so generations of *different tenants* (different namespace views
    over one physical store) batch together naturally.
    """

    __slots__ = ("store", "manifest", "marker")

    def __init__(self, store: Store, manifest: CheckpointManifest) -> None:
        if manifest.format_version < COMMIT_FORMAT_VERSION:
            raise CommitError(
                f"commits require manifest format_version >= "
                f"{COMMIT_FORMAT_VERSION}, got {manifest.format_version}"
            )
        self.store = store
        self.manifest = manifest
        self.marker: CommitMarker | None = None

    @property
    def step(self) -> int:
        return int(self.manifest.step)


def _publish(items: Sequence[GroupSealItem], barrier: Store) -> list[CommitMarker]:
    """Phases 2-4 for every item: manifests, barrier, markers, barrier.

    The one place a :class:`CommitMarker` is built and published.  A crash
    between the barriers can leave a subset of markers durable: those
    generations are committed *and complete* (their data cleared the
    first barrier); the rest are torn and reaped.  Markers come back in
    item order and are also stored on each item.
    """
    tracer = get_tracer()
    payloads: list[bytes] = []
    for item in items:
        payload = item.manifest.to_json()
        with tracer.span("ckpt.manifest_write", step=item.step):
            item.store.put(manifest_key(item.step), payload)
        payloads.append(payload)
    barrier.sync()
    for item, payload in zip(items, payloads):
        item.marker = CommitMarker(
            step=item.step,
            manifest_crc32=zlib.crc32(payload) & 0xFFFFFFFF,
            manifest_bytes=len(payload),
            n_entries=len(item.manifest.entries),
            n_parity=len(item.manifest.parity),
        )
        item.store.put(commit_key(item.step), item.marker.to_json())
    barrier.sync()
    return [item.marker for item in items]


def group_seal(
    items: list[GroupSealItem] | tuple[GroupSealItem, ...],
    *,
    barrier: Store,
    parent=None,
) -> list[CommitMarker]:
    """Seal many pending generations with two shared sync barriers.

    The group-commit path: :func:`_publish` over a batch, so the two
    durability barriers a :meth:`CommitTransaction.seal` pays for one
    generation are paid once for all of them -- the fsync amortization
    that lets a multi-tenant ingest service coalesce concurrent commits.
    ``barrier`` is the physical store whose :meth:`~Store.sync` makes
    every item durable (for namespaced views over one sharded store, the
    shared underlying store).  Per-generation atomicity is unchanged:
    each marker is published in one atomic ``put``, and only after the
    second barrier returns may any generation in the batch be
    acknowledged as committed.
    """
    if not items:
        return []
    seen: set[tuple[int, int]] = set()
    for item in items:
        ident = (id(item.store), item.step)
        if ident in seen:
            raise CommitError(
                f"group seal holds step {item.step} twice for the same store"
            )
        seen.add(ident)
    # ``parent`` threads the submitting request's trace context into this
    # worker thread, whose own span stack is empty (spans here would
    # otherwise surface as orphan roots in a stitched trace).
    with get_tracer().span(
        "ckpt.group_commit", parent=parent, n_generations=len(items)
    ) as sp:
        markers = _publish(items, barrier)
        sp.set(manifest_bytes=sum(m.manifest_bytes for m in markers))
    registry = get_registry()
    registry.counter("ckpt.commits").inc(len(items))
    registry.counter("ckpt.group_commits").inc()
    registry.histogram("ckpt.group_commit.batch").observe(len(items))
    return markers


class CommitJournal:
    """Factory for :class:`CommitTransaction`\\ s over one store.

    ``begin`` is where the crash-consistency contract starts: a step that
    is already *committed* is refused (overwriting published data is a
    protocol violation), while stale *uncommitted* leftovers at the same
    step -- the residue of this process's predecessor dying mid-commit --
    are reaped so the retry starts from a clean prefix.
    """

    def __init__(self, store: Store) -> None:
        self.store = store

    def begin(self, step: int) -> CommitTransaction:
        step = int(step)
        if step < 0:
            raise CommitError(f"step must be >= 0, got {step}")
        if is_committed(self.store, step):
            raise CommitError(
                f"checkpoint for step {step} already exists (committed); "
                f"delete it before rewriting"
            )
        stale = self.store.list_keys(generation_prefix(step))
        if stale:
            removed = reap_generation(self.store, step)
            get_registry().counter("ckpt.journal.stale_reaped").inc(removed)
        return CommitTransaction(self, step)
