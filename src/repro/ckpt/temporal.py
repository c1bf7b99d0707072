"""Temporal delta compression across checkpoint generations.

The paper's Section V dismisses incremental checkpointing because mesh
data changes everywhere every step -- but consecutive generations remain
highly *correlated*.  Following the temporal-compression literature
(PAPERS.md: "Parallel Implementation of Lossy Data Compression for
Temporal Data Sets"), this module predicts generation ``N`` from the
reconstruction of generation ``N-1`` and stores only the quantized
prediction residual:

    pred   = P(recon[N-1])              # "previous" or wavelet low band
    q      = rint((x[N] - pred) / 2eb)  # bounded uniform quantization
    recon  = pred + q * 2eb             # |x - recon| <= eb, guaranteed

Because the predictor consumes the *decoded* previous generation (the
same bytes a restore would produce), the error bound holds per
generation and never compounds along the chain -- the compressor tracks
exactly the drift a restarted run would see.

Keyframes
---------
Chains cannot grow unboundedly (restore must replay every link) and a
predictor can go bad (turbulent fields, restarted physics).  A fresh
self-contained keyframe -- the bounded-quantizer wavelet pipeline blob,
decodable by :func:`repro.ckpt.manager.deserialize_array` -- is forced
when any of these trips:

* ``chain-limit``: ``keyframe_every`` generations since the last keyframe;
* ``overflow``: a residual index falls outside int32;
* ``drift``: the measured reconstruction error exceeds the bound (plus
  ``drift_slack`` for float rounding);
* ``inflation``: the encoded delta would be at least as large as the raw
  array.

Residual filter
---------------
The residual indices are still a smooth field in *space*, which a
zeroth-order entropy coder cannot see.  Before they reach the container
they may therefore pass a lossless spatial filter -- the first difference
along one axis, in wrapping arithmetic of the index dtype (the Lorenzo
predictor of SZ, PAPERS.md, cut down to one neighbour) -- after which the
deflate stage's per-segment probe settles on Huffman-only coding by
itself.  :func:`choose_filter` picks the axis (or none) per array from an
entropy estimate over a fixed sample of the indices; the choice is
recorded in the blob header and :func:`decode_delta` undoes it before
prediction, so reconstructions are bit-for-bit those of the unfiltered
path.  DESIGN.md section 13 has the measurements.

Crash consistency
-----------------
:meth:`TemporalEngine.encode` never mutates committed predictor state; it
stages the new reconstruction and only :meth:`TemporalEngine.commit` --
called by the manager *after* the two-phase commit journal publishes the
generation -- promotes it.  A crash mid-commit therefore leaves the
engine predicting from the last *committed* generation, matching what
recovery will find in the store.

Restore start point
-------------------
The engine records, with every reconstruction it holds, the chain it came
from: ``(step, crc32, stored_bytes)`` of each link from its keyframe on.
Next to it the engine keeps the **chain root**, the reconstruction of the
last keyframe it held: it stays while later deltas move the held
generation on, and goes before the next keyframe of that array is
compressed.  A restore whose walked chain starts with either chain
(:meth:`TemporalEngine.resume_point`) decodes only the links past it;
every link is still read and verified.  The engine owns its buffers:
:meth:`TemporalEngine.seed` copies, so an application that keeps and
mutates what a restore handed it cannot move the predictor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from ..config import (
    PREDICTOR_LOWBAND,
    PREDICTOR_PREVIOUS,
    TemporalConfig,
)
from ..core import container
from ..core.bands import high_band_mask
from ..core.pipeline import WaveletCompressor
from ..core.wavelet import wavelet_forward, wavelet_inverse
from ..exceptions import (
    CheckpointError,
    CheckpointNotFoundError,
    CorruptionError,
    FormatError,
    NonFiniteDataError,
)
from ..obs.metrics import get_registry

__all__ = [
    "DELTA_KIND",
    "CODEC_DELTA",
    "CODEC_KEYFRAME",
    "FILTER_NONE",
    "ChainLink",
    "EncodedGeneration",
    "TemporalEngine",
    "choose_filter",
    "decode_delta",
    "filter_label",
    "predict",
]

#: Container-header ``kind`` of a temporal residual blob.
DELTA_KIND = "temporal-delta"
#: Manifest codec name of a delta generation (chained restore required).
CODEC_DELTA = "temporal-delta"
#: Manifest codec name of a keyframe (self-contained wavelet-lossy blob).
CODEC_KEYFRAME = "temporal-keyframe"

_INDEX_DTYPES = (np.dtype(np.int8), np.dtype(np.int16), np.dtype(np.int32))

#: Section holding the residual indices as quantized.
_SEC_INDICES = "indices"
#: Section holding them after the spatial filter.  A different name, so a
#: reader that predates the filter fails loudly ("missing its indices
#: section") instead of reconstructing from differences.
_SEC_FILTERED = "filtered"
_FILTER_DELTA = "delta"
#: The ``filter`` record of an unfiltered delta (manifest, spans; a blob
#: header simply has no ``filter`` key).
FILTER_NONE: dict[str, Any] = {"kind": "none"}

#: :func:`choose_filter` estimates on this many runs of this many
#: consecutive (C-order) indices, spread evenly over the array.
_SAMPLE_RUNS = 64
_SAMPLE_RUN_ITEMS = 128
#: A filter must lower the estimate by more than this share to be worth
#: its undo on every restore (and to stay clear of sampling noise).
_FILTER_MIN_GAIN = 1.0 / 16.0


#: One link of a delta chain as the store holds it: ``(step, crc32,
#: stored_bytes)`` of its blob.  A chain lists its links keyframe first.
ChainLink = tuple[int, int, int]


def predict(
    prev_recon: np.ndarray, predictor: str, lowband_levels: int
) -> np.ndarray:
    """The float64 prediction of the next generation from ``prev_recon``.

    Pure function of the previous reconstruction, the ``predictor`` and the
    ``"lowband"`` predictor's decomposition depth -- the three a delta
    header records -- so the encoder and every future decoder compute
    bit-identical predictions.
    Read-only for the caller: with ``predictor="previous"`` and a float64
    ``prev_recon`` the prediction *is* that array, not a copy of it.
    """
    prev = np.asarray(prev_recon, dtype=np.float64)
    if predictor == PREDICTOR_PREVIOUS:
        return prev
    assert predictor == PREDICTOR_LOWBAND
    coeffs, applied = wavelet_forward(prev, lowband_levels, "haar")
    coeffs[high_band_mask(coeffs.shape, applied)] = 0.0
    return wavelet_inverse(coeffs, applied, "haar")


#: :func:`_max_abs_error` measures this many items at a time.
_ERR_BLOCK_ITEMS = 1 << 15


def _max_abs_error(x: np.ndarray, recon: np.ndarray) -> float:
    """``max |x - recon|`` in float64, bit for bit what
    ``np.abs(x.astype(np.float64) - recon.astype(np.float64)).max()``
    gives (0.0 for an empty array), through one block-sized scratch buffer
    instead of three full-array temporaries."""
    xs, rs = x.reshape(-1), recon.reshape(-1)
    scratch = np.empty(min(xs.size, _ERR_BLOCK_ITEMS), dtype=np.float64)
    peak = 0.0
    for start in range(0, xs.size, _ERR_BLOCK_ITEMS):
        block = scratch[: min(_ERR_BLOCK_ITEMS, xs.size - start)]
        end = start + block.size
        np.subtract(xs[start:end], rs[start:end], out=block, dtype=np.float64)
        peak = float(np.maximum(peak, np.abs(block, out=block).max()))  # NaN wins
    return peak


def _index_dtype_for(max_abs_index: float) -> np.dtype | None:
    for dt in _INDEX_DTYPES:
        if max_abs_index <= np.iinfo(dt).max:
            return dt
    return None


def _coded_bits(sample: np.ndarray) -> float:
    """Bits a Huffman coder needs for ``sample`` as the container stores
    it: per byte plane, the zeroth-order entropy of its histogram, but
    never under the one bit per symbol a Huffman code cannot go below."""
    planes = sample.view(np.uint8).reshape(sample.size, sample.dtype.itemsize)
    bits = 0.0
    for k in range(planes.shape[1]):
        counts = np.bincount(planes[:, k], minlength=256)
        counts = counts[counts > 0]
        entropy = float((counts * np.log2(sample.size / counts)).sum())
        bits += max(entropy, float(sample.size))
    return bits


def choose_filter(q: np.ndarray) -> int | None:
    """The axis whose first difference codes ``q`` smallest, or None.

    Every candidate is costed by :func:`_coded_bits` on the same sample:
    ``_SAMPLE_RUNS`` runs of ``_SAMPLE_RUN_ITEMS`` consecutive indices,
    evenly spaced from the first to the last element (all of ``q`` when it
    is no longer than that), each taken exactly as the filter would store
    it.  Unfiltered wins unless an axis beats it by ``_FILTER_MIN_GAIN``;
    among axes the lowest estimate, then the lowest axis.  A pure function
    of ``q``: the emitted blob is reproducible across runs and processes.
    """
    flat = q.reshape(-1)
    n = flat.size
    sample_items = _SAMPLE_RUNS * _SAMPLE_RUN_ITEMS
    position_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    if n <= sample_items:
        pos = np.arange(n, dtype=position_dtype)
    else:
        starts = np.arange(_SAMPLE_RUNS) * (n - _SAMPLE_RUN_ITEMS) // (_SAMPLE_RUNS - 1)
        pos = (starts[:, None] + np.arange(_SAMPLE_RUN_ITEMS)).ravel()
        pos = pos.astype(position_dtype)
    here = flat[pos]
    unfiltered = _coded_bits(here)
    best, best_axis = unfiltered * (1.0 - _FILTER_MIN_GAIN), None
    stride = n
    for axis, length in enumerate(q.shape):
        if length < 2:
            continue  # nothing to difference (also keeps stride off 0 // 0)
        stride //= length
        # the first item along the axis is stored as is
        has_neighbour = (pos // position_dtype(stride)) % position_dtype(length) > 0
        filtered = here.copy()
        filtered[has_neighbour] -= flat[pos[has_neighbour] - stride]
        bits = _coded_bits(filtered)
        if bits < best:
            best, best_axis = bits, axis
    return best_axis


def _apply_filter(q: np.ndarray, axis: int) -> np.ndarray:
    """First difference of ``q`` along ``axis`` in the wrapping arithmetic
    of its dtype; the first item along the axis stays."""
    lead = (slice(None),) * axis
    out = q.copy()
    np.subtract(
        q[lead + (slice(1, None),)],
        q[lead + (slice(None, -1),)],
        out=out[lead + (slice(1, None),)],
    )
    return out


def _undo_filter(filtered: np.ndarray, axis: int) -> np.ndarray:
    """Inverse of :func:`_apply_filter`: a running sum in the same
    wrapping arithmetic, so every wrap of the forward pass wraps back."""
    return np.add.accumulate(filtered, axis=axis, dtype=filtered.dtype)


def filter_label(spec: dict[str, Any]) -> str:
    """A ``filter`` record as one word: ``"none"``, ``"delta:0"``."""
    return spec["kind"] if "axis" not in spec else f"{spec['kind']}:{spec['axis']}"


def _filter_axis(header: dict[str, Any], ndim: int) -> int | None:
    """The axis a delta header says to undo (None: unfiltered blob)."""
    spec = header.get("filter")
    if spec is None:
        return None
    if not isinstance(spec, dict) or spec.get("kind") != _FILTER_DELTA:
        raise FormatError(f"temporal delta names an unknown filter: {spec!r}")
    axis = spec.get("axis")
    if type(axis) is not int or not 0 <= axis < ndim:
        raise FormatError(
            f"temporal delta filter axis must be an int in [0, {ndim}), "
            f"got {axis!r}"
        )
    return axis


@dataclass(frozen=True)
class EncodedGeneration:
    """What the engine produced for one array of one generation."""

    name: str
    step: int
    codec: str  # CODEC_DELTA or CODEC_KEYFRAME
    params: dict[str, Any]  # manifest codec_params (JSON-safe scalars)
    blob: bytes
    reason: str  # why this kind was chosen (e.g. "delta", "chain-limit")
    chain_index: int  # 0 for keyframes, links since keyframe otherwise
    max_error: float  # measured |x - recon| over the array
    #: residual filter of a delta (``FILTER_NONE`` or ``{"kind": "delta",
    #: "axis": k}``); None for keyframes, which hold no residual
    filter: dict[str, Any] | None = None

    @property
    def is_keyframe(self) -> bool:
        return self.codec == CODEC_KEYFRAME


def _encode_delta(
    arr: np.ndarray,
    prev_recon: np.ndarray,
    base_step: int,
    chain_index: int,
    config: TemporalConfig,
) -> (
    tuple[bytes, np.ndarray, str, float, dict[str, Any]]
    | tuple[None, None, str, float, None]
):
    """Try to encode ``arr`` as a residual against ``prev_recon``.

    Returns ``(blob, recon, "delta", max_error, filter)`` on success, or
    ``(None, None, fallback_reason, max_error, None)`` when a keyframe
    must be written instead.
    """
    eb = float(config.error_bound)
    pred = predict(prev_recon, config.predictor, config.lowband_levels)
    arr64 = arr.astype(np.float64, copy=False)
    # One float64 buffer holds q, then (in place, once the indices are
    # taken) the reconstruction: the decoder's operations in its order.
    q = arr64 - pred
    q /= 2.0 * eb
    np.rint(q, out=q)
    max_q = float(max(q.max(), -q.min())) if q.size else 0.0
    index_dtype = _index_dtype_for(max_q)
    if index_dtype is None:
        return None, None, "overflow", float("inf"), None
    indices = q.astype(index_dtype)
    q *= 2.0 * eb
    q += pred
    recon = q.astype(arr.dtype, copy=False)
    max_error = _max_abs_error(arr, recon)
    if max_error > eb * (1.0 + config.drift_slack):
        return None, None, "drift", max_error, None
    header = {
        "kind": DELTA_KIND,
        "shape": list(arr.shape),
        "dtype": arr.dtype.str,
        "base_step": int(base_step),
        "chain_index": int(chain_index),
        "predictor": config.predictor,
        "lowband_levels": int(config.lowband_levels),
        "error_bound": eb,
        "index_dtype": index_dtype.str,
    }
    axis = choose_filter(indices)
    if axis is None:
        spec = dict(FILTER_NONE)  # lands in a manifest: never the shared one
        sections = {_SEC_INDICES: indices}
    else:
        spec = header["filter"] = {"kind": _FILTER_DELTA, "axis": axis}
        sections = {_SEC_FILTERED: _apply_filter(indices, axis)}
    body = container.write_body(header, sections)
    blob = container.wrap_envelope(body, config.codec, config.codec_level)
    if len(blob) >= arr.nbytes:
        return None, None, "inflation", max_error, None
    return blob, recon, "delta", max_error, spec


def decode_delta(
    blob: bytes,
    prev_recon: np.ndarray,
    *,
    unseal: Callable[[bytes], tuple[dict, dict]] | None = None,
) -> np.ndarray:
    """Reconstruct a generation from its delta blob and the decoded
    previous generation.

    Bit-identical to the reconstruction the encoder staged: both sides
    run :func:`predict` on the same decoded previous generation and the
    same deterministic float64 arithmetic.  ``unseal(blob)`` yields the
    blob's ``(header, sections)``, as for ``WaveletCompressor.decompress``:
    a link's inflate needs nothing of the previous generation, so a caller
    may have run it elsewhere while that one was still being decoded.
    """
    header, sections = (unseal or WaveletCompressor.unseal)(blob)
    if header.get("kind") != DELTA_KIND:
        raise FormatError(
            f"not a temporal delta blob (kind={header.get('kind')!r})"
        )
    shape = container.header_shape(header, what="temporal delta")
    try:
        dtype = np.dtype(header["dtype"])
        index_dtype = np.dtype(header["index_dtype"])
        eb = float(header["error_bound"])
        predictor = str(header["predictor"])
        lowband_levels = int(header["lowband_levels"])
        TemporalConfig(error_bound=eb, predictor=predictor)  # refuses bad ones
        if lowband_levels < 1:
            raise ValueError(f"lowband_levels must be >= 1, got {lowband_levels}")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"temporal delta header is malformed: {exc}") from exc
    if index_dtype not in _INDEX_DTYPES:
        raise FormatError(f"unsupported temporal delta index dtype {index_dtype}")
    axis = _filter_axis(header, len(shape))
    prev = np.asarray(prev_recon)
    if tuple(prev.shape) != shape:
        raise FormatError(
            f"temporal delta was encoded against shape {shape}, but the "
            f"previous generation decoded to {tuple(prev.shape)}"
        )
    if prev.dtype != dtype:  # the encoder writes a keyframe on any dtype change
        raise FormatError(
            f"temporal delta was encoded against dtype {dtype}, but the "
            f"previous generation decoded to {prev.dtype}"
        )
    q = container.section_array(
        sections, _SEC_INDICES if axis is None else _SEC_FILTERED, index_dtype,
        what="temporal delta", count=math.prod(shape),
    ).reshape(shape)
    if axis is not None:
        q = _undo_filter(q, axis)
    # q * 2eb + pred in one float64 buffer: the encoder's operations in its
    # order (IEEE addition commutes), without its full-array temporaries
    recon = q.astype(np.float64)
    recon *= 2.0 * eb
    recon += predict(prev, predictor, lowband_levels)
    return recon.astype(dtype, copy=False)


class _Held(NamedTuple):
    """The engine's state of one array: a generation's reconstruction."""

    step: int
    chain_index: int
    recon: np.ndarray
    #: the links ``recon`` decodes from, keyframe first (None: not known).
    #: Staged, only the links before this generation's own blob.
    chain: tuple[ChainLink, ...] | None


class TemporalEngine:
    """Per-array temporal delta encoder with staged (transactional) state.

    One engine serves one checkpoint stream: it remembers, for every
    array name, the reconstruction, chain position and chain of the last
    *committed* (or restored) generation, and of the last keyframe it
    held.  ``encode`` stages; ``commit`` promotes; anything staged for a
    generation that never commits is discarded.  ``encode`` calls for distinct names may run concurrently
    on different threads; ``commit``, ``rollback`` and ``seed`` run when
    none is.  The held reconstructions are the engine's own buffers:
    callers read them and never write into them.
    """

    def __init__(self, config: TemporalConfig) -> None:
        if not isinstance(config, TemporalConfig):
            raise CheckpointError(
                f"config must be a TemporalConfig, got {type(config).__name__}"
            )
        self.config = config
        self._keyframe_config = config.keyframe_config()
        # name -> the last committed generation
        self._state: dict[str, _Held] = {}
        # name -> the generation staged by encode()
        self._pending: dict[str, _Held] = {}
        # name -> the last keyframe held (its chain is that one link)
        self._roots: dict[str, _Held] = {}

    # -- eligibility -----------------------------------------------------------

    @staticmethod
    def eligible(arr: np.ndarray) -> bool:
        """Can this array go through the temporal path at all?

        Mirrors the lossy pipeline's domain: native float32/float64 with
        at least two elements (anything else takes the manager's normal
        lossless route).
        """
        a = np.asarray(arr)
        return (
            a.dtype in (np.dtype(np.float32), np.dtype(np.float64))
            and a.ndim >= 1
            and a.size >= 2
        )

    # -- write -----------------------------------------------------------------

    def keyframe_reason(self, name: str, arr: np.ndarray) -> str | None:
        """Why :meth:`encode` writes ``arr`` as a keyframe whatever its
        values, or None where it tries a delta first."""
        prev = self._state.get(name)
        if prev is None:
            return "initial"
        if prev.recon.shape != arr.shape or prev.recon.dtype != arr.dtype:
            return "shape-changed"
        if prev.chain_index + 1 >= self.config.keyframe_every:
            return "chain-limit"
        return None

    def encode(self, name: str, arr: np.ndarray, step: int) -> EncodedGeneration:
        """Encode one array for generation ``step`` (staged, not committed)."""
        a = np.ascontiguousarray(arr)
        if not self.eligible(a):
            raise CheckpointError(
                f"array {name!r} ({a.dtype}, shape {a.shape}) is not "
                "eligible for temporal compression; route it through the "
                "lossless path instead"
            )
        if a.size and not np.isfinite(a).all():
            raise NonFiniteDataError(
                f"array {name!r} holds NaN/Inf; the temporal path shares "
                "the lossy pipeline's finite-data domain"
            )
        prev = self._state.get(name)
        blob = recon = spec = None
        max_error = 0.0
        reason = self.keyframe_reason(name, a)
        if reason is None:
            blob, recon, reason, max_error, spec = _encode_delta(
                a, prev.recon, prev.step, prev.chain_index + 1, self.config
            )
        if blob is not None:
            assert prev is not None and recon is not None
            chain_index = prev.chain_index + 1
            base_chain = prev.chain
            params = {
                "base_step": int(prev.step),
                "chain_index": chain_index,
                "error_bound": float(self.config.error_bound),
                "predictor": self.config.predictor,
                "lowband_levels": int(self.config.lowband_levels),
                "filter": spec,
            }
            encoded = EncodedGeneration(
                name=name, step=int(step), codec=CODEC_DELTA, params=params,
                blob=blob, reason=reason, chain_index=chain_index,
                max_error=max_error, filter=spec,
            )
        else:
            # the old root goes first: a keyframe write holds no extra array
            self._roots.pop(name, None)
            # a compressor per keyframe: its wavelet scratch is not shared
            # with an encode of another array running on another thread
            blob = WaveletCompressor(self._keyframe_config).compress(a)
            # Reconstruct through the *decode* path so the staged state is
            # bit-identical to what any future restore will produce.
            recon = WaveletCompressor.decompress(blob)
            max_error = _max_abs_error(a, recon)
            params = {
                "chain_index": 0,
                "error_bound": float(self.config.error_bound),
                "reason": reason,
            }
            encoded = EncodedGeneration(
                name=name, step=int(step), codec=CODEC_KEYFRAME, params=params,
                blob=blob, reason=reason, chain_index=0, max_error=max_error,
            )
            base_chain = ()
        self._pending[name] = _Held(int(step), encoded.chain_index, recon, base_chain)
        return encoded

    def commit(
        self, step: int, landed: Mapping[str, tuple[int, int]] | None = None
    ) -> None:
        """Promote everything staged for ``step``; drop stale stagings.

        ``landed`` maps a name to the ``(crc32, stored_bytes)`` of the blob
        that landed for it: its link closes the chain the promoted state
        records (a name it lacks is promoted with no chain).
        """
        landed = landed or {}
        for name, held in self._pending.items():
            if held.step == int(step):
                chain = None
                if held.chain is not None and name in landed:
                    chain = (*held.chain, (held.step, *landed[name]))
                self._hold(name, held._replace(chain=chain))
        self._pending.clear()
        self._report()

    def _hold(self, name: str, held: _Held) -> None:
        self._state[name] = held
        if held.chain is not None and len(held.chain) == 1:
            self._roots[name] = held  # a keyframe: the same buffer, not a copy

    def _report(self) -> None:
        """Gauge ``ckpt.temporal.held_bytes``: every buffer held, once."""
        held = {id(h.recon): h.recon.nbytes for h in (*self._state.values(), *self._roots.values())}
        get_registry().gauge("ckpt.temporal.held_bytes").set(sum(held.values()))

    def rollback(self) -> None:
        """Discard staged state (the generation did not commit)."""
        self._pending.clear()

    # -- seeding ---------------------------------------------------------------

    def seed(
        self, step: int, arrays: Mapping[str, np.ndarray],
        chain_indices: Mapping[str, int],
        chains: Mapping[str, tuple[ChainLink, ...]] | None = None,
    ) -> None:
        """Adopt committed generation ``step`` as the prediction base.

        Used when a fresh writer process continues an existing store's
        chain, and after ``restore()`` rewinds the application: arrays
        are the *decoded* generation (exactly the reconstructions the
        encoder would have staged), chain positions come from the
        manifest so ``keyframe_every`` keeps counting correctly, and
        ``chains`` are the links each array was decoded from.  The arrays
        are copied (the caller keeps its own); a name whose chain is the
        one already held, or its root's, keeps that buffer, which holds
        those values.  A keyframe becomes the name's root.
        """
        self._pending.clear()
        chains = chains or {}
        held, self._state = self._state, {}
        for name, arr in arrays.items():
            if not self.eligible(arr):
                continue
            chain = chains.get(name)
            # the old held buffer is freed before any copy is made
            kept = [
                h.recon for h in (held.pop(name, None), self._roots.get(name))
                if h is not None and chain is not None and h.chain == chain
            ]
            recon = kept[0] if kept else np.array(arr, order="C")
            self._hold(name, _Held(int(step), int(chain_indices.get(name, 0)), recon, chain))
        self._report()

    def reset(self) -> None:
        """Forget all state: the next generation writes keyframes."""
        self._state.clear()
        self._pending.clear()
        self._roots.clear()
        self._report()

    def committed_recon(self, name: str) -> np.ndarray | None:
        """The committed reconstruction of ``name`` -- bit-identical to
        what a chained restore of the last committed generation decodes."""
        entry = self._state.get(name)
        return None if entry is None else entry.recon

    def resume_point(
        self, name: str, chain: tuple[ChainLink, ...]
    ) -> tuple[int, np.ndarray | None, str]:
        """Where a restore of ``name`` through ``chain`` (its links,
        keyframe first) may start: how many leading links a reconstruction
        the engine holds already decodes, that reconstruction, and which
        one it is -- the longer prefix of ``chain`` of the ``"held"``
        generation's chain and the ``"root"``'s, or ``(0, None, "none")``.
        The array is the engine's: read it, never write into it."""
        best: tuple[int, np.ndarray | None, str] = (0, None, "none")
        for source, entry in (("held", self._state.get(name)), ("root", self._roots.get(name))):
            links = 0 if entry is None or entry.chain is None else len(entry.chain)
            if links > best[0] and chain[:links] == entry.chain:
                best = (links, entry.recon, source)
        return best


def chain_closure(
    read_manifest: Any, steps: list[int]
) -> set[int]:
    """Every generation the delta chains of ``steps`` depend on.

    ``read_manifest`` is a callable mapping a step to its committed
    :class:`~repro.ckpt.manifest.CheckpointManifest`, raising
    :class:`~repro.exceptions.CheckpointNotFoundError` for a step that is
    not committed.  Used by retention pruning: a retained generation's
    restore must be able to walk its chain back to a keyframe, so the
    closure is off-limits.
    """
    needed: set[int] = set()
    frontier = [int(s) for s in steps]
    while frontier:
        step = frontier.pop()
        if step in needed:
            continue
        needed.add(step)
        try:
            manifest = read_manifest(step)
        except CheckpointNotFoundError as exc:
            raise CorruptionError(
                f"cannot read manifest of generation {step} while resolving "
                f"delta chains: {exc}"
            ) from exc
        for entry in manifest.entries:
            if entry.codec == CODEC_DELTA:
                base = entry.codec_params.get("base_step")
                if base is None:
                    raise CorruptionError(
                        f"delta entry {entry.name!r} of generation {step} "
                        "records no base_step; the manifest is inconsistent"
                    )
                frontier.append(int(base))
    return needed
