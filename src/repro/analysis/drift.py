"""Restart error-drift experiment (paper Section IV-E, Fig. 10).

Protocol, exactly as the paper describes it: run the application for
``ckpt_step`` steps, write a lossy checkpoint, decompress it, and run an
*additional* ``extra_steps`` steps from the decompressed state while the
reference instance keeps running from the exact state.  The per-step mean
relative error of a chosen field between the two trajectories is the
Fig. 10 curve.

All trajectories (the reference and one lossy restart per configuration)
advance in lockstep so memory stays bounded by the number of live app
instances, not the number of recorded steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..config import CompressionConfig
from ..core.errors import mean_relative_error
from ..core.pipeline import WaveletCompressor
from ..exceptions import ConfigurationError
from ..apps.base import ProxyApp

__all__ = ["DriftResult", "error_drift_experiment", "lossy_roundtrip_state"]


@dataclass
class DriftResult:
    """Per-step error series of one drift experiment.

    Attributes
    ----------
    steps:
        Absolute application step numbers (x-axis of Fig. 10, starting at
        the restart step).
    series:
        label -> array of mean relative errors *in percent*, aligned with
        ``steps``.
    immediate_errors:
        label -> the error of the decompressed checkpoint itself, before
        any further stepping (the paper's "immediate error").
    field:
        Name of the compared state array.
    """

    steps: np.ndarray
    series: dict[str, np.ndarray]
    immediate_errors: dict[str, float]
    field: str


def lossy_roundtrip_state(
    state: Mapping[str, np.ndarray], config: CompressionConfig
) -> dict[str, np.ndarray]:
    """Push every float array of a snapshot through compress+decompress.

    Non-float arrays (step counters, flags) pass through unchanged, the
    same split the checkpoint manager applies.  Floating arrays that the
    pipeline cannot take directly are still lossy-compressed rather than
    silently skipped: non-native-endian float32/float64 are byteswapped to
    native before compression and the result carries the original dtype;
    float16 is promoted (exactly) to float32, compressed, and cast back.
    A snapshot that quietly bypassed compression would make the drift
    experiment report zero error for fields that were never lossy.
    """
    compressor = WaveletCompressor(config)
    native = {np.dtype(np.float64), np.dtype(np.float32)}
    out: dict[str, np.ndarray] = {}
    for name, arr in state.items():
        a = np.asarray(arr)
        if a.size < 2 or a.dtype.kind != "f":
            out[name] = np.array(a, copy=True)
        elif a.dtype in native:
            out[name] = compressor.decompress(compressor.compress(a))
        elif a.dtype.newbyteorder("=") in native:
            swapped = a.astype(a.dtype.newbyteorder("="))
            out[name] = compressor.decompress(
                compressor.compress(swapped)
            ).astype(a.dtype)
        elif a.dtype.newbyteorder("=") == np.dtype(np.float16):
            widened = a.astype(np.float32)  # exact: f16 embeds in f32
            out[name] = compressor.decompress(
                compressor.compress(widened)
            ).astype(a.dtype)
        else:
            raise ConfigurationError(
                f"state array {name!r} has unsupported floating dtype "
                f"{a.dtype}; the drift experiment refuses to pass it "
                "through uncompressed"
            )
    return out


def error_drift_experiment(
    app_factory: Callable[[], ProxyApp],
    ckpt_step: int,
    extra_steps: int,
    configs: Mapping[str, CompressionConfig],
    *,
    field: str = "temperature",
    record_every: int = 1,
) -> DriftResult:
    """Run the Fig. 10 protocol.

    Parameters
    ----------
    app_factory:
        Zero-argument callable returning a fresh, identically seeded app.
    ckpt_step:
        Steps to run before the lossy checkpoint (720 in the paper).
    extra_steps:
        Steps to run after the restart (1500 in the paper).
    configs:
        label -> compression configuration, one restarted trajectory each.
    field:
        Which state array the error series compares.
    record_every:
        Record one point per this many steps (1 reproduces the paper).
    """
    if ckpt_step < 0 or extra_steps < 1:
        raise ConfigurationError(
            "ckpt_step must be >= 0 and extra_steps >= 1, got "
            f"{ckpt_step}/{extra_steps}"
        )
    if record_every < 1:
        raise ConfigurationError(f"record_every must be >= 1, got {record_every}")
    if not configs:
        raise ConfigurationError("at least one configuration is required")

    reference = app_factory()
    for _ in range(ckpt_step):
        reference.step()
    snapshot = {k: np.array(v, copy=True) for k, v in reference.state_arrays().items()}
    if field not in snapshot:
        raise ConfigurationError(
            f"field {field!r} is not in the app state ({sorted(snapshot)})"
        )

    restarted: dict[str, ProxyApp] = {}
    immediate: dict[str, float] = {}
    for label, config in configs.items():
        app = app_factory()
        lossy = lossy_roundtrip_state(snapshot, config)
        app.load_state_arrays(lossy)
        if app.step_index != reference.step_index:
            # Apps that don't carry the counter in state resume manually.
            app.step_index = reference.step_index
        restarted[label] = app
        immediate[label] = (
            mean_relative_error(snapshot[field], lossy[field]) * 100.0
        )

    steps: list[int] = []
    series: dict[str, list[float]] = {label: [] for label in configs}
    for k in range(extra_steps):
        reference.step()
        for label, app in restarted.items():
            app.step()
        if (k + 1) % record_every == 0:
            ref_field = reference.state_arrays()[field]
            steps.append(reference.step_index)
            for label, app in restarted.items():
                err = mean_relative_error(
                    ref_field, app.state_arrays()[field]
                )
                series[label].append(err * 100.0)

    return DriftResult(
        steps=np.asarray(steps, dtype=np.int64),
        series={k: np.asarray(v, dtype=np.float64) for k, v in series.items()},
        immediate_errors=immediate,
        field=field,
    )
