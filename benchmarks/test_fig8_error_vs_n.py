"""Figure 8 (and Section IV-C's all-array ranges) -- relative error vs n.

Paper values for the temperature array: simple quantization improves from
0.74 % (n=1) to 0.025 % (n=128) average relative error; proposed from
0.49 % to 0.0056 %.  Across *all* arrays the paper reports average errors
0.0053-14.56 % (simple) vs 0.0004-1.19 % (proposed), and maximum errors
0.048-56.84 % vs 0.0022-5.94 %.

Claims to reproduce: error falls steeply with n; the proposed method beats
the simple one at every n, by roughly an order of magnitude at large n;
and the improvement is most dramatic in the *maximum* error.
"""

from __future__ import annotations

from repro import CompressionConfig, WaveletCompressor
from repro.analysis.tables import render_series, render_table
from repro.core.errors import max_relative_error, mean_relative_error

from _util import save_and_print

DIVISION_NUMBERS = (1, 2, 4, 8, 16, 32, 64, 128)
PAPER_ENDPOINTS = {"simple": (0.74, 0.025), "proposed": (0.49, 0.0056)}


def sweep_errors(temperature) -> dict[str, list[float]]:
    errors: dict[str, list[float]] = {"simple": [], "proposed": []}
    for quantizer in errors:
        for n in DIVISION_NUMBERS:
            comp = WaveletCompressor(CompressionConfig(n_bins=n, quantizer=quantizer))
            approx = comp.decompress(comp.compress(temperature))
            errors[quantizer].append(mean_relative_error(temperature, approx) * 100)
    return errors


def all_array_ranges(climate_state) -> dict[str, tuple[float, float]]:
    """min/max over the five arrays of mean and max relative error, n=128."""
    out = {}
    for quantizer in ("simple", "proposed"):
        comp = WaveletCompressor(CompressionConfig(n_bins=128, quantizer=quantizer))
        means, maxes = [], []
        for arr in climate_state.values():
            approx = comp.decompress(comp.compress(arr))
            means.append(mean_relative_error(arr, approx) * 100)
            maxes.append(max_relative_error(arr, approx) * 100)
        out[f"{quantizer}-mean"] = (min(means), max(means))
        out[f"{quantizer}-max"] = (min(maxes), max(maxes))
    return out


def test_fig8_error_vs_n(benchmark, temperature, climate_state):
    errors = benchmark.pedantic(
        sweep_errors, args=(temperature,), rounds=1, iterations=1
    )
    text = render_series(
        DIVISION_NUMBERS,
        {
            "simple [%]": errors["simple"],
            "proposed [%]": errors["proposed"],
        },
        x_label="n",
        floatfmt=".5f",
        title=(
            "Fig. 8: average relative error vs division number\n"
            f"paper endpoints: simple {PAPER_ENDPOINTS['simple'][0]} -> "
            f"{PAPER_ENDPOINTS['simple'][1]} %, proposed "
            f"{PAPER_ENDPOINTS['proposed'][0]} -> {PAPER_ENDPOINTS['proposed'][1]} %"
        ),
    )

    ranges = all_array_ranges(climate_state)
    paper_rows = [
        ["simple avg err", "0.0053 - 14.56", f"{ranges['simple-mean'][0]:.4f} - {ranges['simple-mean'][1]:.4f}"],
        ["simple max err", "0.048 - 56.84", f"{ranges['simple-max'][0]:.4f} - {ranges['simple-max'][1]:.4f}"],
        ["proposed avg err", "0.0004 - 1.19", f"{ranges['proposed-mean'][0]:.4f} - {ranges['proposed-mean'][1]:.4f}"],
        ["proposed max err", "0.0022 - 5.94", f"{ranges['proposed-max'][0]:.4f} - {ranges['proposed-max'][1]:.4f}"],
    ]
    text += "\n\n" + render_table(
        ["quantity (n=128, all arrays)", "paper range [%]", "measured range [%]"],
        paper_rows,
        title="Section IV-C: error ranges across all five arrays",
    )
    save_and_print("fig8_error_vs_n", text)

    simple, proposed = errors["simple"], errors["proposed"]
    # Error falls steeply as n grows (well over an order of magnitude).
    assert simple[-1] < simple[0] / 10
    assert proposed[-1] < proposed[0] / 10
    # Monotone non-increasing trend.
    assert all(b <= a * 1.2 for a, b in zip(simple, simple[1:]))
    # Proposed beats simple at every n ...
    assert all(p <= s for s, p in zip(simple, proposed))
    # ... and the max-error improvement across arrays is pronounced.
    assert ranges["proposed-max"][1] < ranges["simple-max"][1]
