"""BENCH-F — throughput of the statistical fidelity metric kernels.

Times one full :func:`repro.metrics.fidelity.fidelity_panel` evaluation
(Pearson + two-sample KS + IQR-normalized errors) over a large synthetic
exact/approx pair and reports element throughput.  The fidelity study
evaluates the panel for every lossy grid cell, so the panel must stay
vectorized — a per-element regression would dominate small-scale sweeps.

Two pairs are timed: a noisy normal pair with almost no repeated values,
and a pair quantized to a 2**-7 grid whose values repeat heavily, as NN's
records do.  Full mode times ~4M-element pairs; ``--fidelity-quick`` is
the CI smoke mode (1M elements, relaxed floor).  The measured throughputs
are recorded ``gate=False`` — absolute, machine-dependent numbers, useful
as a trajectory but meaningless to gate across runner generations.
"""

from __future__ import annotations

import time

import numpy as np

from repro.metrics.fidelity import fidelity_panel

#: elements in the synthetic pair (full / quick mode)
FULL_ELEMS = 4 * 1024 * 1024
QUICK_ELEMS = 1024 * 1024

#: sanity floors in Melem/s — a vectorized panel clears these by an order
#: of magnitude; only a fallback into per-element Python could miss them
FULL_FLOOR = 1.0
QUICK_FLOOR = 0.5


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_panel(benchmark, bench_record, fidelity_quick, label, metric, exact, approx):
    """Time one panel over ``exact``/``approx``, record and floor-check it."""
    n = exact.size
    floor = QUICK_FLOOR if fidelity_quick else FULL_FLOOR
    best_s = _time(lambda: fidelity_panel(exact, approx))
    melems = n / best_s / 1e6
    print(
        f"\nBENCH-F — fidelity panel over {n / 1e6:.0f}M {label} elements: "
        f"{best_s * 1e3:.1f} ms, {melems:.1f} Melem/s (floor {floor} Melem/s)"
    )
    suffix = "_quick" if fidelity_quick else ""
    bench_record(f"{metric}{suffix}", melems, unit="Melem/s", gate=False)

    benchmark.pedantic(lambda: fidelity_panel(exact, approx), rounds=3, iterations=1)

    assert melems >= floor, (
        f"fidelity panel only {melems:.2f} Melem/s (floor {floor}) — "
        "did a metric fall back to per-element Python?"
    )


def test_bench_fidelity_panel_throughput(benchmark, fidelity_quick, bench_record):
    """fidelity_panel throughput over a noisy synthetic pair."""
    n = QUICK_ELEMS if fidelity_quick else FULL_ELEMS
    rng = np.random.default_rng(2019)
    exact = rng.normal(size=n).astype(np.float32)
    approx = exact + rng.normal(scale=0.01, size=n).astype(np.float32)
    _bench_panel(
        benchmark, bench_record, fidelity_quick, "noisy", "fidelity_melems_per_s",
        exact, approx,
    )


def test_bench_fidelity_panel_throughput_quantized(
    benchmark, fidelity_quick, bench_record
):
    """fidelity_panel throughput over a pair on a 2**-7 grid.

    Like NN's records, the values repeat heavily: a few thousand distinct
    values among millions, which is what the KS statistic's run-end
    probing exploits and the noisy pair cannot show.
    """
    n = QUICK_ELEMS if fidelity_quick else FULL_ELEMS
    rng = np.random.default_rng(2019)
    grid = 2.0**-7
    exact = (np.round(rng.normal(scale=4.0, size=n) / grid) * grid).astype(np.float32)
    approx = exact + (rng.integers(-1, 2, size=n) * grid).astype(np.float32)
    _bench_panel(
        benchmark, bench_record, fidelity_quick, "quantized",
        "fidelity_melems_per_s_quantized", exact, approx,
    )
