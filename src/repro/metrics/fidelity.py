"""Statistical fidelity metrics for lossy-compressed data.

The paper judges each benchmark by one application-specific error number
(Table III).  Real users of lossy compression — the science-data community
in particular — additionally judge the *data itself* with distribution- and
correlation-level statistics; this module provides the three the enstools
compression suite standardizes on, fully vectorized:

* **Pearson correlation** between the exact and degraded values — linear
  association, 1.0 for undamaged data.
* **Two-sample Kolmogorov–Smirnov statistic** — the maximum distance
  between the two empirical CDFs, 0.0 for identical value distributions.
* **IQR-normalized error** — per-element absolute error normalized by the
  interquartile range of the exact data (a robust scale, insensitive to
  outliers), reported as mean and max.

All functions accept array-likes of any shape (values are compared
element-wise / as flattened samples), raise ``ValueError`` on empty inputs,
shape mismatches and non-finite values, and are deterministic — the golden
suite pins them bit-exactly through the simulator.  Memory stays bounded
by a few copies of one input: :func:`fidelity_panel` validates (and casts)
each pair once, and the KS statistic probes the empirical CDFs in slices
of :data:`KS_PROBE_ROWS` values.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

#: values per probe slice of the KS statistic (bounds its intermediates)
KS_PROBE_ROWS = 1 << 16

__all__ = [
    "pearson_correlation",
    "ks_statistic",
    "iqr_normalized_errors",
    "fidelity_panel",
    "fidelity_summary",
]


def _validated(exact, approx) -> tuple[np.ndarray, np.ndarray]:
    """Common validation: matching shapes, non-empty, all-finite float64."""
    exact_arr = np.asarray(exact, dtype=np.float64)
    approx_arr = np.asarray(approx, dtype=np.float64)
    if exact_arr.shape != approx_arr.shape:
        raise ValueError(
            f"shape mismatch between exact {exact_arr.shape} and "
            f"approx {approx_arr.shape}"
        )
    if exact_arr.size == 0:
        raise ValueError("fidelity metrics are undefined for empty arrays")
    if not np.all(np.isfinite(exact_arr)):
        raise ValueError("exact array contains non-finite values")
    if not np.all(np.isfinite(approx_arr)):
        raise ValueError("approx array contains non-finite values")
    return exact_arr.reshape(-1), approx_arr.reshape(-1)


def pearson_correlation(exact, approx) -> float:
    """Pearson correlation coefficient between exact and approx values.

    Bounded to [-1, 1].  A constant field has no variance to correlate, so
    the convention for degenerate inputs is: 1.0 when the arrays are
    element-wise identical (undamaged data is perfectly faithful no matter
    its shape), 0.0 otherwise.
    """
    return _pearson(*_validated(exact, approx))


def _pearson(exact_arr: np.ndarray, approx_arr: np.ndarray) -> float:
    exact_dev = exact_arr - exact_arr.mean()
    approx_dev = approx_arr - approx_arr.mean()
    denom = float(np.sqrt(np.dot(exact_dev, exact_dev) * np.dot(approx_dev, approx_dev)))
    if denom == 0.0:
        return 1.0 if np.array_equal(exact_arr, approx_arr) else 0.0
    corr = float(np.dot(exact_dev, approx_dev)) / denom
    return float(np.clip(corr, -1.0, 1.0))


def ks_statistic(exact, approx) -> float:
    """Two-sample Kolmogorov–Smirnov statistic over the value distributions.

    The maximum absolute distance between the empirical CDFs of the two
    (flattened) samples, bounded to [0, 1]; 0.0 iff the sorted multisets of
    values coincide.  Computed with two sorts and ``searchsorted`` — no
    per-element Python loop.
    """
    exact_arr, approx_arr = _validated(exact, approx)
    return _ks_sorted(np.sort(exact_arr), np.sort(approx_arr))


def _ks_sorted(exact_sorted: np.ndarray, approx_sorted: np.ndarray) -> float:
    """KS statistic of two sorted, non-empty samples (lengths may differ).

    The CDF distance is largest at one of the sample values, so both
    samples are probed, :data:`KS_PROBE_ROWS` values at a time; each
    probe's distance is ``|i/n - j/m|`` with ``i`` and ``j`` the counts of
    values ``<=`` the probe in each sample.  Equal values share their
    counts, so only the last of each run is probed: its own count is one
    past its position (searched for the slice's final run, which may
    continue past the slice), and only the other sample is searched.
    """
    n, m = exact_sorted.size, approx_sorted.size
    distance = 0.0
    for sample, other, own_is_exact in (
        (exact_sorted, approx_sorted, True),
        (approx_sorted, exact_sorted, False),
    ):
        for start in range(0, sample.size, KS_PROBE_ROWS):
            probe = sample[start:start + KS_PROBE_ROWS]
            run_last = np.append(np.flatnonzero(probe[1:] != probe[:-1]), probe.size - 1)
            own = start + run_last + 1
            own[-1] = np.searchsorted(sample, probe[-1], side="right")
            cross = np.searchsorted(other, probe[run_last], side="right")
            i, j = (own, cross) if own_is_exact else (cross, own)
            distance = max(distance, float(np.abs(i / n - j / m).max()))
    return distance


def _iqr_scale(exact_arr: np.ndarray) -> float:
    """Robust normalization scale: IQR, falling back for degenerate data.

    A constant (or nearly constant) field has zero interquartile range; the
    fallbacks keep the metric finite: full value range first, then the
    magnitude of the constant itself, then 1.0 for an all-zero field.
    """
    q25, q75 = np.percentile(exact_arr, [25.0, 75.0])
    scale = float(q75 - q25)
    if scale > 0.0:
        return scale
    scale = float(exact_arr.max() - exact_arr.min())
    if scale > 0.0:
        return scale
    return max(abs(float(exact_arr.flat[0])), 1.0)


def iqr_normalized_errors(exact, approx) -> tuple[float, float]:
    """(mean, max) of ``|exact - approx| / IQR(exact)``.

    Normalizing by the interquartile range of the exact data makes the
    error dimensionless and invariant under any affine transform
    ``x -> a*x + b`` (a > 0) applied to both arrays, so thresholds carry
    across variables with different units — the property enstools relies
    on to compare compression quality across weather fields.
    """
    return _iqr_errors(*_validated(exact, approx))


def _iqr_errors(exact_arr: np.ndarray, approx_arr: np.ndarray) -> tuple[float, float]:
    normalized = np.abs(exact_arr - approx_arr) / _iqr_scale(exact_arr)
    largest = float(normalized.max())
    # Summing n equal values can round the mean just above each of them.
    return min(float(normalized.mean()), largest), largest


def fidelity_panel(exact, approx) -> dict[str, float]:
    """All fidelity metrics of one exact/approx array pair.

    Keys: ``pearson``, ``ks``, ``iqr_mean``, ``iqr_max``.  The pair is
    validated once and each metric's temporaries are freed before the next
    one runs.
    """
    exact_arr, approx_arr = _validated(exact, approx)
    ks = _ks_sorted(np.sort(exact_arr), np.sort(approx_arr))
    pearson = _pearson(exact_arr, approx_arr)
    iqr_mean, iqr_max = _iqr_errors(exact_arr, approx_arr)
    return {"pearson": pearson, "ks": ks, "iqr_mean": iqr_mean, "iqr_max": iqr_max}


def fidelity_summary(
    exact_arrays: Mapping[str, np.ndarray],
    approx_arrays: Mapping[str, np.ndarray],
) -> dict[str, float]:
    """Worst-case fidelity panel over several named array pairs.

    Used by the simulator to collapse a workload's approximable regions
    into one record-level panel: the *minimum* Pearson correlation and the
    *maximum* KS / IQR errors across regions, i.e. the least faithful
    region dominates.  Keys are prefixed ``fidelity_`` to match the
    ``SimulationResult.extra_metrics`` entries.
    """
    if set(exact_arrays) != set(approx_arrays):
        raise ValueError(
            f"array name mismatch: exact has {sorted(exact_arrays)}, "
            f"approx has {sorted(approx_arrays)}"
        )
    if not exact_arrays:
        raise ValueError("fidelity summary needs at least one array pair")
    panels = [
        fidelity_panel(exact_arrays[name], approx_arrays[name])
        for name in exact_arrays
    ]
    return {
        "fidelity_pearson": min(panel["pearson"] for panel in panels),
        "fidelity_ks": max(panel["ks"] for panel in panels),
        "fidelity_iqr_mean": max(panel["iqr_mean"] for panel in panels),
        "fidelity_iqr_max": max(panel["iqr_max"] for panel in panels),
    }
