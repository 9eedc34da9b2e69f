"""The bounded fidelity panel against the full-materialization formulas.

:mod:`repro.metrics.fidelity` validates each pair once and probes the KS
CDFs in slices of ``KS_PROBE_ROWS`` values.  The oracle below is the panel
as first written: every metric validates (and casts) its own inputs, and
KS probes all ``n + m`` sample values at once.  Both must agree exactly —
same floats, not merely close ones — on ties, signed zeros, constant
fields, float32/float64/integer regions, unequal sample lengths and sizes
on both sides of a probe-slice boundary.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.metrics import fidelity
from repro.metrics.fidelity import fidelity_panel, fidelity_summary, ks_statistic

# ---------------------------------------------------------------------- #
# oracle: the full-materialization formulas


def _oracle_validated(exact, approx):
    exact_arr = np.asarray(exact, dtype=np.float64)
    approx_arr = np.asarray(approx, dtype=np.float64)
    if exact_arr.shape != approx_arr.shape:
        raise ValueError("shape mismatch")
    if exact_arr.size == 0:
        raise ValueError("empty")
    if not np.all(np.isfinite(exact_arr)) or not np.all(np.isfinite(approx_arr)):
        raise ValueError("non-finite")
    return exact_arr.reshape(-1), approx_arr.reshape(-1)


def _oracle_pearson(exact, approx):
    exact_arr, approx_arr = _oracle_validated(exact, approx)
    exact_dev = exact_arr - exact_arr.mean()
    approx_dev = approx_arr - approx_arr.mean()
    denom = float(np.sqrt(np.dot(exact_dev, exact_dev) * np.dot(approx_dev, approx_dev)))
    if denom == 0.0:
        return 1.0 if np.array_equal(exact_arr, approx_arr) else 0.0
    return float(np.clip(float(np.dot(exact_dev, approx_dev)) / denom, -1.0, 1.0))


def _oracle_ks_sorted(exact_sorted, approx_sorted):
    probe = np.concatenate([exact_sorted, approx_sorted])
    cdf_exact = np.searchsorted(exact_sorted, probe, side="right") / exact_sorted.size
    cdf_approx = np.searchsorted(approx_sorted, probe, side="right") / approx_sorted.size
    return float(np.max(np.abs(cdf_exact - cdf_approx)))


def _oracle_ks(exact, approx):
    exact_arr, approx_arr = _oracle_validated(exact, approx)
    return _oracle_ks_sorted(np.sort(exact_arr), np.sort(approx_arr))


def _oracle_iqr(exact, approx):
    exact_arr, approx_arr = _oracle_validated(exact, approx)
    q25, q75 = np.percentile(exact_arr, [25.0, 75.0])
    scale = float(q75 - q25)
    if scale <= 0.0:
        scale = float(exact_arr.max() - exact_arr.min())
    if scale <= 0.0:
        scale = max(abs(float(exact_arr.flat[0])), 1.0)
    normalized = np.abs(exact_arr - approx_arr) / scale
    largest = float(normalized.max())
    # the mean of equal errors is bounded by their max, not rounded above it
    return min(float(normalized.mean()), largest), largest


def _oracle_panel(exact, approx):
    iqr_mean, iqr_max = _oracle_iqr(exact, approx)
    return {
        "pearson": _oracle_pearson(exact, approx),
        "ks": _oracle_ks(exact, approx),
        "iqr_mean": iqr_mean,
        "iqr_max": iqr_max,
    }


# ---------------------------------------------------------------------- #
# strategies

#: few distinct values so ties (within and across the samples) are common,
#: with both signed zeros among them
TIE_VALUES = st.sampled_from([-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 1e6])
WIDE_VALUES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=32)


@st.composite
def region_pairs(draw, max_size=40):
    """An exact/degraded pair as a simulated region: one dtype, one shape."""
    dtype = draw(st.sampled_from([np.float32, np.float64, np.int32, np.uint16]))
    n = draw(st.integers(1, max_size))
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        elements = st.integers(max(info.min, -1000), min(info.max, 1000))
    else:
        elements = draw(st.sampled_from([TIE_VALUES, WIDE_VALUES]))
    exact = draw(hnp.arrays(dtype, n, elements=elements))
    if draw(st.booleans()):
        exact[:] = exact[0]  # constant field
    approx = exact.copy()
    damaged = draw(hnp.arrays(np.bool_, n))
    approx[damaged] = draw(hnp.arrays(dtype, n, elements=elements))[damaged]
    return exact, approx


@contextlib.contextmanager
def small_probe_slices():
    """Probe slices of 3 values, so small samples span several slices."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fidelity, "KS_PROBE_ROWS", 3)
        yield


# ---------------------------------------------------------------------- #
# properties


@settings(max_examples=300, deadline=None)
@given(region_pairs())
def test_panel_matches_oracle(pair):
    exact, approx = pair
    assert fidelity_panel(exact, approx) == _oracle_panel(exact, approx)


@settings(max_examples=300, deadline=None)
@given(pair=region_pairs())
def test_panel_matches_oracle_across_slices(pair):
    exact, approx = pair
    with small_probe_slices():
        assert fidelity_panel(exact, approx) == _oracle_panel(exact, approx)
        assert ks_statistic(exact, approx) == _oracle_ks(exact, approx)


@settings(max_examples=300, deadline=None)
@given(
    pair=st.tuples(
        hnp.arrays(np.float64, st.integers(1, 30), elements=TIE_VALUES),
        hnp.arrays(np.float64, st.integers(1, 30), elements=TIE_VALUES),
    )
)
def test_ks_unequal_lengths_matches_oracle(pair):
    exact_sorted, approx_sorted = (np.sort(sample) for sample in pair)
    with small_probe_slices():
        assert fidelity._ks_sorted(exact_sorted, approx_sorted) == _oracle_ks_sorted(
            exact_sorted, approx_sorted
        )


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_ks_at_the_real_slice_boundary(offset):
    n = fidelity.KS_PROBE_ROWS + offset
    rng = np.random.default_rng(n)
    exact = rng.normal(size=n).astype(np.float32)
    approx = exact.copy()
    approx[::7] = np.round(approx[::7], 1)
    assert ks_statistic(exact, approx) == _oracle_ks(exact, approx)
    assert fidelity_panel(exact, approx) == _oracle_panel(exact, approx)


def test_summary_matches_oracle_worst_case():
    rng = np.random.default_rng(5)
    exact = {"a": rng.normal(size=50), "b": rng.integers(0, 9, 40).astype(np.int32)}
    approx = {"a": exact["a"].round(1), "b": exact["b"][::-1].copy()}
    panels = [_oracle_panel(exact[name], approx[name]) for name in exact]
    assert fidelity_summary(exact, approx) == {
        "fidelity_pearson": min(p["pearson"] for p in panels),
        "fidelity_ks": max(p["ks"] for p in panels),
        "fidelity_iqr_mean": max(p["iqr_mean"] for p in panels),
        "fidelity_iqr_max": max(p["iqr_max"] for p in panels),
    }


@pytest.mark.parametrize(
    ("exact", "approx"),
    [
        (np.zeros(3), np.zeros(4)),
        (np.zeros(0), np.zeros(0)),
        (np.array([1.0, np.nan]), np.zeros(2)),
        (np.zeros(2), np.array([np.inf, 0.0])),
    ],
    ids=["shape", "empty", "nan", "inf"],
)
def test_panel_rejects_what_the_oracle_rejects(exact, approx):
    with pytest.raises(ValueError):
        _oracle_panel(exact, approx)
    with pytest.raises(ValueError):
        fidelity_panel(exact, approx)
