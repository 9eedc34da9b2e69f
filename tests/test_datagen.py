"""The array-speed input generators against their per-element loops.

:func:`~repro.workloads.datagen.quantize_varying` and
:func:`~repro.workloads.datagen.correlated_series` were first written as
Python loops over segments and elements.  The oracles below are those
loops; the generators must reproduce them bit for bit (same float32
bytes, NaN and inf included) and leave the random generator in the same
state, so every workload's inputs stay exactly as they were.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.workloads.datagen import correlated_series, quantize_varying

# +-1e300 scaled by 2**40 overflows to inf in both forms, as does the cast
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

# ---------------------------------------------------------------------- #
# oracles: the per-segment and per-element loops


def _oracle_quantize_varying(array, rng, min_fraction_bits, max_fraction_bits,
                             segment_elements=32):
    values = np.asarray(array, dtype=np.float64)
    flat = values.reshape(-1).copy()
    n_segments = -(-flat.size // segment_elements)
    bits = rng.integers(min_fraction_bits, max_fraction_bits + 1, size=n_segments)
    for segment, fraction_bits in enumerate(bits):
        start = segment * segment_elements
        stop = min(flat.size, start + segment_elements)
        step = 2.0 ** (-int(fraction_bits))
        flat[start:stop] = np.round(flat[start:stop] / step) * step
    return flat.reshape(values.shape).astype(np.float32)


def _oracle_correlated_series(rng, length, correlation=0.95, scale=1.0, offset=0.0):
    noise = rng.normal(0.0, 1.0, size=length)
    series = np.empty(length, dtype=np.float64)
    series[0] = noise[0]
    for index in range(1, length):
        series[index] = correlation * series[index - 1] + np.sqrt(
            1 - correlation**2
        ) * noise[index]
    return (series * scale + offset).astype(np.float32)


def _assert_same(result, expected):
    assert result.dtype == expected.dtype
    assert result.shape == expected.shape
    assert result.tobytes() == expected.tobytes()


def _rng_pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


# ---------------------------------------------------------------------- #
# quantize_varying

#: ordinary values plus the extremes the scaling must carry through exactly
SPECIAL_VALUES = st.sampled_from(
    [np.inf, -np.inf, np.nan, 1e300, -1e300, 0.0, -0.0, 0.5, -2.5, 1e-300]
)
VALUES = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), SPECIAL_VALUES
)


@settings(max_examples=300, deadline=None)
@given(
    array=hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=9), elements=VALUES
    ),
    bounds=st.tuples(st.integers(-4, 40), st.integers(0, 12)),
    segment_elements=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_quantize_varying_matches_loop(array, bounds, segment_elements, seed):
    low, width = bounds
    rng, oracle_rng = _rng_pair(seed)
    result = quantize_varying(array, rng, low, low + width, segment_elements)
    expected = _oracle_quantize_varying(array, oracle_rng, low, low + width, segment_elements)
    _assert_same(result, expected)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("shape", [(97,), (13, 7), (3, 5, 11)])
@pytest.mark.parametrize("segment_elements", [1, 5, 32, 64])
def test_quantize_varying_float32_input_with_equal_bounds(shape, segment_elements):
    source = np.random.default_rng(3).normal(0.0, 100.0, size=shape).astype(np.float32)
    rng, oracle_rng = _rng_pair(11)
    result = quantize_varying(source, rng, 9, 9, segment_elements)
    _assert_same(result, _oracle_quantize_varying(source, oracle_rng, 9, 9, segment_elements))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_quantize_varying_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        quantize_varying(np.zeros(4), rng, 5, 4)
    with pytest.raises(ValueError):
        quantize_varying(np.zeros(4), rng, 0, 4, segment_elements=0)


# ---------------------------------------------------------------------- #
# correlated_series


@settings(max_examples=200, deadline=None)
@given(
    length=st.integers(1, 400),
    correlation=st.one_of(
        st.sampled_from([0.0, 0.5, 0.97, 0.999]),
        st.floats(0.0, 0.999, allow_nan=False),
    ),
    scale=st.floats(0.01, 100.0),
    offset=st.floats(-10.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_correlated_series_matches_loop(length, correlation, scale, offset, seed):
    rng, oracle_rng = _rng_pair(seed)
    result = correlated_series(rng, length, correlation, scale, offset)
    expected = _oracle_correlated_series(oracle_rng, length, correlation, scale, offset)
    _assert_same(result, expected)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("length", [1, 2, 50_000])
@pytest.mark.parametrize("correlation", [0, 0.0, 0.999])
def test_correlated_series_edge_lengths_and_correlations(length, correlation):
    rng, oracle_rng = _rng_pair(length)
    result = correlated_series(rng, length, correlation, scale=10.0)
    _assert_same(result, _oracle_correlated_series(oracle_rng, length, correlation, scale=10.0))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_correlated_series_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        correlated_series(rng, 0)
    with pytest.raises(ValueError):
        correlated_series(rng, 4, correlation=1.0)
