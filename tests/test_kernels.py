"""Correctness tests for the benchmark kernels themselves."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.workloads.blackscholes import black_scholes
from repro.workloads.dct import blockwise_dct, blockwise_idct, dct_basis
from repro.workloads.fwt import dyadic_convolution, fast_walsh_transform
from repro.workloads.jmeint import triangles_intersect
from repro.workloads.nn import nearest_neighbors
from repro.workloads.srad import srad_coefficients, srad_update
from repro.workloads.backprop import backprop_step


# --------------------------------------------------------------------- #
# DCT


def test_dct_basis_is_orthonormal():
    basis = dct_basis().astype(np.float64)
    np.testing.assert_allclose(basis @ basis.T, np.eye(8), atol=1e-6)


def test_dct_idct_roundtrip():
    rng = np.random.default_rng(0)
    image = rng.normal(size=(32, 32)).astype(np.float32)
    basis = dct_basis()
    coefficients = blockwise_dct(image, basis)
    rebuilt = blockwise_idct(coefficients, basis)
    np.testing.assert_allclose(rebuilt, image, atol=1e-4)


def test_dct_constant_tile_concentrates_energy_in_dc():
    image = np.full((8, 8), 7.0, dtype=np.float32)
    coefficients = blockwise_dct(image, dct_basis())
    assert coefficients[0, 0] == pytest.approx(7.0 * 8, rel=1e-5)
    assert np.abs(coefficients[1:, :]).max() < 1e-4


def test_dct_rejects_non_tile_multiple():
    with pytest.raises(ValueError):
        blockwise_dct(np.zeros((10, 16), dtype=np.float32), dct_basis())


# --------------------------------------------------------------------- #
# FWT


def test_fwt_involution_up_to_scale():
    rng = np.random.default_rng(1)
    signal = rng.normal(size=64).astype(np.float32)
    twice = fast_walsh_transform(fast_walsh_transform(signal)) / 64.0
    np.testing.assert_allclose(twice, signal, atol=1e-4)


def test_fwt_parseval():
    rng = np.random.default_rng(2)
    signal = rng.normal(size=128)
    transformed = fast_walsh_transform(signal)
    assert np.sum(transformed**2) == pytest.approx(128 * np.sum(signal**2), rel=1e-5)


def test_fwt_requires_power_of_two():
    with pytest.raises(ValueError):
        fast_walsh_transform(np.zeros(100))


def test_dyadic_convolution_with_delta_kernel_is_identity():
    rng = np.random.default_rng(3)
    signal = rng.normal(size=64).astype(np.float32)
    kernel = np.zeros(64, dtype=np.float32)
    kernel[0] = 1.0
    np.testing.assert_allclose(dyadic_convolution(signal, kernel), signal, atol=1e-4)


# --------------------------------------------------------------------- #
# Black-Scholes


def test_black_scholes_put_call_parity():
    stock = np.array([50.0, 80.0, 120.0])
    strike = np.array([60.0, 80.0, 100.0])
    expiry = np.array([0.5, 1.0, 2.0])
    vol = np.array([0.2, 0.3, 0.4])
    rate = 0.02
    call, put = black_scholes(stock, strike, expiry, vol, risk_free_rate=rate)
    parity = call - put
    expected = stock - strike * np.exp(-rate * expiry)
    np.testing.assert_allclose(parity, expected, atol=1e-3)


def test_black_scholes_deep_in_the_money_call():
    call, put = black_scholes(
        np.array([200.0]), np.array([100.0]), np.array([0.01]), np.array([0.1])
    )
    assert call[0] == pytest.approx(100.0, abs=1.0)
    assert put[0] == pytest.approx(0.0, abs=0.1)


def test_black_scholes_prices_non_negative():
    rng = np.random.default_rng(4)
    call, put = black_scholes(
        rng.uniform(10, 100, 100),
        rng.uniform(10, 100, 100),
        rng.uniform(0.1, 2, 100),
        rng.uniform(0.05, 0.6, 100),
    )
    assert np.all(call >= -1e-5)
    assert np.all(put >= -1e-5)


# --------------------------------------------------------------------- #
# JM (triangle intersection)


def _tri(*vertices):
    return np.array([vertices], dtype=np.float32)


def test_triangles_clearly_apart_do_not_intersect():
    a = _tri((0, 0, 0), (1, 0, 0), (0, 1, 0))
    b = _tri((10, 10, 10), (11, 10, 10), (10, 11, 10))
    assert not triangles_intersect(a, b)[0]


def test_triangles_crossing_planes_intersect():
    a = _tri((0, 0, 0), (2, 0, 0), (0, 2, 0))
    b = _tri((0.5, 0.5, -1), (0.5, 0.5, 1), (1.5, 0.5, 0))
    assert triangles_intersect(a, b)[0]


def test_triangle_far_along_intersection_line_does_not_intersect():
    a = _tri((0, 0, 0), (2, 0, 0), (0, 2, 0))
    b = _tri((10, 0.5, -1), (10, 0.5, 1), (11, 0.5, 0))
    assert not triangles_intersect(a, b)[0]


def test_triangles_intersect_shape_validation():
    with pytest.raises(ValueError):
        triangles_intersect(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)))


def test_triangles_intersect_vectorized_matches_scalar():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(20, 3, 3)).astype(np.float32)
    b = (rng.normal(size=(20, 3, 3)) * 0.5).astype(np.float32)
    batched = triangles_intersect(a, b)
    for index in range(20):
        single = triangles_intersect(a[index:index + 1], b[index:index + 1])[0]
        assert batched[index] == single


# --------------------------------------------------------------------- #
# NN


def test_nearest_neighbors_matches_brute_force():
    rng = np.random.default_rng(6)
    records = rng.uniform(0, 10, size=(500, 2)).astype(np.float32)
    query = (5.0, 5.0)
    distances, indices = nearest_neighbors(records, query, 5)
    brute = np.sqrt(((records - np.array(query)) ** 2).sum(axis=1))
    expected = np.sort(brute)[:5]
    np.testing.assert_allclose(distances, expected, rtol=1e-5)
    assert len(set(indices.tolist())) == 5


def test_nearest_neighbors_validation():
    records = np.zeros((10, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        nearest_neighbors(records, (0, 0), 0)
    with pytest.raises(ValueError):
        nearest_neighbors(np.zeros((10, 3)), (0, 0), 1)
    with pytest.raises(ValueError, match="query"):
        nearest_neighbors(records, 5.0, 1)
    with pytest.raises(ValueError, match="query"):
        nearest_neighbors(records, (0, 0, 0), 1)


def _oracle_nearest_neighbors(records, query, k):
    """The kernel as a full stable sort of all distances (NaNs last)."""
    deltas = np.asarray(records, dtype=np.float64) - np.asarray(query, dtype=np.float64)
    distances = np.sqrt(np.sum(deltas**2, axis=1))
    order = np.argsort(distances, kind="stable")[:k]
    return distances[order].astype(np.float32), order.astype(np.int64)


def _assert_same_neighbors(records, query, k):
    distances, indices = nearest_neighbors(records, query, k)
    expected_distances, expected_indices = _oracle_nearest_neighbors(records, query, k)
    assert distances.tobytes() == expected_distances.tobytes()
    assert indices.dtype == expected_indices.dtype
    assert indices.tobytes() == expected_indices.tobytes()


#: coordinates on a coarse grid, so many records tie at every distance
GRID_COORDS = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0, np.inf, -np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(
    records=hnp.arrays(
        np.float32,
        st.tuples(st.integers(1, 60), st.just(2)),
        elements=st.one_of(GRID_COORDS, st.floats(-3, 3, width=32)),
    ),
    query=st.tuples(st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, -1.0])),
    data=st.data(),
)
def test_nearest_neighbors_matches_full_stable_sort(records, query, data):
    k = data.draw(st.integers(1, records.shape[0]))
    _assert_same_neighbors(records, query, k)


@pytest.mark.parametrize(
    "records, k",
    [
        # 40 records tie at the k-th distance
        (np.tile([[1.0, 0.0], [0.0, 1.0]], (20, 1)), 10),
        (np.tile([[1.0, 0.0], [0.0, 1.0]], (20, 1)), 40),
        # inf rows are valid neighbours, sorted after every finite one
        (np.array([[np.inf, 0.0], [1.0, 1.0], [-np.inf, 2.0], [0.5, 0.5]]), 4),
        # NaN rows leave fewer than k non-NaN distances
        (np.array([[np.nan, 0.0], [1.0, 1.0], [0.0, np.nan], [2.0, 2.0]]), 3),
        (np.full((5, 2), np.nan), 2),
    ],
    ids=["ties", "k-equals-n", "inf-rows", "nan-rows", "all-nan"],
)
def test_nearest_neighbors_edge_cases_match_full_stable_sort(records, k):
    _assert_same_neighbors(records.astype(np.float32), (0.0, 0.0), k)


# --------------------------------------------------------------------- #
# SRAD


def test_srad_coefficient_in_unit_range():
    rng = np.random.default_rng(7)
    image = rng.uniform(50, 200, size=(32, 32))
    results = srad_coefficients(image)
    assert np.all(results["coefficient"] >= 0.0)
    assert np.all(results["coefficient"] <= 1.0)


def test_srad_constant_image_is_fixed_point():
    image = np.full((16, 16), 100.0)
    results = srad_coefficients(image)
    updated = srad_update(
        image,
        results["coefficient"],
        results["d_n"],
        results["d_s"],
        results["d_w"],
        results["d_e"],
    )
    np.testing.assert_allclose(updated, image, atol=1e-3)


def test_srad_update_smooths_noise():
    rng = np.random.default_rng(8)
    image = 100.0 + rng.normal(0, 10, size=(64, 64))
    results = srad_coefficients(image)
    updated = srad_update(
        image,
        results["coefficient"],
        results["d_n"],
        results["d_s"],
        results["d_w"],
        results["d_e"],
    )
    assert np.var(updated) < np.var(image)


# --------------------------------------------------------------------- #
# backprop


def test_backprop_step_reduces_loss():
    rng = np.random.default_rng(9)
    inputs = rng.uniform(0, 1, size=(32, 64))
    weights_ih = rng.normal(0, 0.2, size=(64, 8))
    weights_ho = rng.normal(0, 0.2, size=(8, 1))
    bias_h = np.zeros(8)
    bias_o = np.zeros(1)
    target = rng.uniform(0, 1, size=(32, 1))

    def loss(w_ih, w_ho):
        hidden = 1 / (1 + np.exp(-(inputs @ w_ih + bias_h)))
        output = 1 / (1 + np.exp(-(hidden @ w_ho + bias_o)))
        return float(np.mean((target - output) ** 2))

    new_ih, new_ho = backprop_step(inputs, weights_ih, weights_ho, bias_h, bias_o, target)
    assert loss(new_ih, new_ho) <= loss(weights_ih, weights_ho) + 1e-9


def test_backprop_step_preserves_shapes():
    inputs = np.zeros((4, 16), dtype=np.float32)
    new_ih, new_ho = backprop_step(
        inputs,
        np.zeros((16, 8), dtype=np.float32),
        np.zeros((8, 1), dtype=np.float32),
        np.zeros(8, dtype=np.float32),
        np.zeros(1, dtype=np.float32),
        np.zeros((4, 1), dtype=np.float32),
    )
    assert new_ih.shape == (16, 8)
    assert new_ho.shape == (8, 1)
