"""Property tests of the array map and distortion paths (hypothesis)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspmap import (
    MapChain,
    ProfileParams,
    chain_distortion_values,
    chain_inverse_values,
    chain_values,
    distortion_table,
    distortion_values,
)

PARAMS = ProfileParams()
CHAIN = MapChain(PARAMS)
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

angles = st.floats(0.0, 2.0 * math.pi)
# radii up to 1 - 1e-12, with extra weight next to the unit circle
disk_radii = st.one_of(st.floats(0.0, 1.0 - 1e-12),
                       st.floats(-12.0, -1.0).map(lambda e: 1.0 - 10.0**e))
disk_points = st.lists(st.tuples(disk_radii, angles), min_size=1, max_size=40).map(
    lambda pts: np.array([r * complex(math.cos(t), math.sin(t)) for r, t in pts]))
plane_points = st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                           allow_infinity=False),
                        min_size=1, max_size=40).map(np.array)
normalized_angles = st.floats(-math.pi / 2, 3 * math.pi / 2, exclude_max=True)


@SETTINGS
@given(disk_points)
def test_round_trip_on_the_disk(z):
    back = chain_inverse_values(chain_values(z, CHAIN), CHAIN)
    assert np.max(np.abs(back - z)) <= 1e-9


@SETTINGS
@given(plane_points)
def test_chain_distortion_at_least_one(z):
    k = chain_distortion_values(z, CHAIN)
    assert np.all(np.isfinite(k)) and np.all(k >= 1.0)


@SETTINGS
@given(st.floats(math.log(1e-150), 0.0), normalized_angles)
def test_positive_jacobian(logr, theta):
    op_norm, jac_det, k = distortion_table(logr, theta, PARAMS)
    assert jac_det > 0.0
    assert abs(op_norm * op_norm / jac_det - k) <= 1e-12 * k


@SETTINGS
@given(plane_points, st.data())
def test_single_points_equal_the_array_elements(z, data):
    # every entry is independent of its batch: one point alone gives the same bits
    i = data.draw(st.integers(0, len(z) - 1))
    w_all = chain_values(z, CHAIN)
    assert chain_values(z[i], CHAIN) == w_all[i]
    assert chain_inverse_values(w_all[i], CHAIN) == chain_inverse_values(w_all, CHAIN)[i]
    assert chain_distortion_values(z[i], CHAIN) == chain_distortion_values(z, CHAIN)[i]


# checked down to log r = -1e300, far past the deepest quadrature scheme
# (2^-1e47) and the point where the squared r-scaled entries would underflow
@SETTINGS
@given(st.one_of(st.floats(-1e300, math.log(1e-300)), st.floats(math.log(1e-300), 0.0)),
       normalized_angles)
def test_finite_distortion_at_deep_log_radii(logr, theta):
    k = distortion_values(logr, theta, PARAMS)
    assert np.isfinite(k) and k >= 1.0


@SETTINGS
@given(st.floats(math.log(1e-300), 0.0), normalized_angles)
def test_finite_operator_norm_down_to_1e_300(logr, theta):
    op_norm, _, k = distortion_table(logr, theta, PARAMS)
    assert np.isfinite(op_norm) and np.isfinite(k) and k >= 1.0
