"""Radial profile: frozen multiprecision oracles, inverses, derivatives."""

import math

import numpy as np
import pytest

from cuspmap import DomainError, ProfileParams
from cuspmap.profile import _curves, _depth_at_one, _scaled_rates, depth_inverse_log

P16 = ProfileParams(cg=16.0)
# the depth equals 1 exactly at r = cg * e^-e, which lies in (0, 1] for cg = 8
P8 = ProfileParams(cg=8.0)


def profile(r, params):
    """The curves, their first derivatives in r and the cusp half-angle at the
    radii r, from the array core."""
    r = np.asarray(r, float)
    l1, l2, g, G, aspect, slant = _curves(np.log(r), params.log_cg())
    r_dg, r_da, r_dG = _scaled_rates(l1, l2, g, aspect, slant)
    return {"depth": g, "depth_rate": r_dg / r, "aspect": aspect, "aspect_rate": r_da / r,
            "image_radius": G, "image_radius_rate": r_dG / r, "half_angle": np.arctan(aspect)}


def depth_inverse(value, params):
    """Radius with the given depth; underflows to 0.0 past the subnormals."""
    return math.exp(depth_inverse_log(value, params))

# mpmath oracle, 50 digits, cg = 16, r = 1e-6
ORACLE_1E6 = {
    "depth": 0.3560384351450500019381287,
    "depth_rate": 7641.82593552554509376936,
    "aspect": 0.1693193101864174918404945,
    "aspect_rate": 6573.093523615853875742194,
    "image_radius": 0.3611060092669659348059291,
    "image_radius_rate": 8141.286492431123470726959,
    "half_angle": 0.1677285124026804574243757,
}


def test_depth_at_forced_unit_point():
    # loglog(cg/r) = 1 exactly at r = cg * e^-e
    r = 8.0 * math.exp(-math.e)
    assert profile(r, P8)["depth"] == pytest.approx(1.0, rel=1e-14)


def test_small_cusp_constant_rejected_at_unit_radius():
    # the classical constant 2 makes the depth negative at r = 1
    with pytest.raises(DomainError):
        ProfileParams(cg=2.0)


def test_depth_high_precision_value():
    assert profile(1e-10, P16)["depth"] == pytest.approx(0.3076625816649012689928376, rel=1e-14)


def test_evaluate_against_multiprecision_oracle():
    e = profile(1e-6, P16)
    for name, want in ORACLE_1E6.items():
        assert e[name] == pytest.approx(want, rel=1e-9), name


def test_image_radius_rate_identity():
    # d/dr [depth * sqrt(1 + aspect^2)] expanded by the chain rule
    e = profile([1e-9, 1e-3, 0.3, 0.99], P16)
    expect = (
        e["depth_rate"] * (1.0 + e["aspect"] ** 2) + e["depth"] * e["aspect"] * e["aspect_rate"]
    ) / np.sqrt(1.0 + e["aspect"] ** 2)
    assert e["image_radius_rate"] == pytest.approx(expect, rel=1e-12)


def test_unit_depth_point_fields():
    r = 8.0 * math.exp(-math.e)
    e = profile(r, P8)
    assert e["depth"] == pytest.approx(1.0, rel=1e-13)
    assert e["aspect"] == pytest.approx(math.exp(-1.0), rel=1e-13)
    assert e["half_angle"] == pytest.approx(math.atan(math.exp(-1.0)), rel=1e-13)


def test_field_invariants_on_log_grid():
    e = profile(np.geomspace(1e-300, 1.0, 40), P16)
    assert np.all(e["depth"] > 0.0) and np.all(e["aspect"] > 0.0)
    assert np.all(e["depth_rate"] > 0.0)
    assert np.all(e["image_radius"] >= e["depth"])
    assert e["image_radius"] == pytest.approx(
        e["depth"] * np.sqrt(1.0 + e["aspect"] ** 2), rel=1e-12
    )
    for rate in ("depth_rate", "aspect_rate", "image_radius_rate"):
        assert np.all(np.isfinite(e[rate])), rate


def test_derivatives_match_central_differences():
    r = np.array([1e-6, 1e-3, 0.05, 0.4, 0.9])
    h = r * 1e-6
    e, hi, lo = profile(r, P16), profile(r + h, P16), profile(r - h, P16)
    for field in ("depth", "aspect", "image_radius"):
        fd = (hi[field] - lo[field]) / (2.0 * h)
        assert e[field + "_rate"] == pytest.approx(fd, rel=1e-6), field


def test_monotonicity():
    e = profile(np.geomspace(1e-300, 1.0, 60), P16)
    assert np.all(np.diff(e["depth"]) > 0.0)
    assert np.all(np.diff(e["image_radius"]) > 0.0)


def test_limits_toward_the_tip():
    deep, shallow = profile([1e-100, 1e-10], P16)["depth"]
    assert deep < shallow < 0.5
    deep, shallow = profile([1e-100, 1e-10], P16)["aspect"]
    assert deep < shallow


def test_depth_inverse_unit_value():
    assert depth_inverse(1.0, P8) == pytest.approx(8.0 * math.exp(-math.e), rel=1e-14)


def test_depth_inverse_half():
    # 16 * exp(-e^2)
    assert depth_inverse(0.5, P16) == pytest.approx(0.009887663829297495977912346, rel=1e-13)


def test_depth_round_trip():
    rs = np.geomspace(1e-300, 1.0, 25)
    for r, g in zip(rs, profile(rs, P16)["depth"].tolist()):
        assert depth_inverse(g, P16) == pytest.approx(float(r), rel=1e-12)


def test_depth_inverse_log_past_underflow():
    lg = depth_inverse_log(0.05, P16)
    assert lg == pytest.approx(math.log(16.0) - math.exp(20.0), rel=1e-15)
    assert depth_inverse(0.05, P16) == 0.0  # true radius far below subnormals


def test_domain_errors():
    # loglog(cg/r) < 0 for cg/e < r < cg, and log(cg/r) < 0 beyond cg
    for r in (16.0 * math.exp(-0.5), 20.0):
        with pytest.raises(DomainError):
            profile([0.5, r], P16)
    with pytest.raises(DomainError):
        depth_inverse_log(0.0, P16)
    with pytest.raises(DomainError):
        depth_inverse_log(profile(1.0, P16)["depth"] * 1.01, P16)
    # the bound of the depth values is the depth at r = 1
    assert _depth_at_one(P16) == pytest.approx(profile(1.0, P16)["depth"], rel=1e-15)
