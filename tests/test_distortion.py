"""Distortion: matrix oracles, FD agreement, norms, fields, envelope fit."""

import math
import warnings

import numpy as np
import pytest

from cuspmap import (
    DomainError,
    MapChain,
    MapStage,
    ProfileParams,
    SeamError,
    chain_distortion_values,
    cusp_jacobian_fd_values,
    cusp_jacobian_values,
    distortion,
    distortion_table,
    fit_growth_envelope,
    op_norm,
)
from cuspmap.distortion import Jacobian2, _scaled_entries, distortion_values
from cuspmap.maps import _squeeze_polar, normalize_angle
from cuspmap.profile import _curves
from cuspmap.verify import halton

PARAMS = ProfileParams()

# mpmath oracle (50 digits), cg = 16
ORACLE_OUTER_PI = (3.756043644952132860834, 0.0, 94.95275148470697958403)       # (0.01, pi)
ORACLE_OUTER_3PI4 = (3.756043644952132860834, 0.4429786342800784639799,
                     94.95275148470697958403)                                   # (0.01, 3pi/4)
ORACLE_INNER_04 = (3.756043644952132860834, 0.2256071658552684937787,
                   8.730368162826142873241)                                     # (0.01, 0.4)
ORACLE_K_2POW64_PI = 347.20868491078056
ORACLE_RATIO_1E30_PI = 1.939767298912897578916


def matrix(r, theta):
    """The squeeze's displayed matrix at one point, through the array path."""
    entries = cusp_jacobian_values([r], [normalize_angle(theta)], PARAMS)
    return Jacobian2(*(float(a[0]) for a in entries))


def fd_matrix(r, theta, h=1e-7):
    entries = cusp_jacobian_fd_values([r], [normalize_angle(theta)], PARAMS, h)
    return Jacobian2(*(float(a[0]) for a in entries))


def f1_inv(w: complex) -> complex:
    """The inverse of the first Mobius stage, as a Python complex division."""
    return (w - 1.0) / (w + 1.0)


def chain_k(x: complex, chain) -> float:
    """The chain's K at one source point, through the array path."""
    return float(chain_distortion_values(x, chain))


@pytest.mark.parametrize(
    "theta,oracle",
    [(math.pi, ORACLE_OUTER_PI), (3 * math.pi / 4, ORACLE_OUTER_3PI4), (0.4, ORACLE_INNER_04)],
)
def test_matrix_against_multiprecision_oracle(theta, oracle):
    m = matrix(0.01, theta)
    a11, a21, a22 = oracle
    assert m.a11 == pytest.approx(a11, rel=1e-10)
    assert m.a21 == pytest.approx(a21, rel=1e-10, abs=1e-300)
    assert m.a22 == pytest.approx(a22, rel=1e-10)
    assert m.a12 == 0.0


def test_shear_vanishes_on_the_axis_ray():
    assert matrix(0.37, 0.0).a21 == 0.0


def test_fd_agreement_inner_and_outer():
    for theta in (1.0, math.pi):
        a, f = matrix(0.3, theta), fd_matrix(0.3, theta)
        fro = math.sqrt(a.a11**2 + a.a21**2 + a.a22**2)
        dev = max(abs(f.a11 - a.a11), abs(f.a12 - a.a12),
                  abs(f.a21 - a.a21), abs(f.a22 - a.a22)) / fro
        assert dev <= 1e-6


def test_fd_step_refinement_second_order():
    a = matrix(0.3, 1.0)

    def err(h):
        f = fd_matrix(0.3, 1.0, h=h)
        return max(abs(f.a11 - a.a11), abs(f.a21 - a.a21), abs(f.a22 - a.a22))

    e3, e4, e5 = err(1e-3), err(1e-4), err(1e-5)
    assert e3 > e4 > e5
    assert e4 / e3 < 0.05  # roughly h^2: a decade in h buys ~two in error


def test_fd_guards():
    with pytest.raises(SeamError):
        fd_matrix(0.5, math.pi / 2 + 1e-9)
    with pytest.raises(SeamError):
        fd_matrix(1.0 - 1e-9, 1.0)
    with pytest.raises(DomainError):
        matrix(1.5, 1.0)
    # the array forms refuse a whole batch for one bad point
    with pytest.raises(SeamError):
        cusp_jacobian_fd_values([0.5, 0.5], [1.0, math.pi / 2 + 1e-9], PARAMS, h=1e-7)
    with pytest.raises(SeamError):
        cusp_jacobian_fd_values([0.5, 1.0 - 1e-9], [1.0, 1.0], PARAMS, h=1e-7)
    with pytest.raises(DomainError):
        cusp_jacobian_fd_values([0.5, 0.0], [1.0, 1.0], PARAMS, h=1e-7)
    with pytest.raises(DomainError):
        cusp_jacobian_values([0.5, 1.5], [1.0, 1.0], PARAMS)


def point_jacobians(r, theta, h=1e-7):
    """Reference: the analytic and FD entries of one point, on doubles."""
    m11, m21, m22, _ = _scaled_entries(np.float64(math.log(r)), np.float64(theta),
                                       PARAMS.log_cg())
    hr = h * r
    rho, phi = _squeeze_polar(np.array([r + hr, r - hr, r, r, r]),
                              np.array([theta, theta, theta + h, theta - h, theta]), PARAMS)
    u, v = rho * np.cos(phi), rho * np.sin(phi)
    col_r = ((u[0] - u[1]) / (2.0 * hr), (v[0] - v[1]) / (2.0 * hr))
    col_t = ((u[2] - u[3]) / (2.0 * h * r), (v[2] - v[3]) / (2.0 * h * r))
    rho0 = math.hypot(u[4], v[4])
    c, s = u[4] / rho0, v[4] / rho0
    fd = [c * col_r[0] + s * col_r[1], c * col_t[0] + s * col_t[1],
          -s * col_r[0] + c * col_r[1], -s * col_t[0] + c * col_t[1]]
    return [float(m11) / r, 0.0, float(m21) / r, float(m22) / r], [float(e) for e in fd]


def test_array_jacobians_equal_the_point_wrappers():
    pts = halton(50, skip=7)
    r = np.exp(math.log(1e-6) + pts[:, 0] * (math.log(0.9) - math.log(1e-6)))
    for lo, hi in ((-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3),
                   (math.pi / 2 + 1e-3, 3 * math.pi / 2 - 1e-3)):
        theta = normalize_angle(lo + pts[:, 1] * (hi - lo))
        analytic = np.column_stack(cusp_jacobian_values(r, theta, PARAMS)).tolist()
        fd = np.column_stack(cusp_jacobian_fd_values(r, theta, PARAMS, h=1e-7)).tolist()
        for ri, ti, a, f in zip(r.tolist(), theta.tolist(), analytic, fd):
            assert point_jacobians(ri, ti) == (a, f)


def test_op_norm_basics():
    assert op_norm(Jacobian2(1, 0, 0, 1)) == pytest.approx(1.0)
    assert op_norm(Jacobian2(3, 0, 0, 2)) == pytest.approx(3.0)
    assert op_norm(Jacobian2(0, 0, 1, 0)) == pytest.approx(1.0)


def test_op_norm_against_unit_vector_sweep():
    m = Jacobian2(0.7, 0.0, -1.3, 2.1)
    angles = np.linspace(0.0, 2.0 * math.pi, 10000, endpoint=False)
    stretch = np.hypot(
        m.a11 * np.cos(angles) + m.a12 * np.sin(angles),
        m.a21 * np.cos(angles) + m.a22 * np.sin(angles),
    )
    assert op_norm(m) == pytest.approx(float(stretch.max()), rel=1e-7)


def test_distortion_conventions():
    # conformal matrices have distortion exactly 1
    for a, b in ((1.0, 0.0), (0.3, -0.7), (2.0, 2.0)):
        d = distortion(Jacobian2(a, -b, b, a))
        assert d.K == pytest.approx(1.0, rel=1e-14)
    assert distortion(Jacobian2(2, 0, 0, 1)).K == pytest.approx(2.0)
    # degenerate and non-finite matrices take the conventional value 1
    assert distortion(Jacobian2(1, 0, 0, 0)).K == 1.0
    assert distortion(Jacobian2(1, 0, 0, -1)).K == 1.0
    assert distortion(Jacobian2(math.inf, 0, 0, 1)).K == 1.0


@pytest.mark.parametrize("r", [1e-100, 1e-300])
def test_point_distortion_at_deep_radii(r):
    # entries of size 1/(r |log r|) whose squares leave the double range
    d = distortion(matrix(r, 0.3))
    theta = normalize_angle(0.3)
    op, _, k = distortion_table(math.log(r), theta, PARAMS)
    assert d.K == pytest.approx(float(distortion_values(math.log(r), theta, PARAMS)), rel=1e-12)
    assert d.op_norm == pytest.approx(float(op), rel=1e-12)
    assert op_norm(matrix(r, 0.3)) == d.op_norm


def test_field_bounds_and_sector_comparison():
    rs = np.geomspace(1e-8, 0.99, 12)
    thetas = np.array([0.0, 0.8, math.pi / 2, math.pi, 4.2])
    _, det, k = distortion_table(np.log(rs)[:, None], thetas[None, :], PARAMS)
    assert k.shape == det.shape == (len(rs), len(thetas))
    assert np.all(k >= 1.0)
    assert np.all(det > 0.0)
    for r in (1e-4, 1e-6, 1e-8):
        k_in = distortion(matrix(r, 0.0)).K
        k_out = distortion(matrix(r, math.pi)).K
        assert k_out > k_in


def test_field_moderate_away_from_tip():
    rs = np.geomspace(0.9, 1.0, 8)
    thetas = np.linspace(-math.pi / 2 + 1e-6, 3 * math.pi / 2 - 1e-6, 32)
    k = distortion_table(np.log(rs)[:, None], thetas[None, :], PARAMS)[2]
    assert k.max() < 1e3


def test_deep_values_against_oracle():
    k = float(distortion_values(np.log(2.0**-64), math.pi, PARAMS))
    assert k == pytest.approx(ORACLE_K_2POW64_PI, rel=1e-12)


def test_axis_ray_distortion_is_the_diagonal_ratio_at_deep_log_radii():
    # at theta = 0 the squeeze matrix is diagonal, so K is the ratio of its
    # diagonal entries; the entries shrink like 1/log r, and squaring them
    # must not underflow into a wrong K
    logr = -np.geomspace(1.0, 1e300, 301)
    zero = np.zeros_like(logr)
    m11, m21, m22, _ = _scaled_entries(logr, zero, PARAMS.log_cg())
    assert np.all(m21 == 0.0)
    ratio = np.maximum(m11 / m22, m22 / m11)
    assert np.all(np.isfinite(ratio))
    k = distortion_values(logr, zero, PARAMS)
    assert np.all(np.abs(k - ratio) <= 1e-12 * ratio)
    # off the axis: the closed form on entries divided by m11 in the test
    theta = np.full_like(logr, 0.3)
    m11, m21, m22, _ = _scaled_entries(logr, theta, PARAMS.log_cg())
    b, c = m21 / m11, m22 / m11
    t = 1.0 + b * b + c * c
    want = (t + np.sqrt(t * t - 4.0 * c * c)) / (2.0 * c)
    k = distortion_values(logr, theta, PARAMS)
    assert np.all(np.abs(k - want) <= 1e-12 * want)


def test_monotone_blowup_along_outer_ray():
    logr = np.log(np.array([1e-4, 1e-8, 1e-16, 1e-32]))
    ks = distortion_values(logr, np.full(4, math.pi), PARAMS)
    assert all(b > a for a, b in zip(ks[:-1], ks[1:]))


def test_chain_distortion_matches_squeeze():
    chain = MapChain(PARAMS)
    x = f1_inv(complex(0.2 * math.cos(2.5), 0.2 * math.sin(2.5)))
    k_chain = chain_k(x, chain)
    k_squeeze = distortion(matrix(0.2, 2.5)).K
    assert k_chain == pytest.approx(k_squeeze, rel=1e-9)
    # without the squeeze the chain is conformal
    only_mobius = MapChain(PARAMS, (MapStage.DISK_TO_HALFPLANE,))
    assert chain_k(x, only_mobius) == 1.0


def test_chain_distortion_center():
    # f1(0) = 1: the chain's distortion at the origin is the squeeze's at (1, 0)
    chain = MapChain(PARAMS)
    want = distortion(matrix(1.0, 0.0)).K
    assert chain_k(0j, chain) == pytest.approx(want, rel=1e-12)


def test_chain_distortion_blows_up_toward_the_singular_point():
    chain = MapChain(PARAMS)
    ks = [chain_k(complex(-1.0 + 10.0**-k, 0.0), chain) for k in (2, 4, 8, 16)]
    assert all(b > a for a, b in zip(ks[:-1], ks[1:]))


def test_chain_distortion_values_match_the_scalar_composition():
    # reference: f1 as a Python complex division, polar coordinates by
    # math.atan2, the displayed matrix and the 2x2 closed forms on doubles;
    # beyond r = 1 the extension's diagonal differential diag(G(1), G(1) tang).
    # K comes from chain_distortion_values, op_norm and jac_det (and K again)
    # from distortion_table at the squeeze's polar point inside the unit disk
    chain = MapChain(PARAMS)
    pts = halton(4000, skip=3)
    rad = 0.999 * np.sqrt(pts[:, 0])
    z = rad * np.exp(2j * math.pi * pts[:, 1])
    _, _, _, g1, aspect1, _ = _curves(np.float64(0.0), PARAMS.log_cg())  # at r = 1
    k_values = chain_distortion_values(z, chain)
    worst = {"K": 0.0, "op_norm": 0.0, "jac_det": 0.0}
    for zi, ki in zip(z.tolist(), k_values):
        w = (zi + 1.0) / (1.0 - zi)
        r, phi = math.hypot(w.real, w.imag), math.atan2(w.imag, w.real)
        theta = normalize_angle(phi)
        if r <= 1.0:
            ref = distortion(matrix(r, phi))
            op, det, k = distortion_table(math.log(r), theta, PARAMS)
            assert float(k) == pytest.approx(ki, rel=1e-14)
            got = {"op_norm": float(op), "jac_det": float(det)}
        else:
            tang = (2.0 / math.pi) * math.atan(aspect1)
            tang = tang if abs(theta) < math.pi / 2 else 2.0 - tang
            ref = distortion(Jacobian2(g1, 0.0, 0.0, g1 * tang))
            got = {}
        got["K"] = float(ki)
        for name, value in got.items():
            want = getattr(ref, name)
            worst[name] = max(worst[name], abs(value - want) / want)
    assert max(worst.values()) <= 1e-12


def test_chain_distortion_extension_constants():
    # source points outside the preimage of the unit squeeze disk
    chain = MapChain(PARAMS)
    inner_pt = f1_inv(complex(5.0, 0.0))     # maps to r = 5, theta = 0
    outer_pt = f1_inv(complex(-5.0, 0.1))    # r > 1, outer sector
    assert chain_k(inner_pt, chain) == pytest.approx(4.456781169540907827252, rel=1e-12)
    assert chain_k(outer_pt, chain) == pytest.approx(1.775622817912998450395, rel=1e-12)


def test_envelope_outer_ray():
    rs = np.geomspace(1e-30, 1e-2, 29)
    fit = fit_growth_envelope(rs, math.pi, PARAMS)
    assert fit.passed
    assert fit.ratios[0] == pytest.approx(ORACLE_RATIO_1E30_PI, rel=1e-12)
    # two-window stability of the fitted constant (max ratio), within 5%
    deep = fit_growth_envelope(np.geomspace(1e-30, 1e-20, 11), math.pi, PARAMS)
    shallow = fit_growth_envelope(np.geomspace(1e-20, 1e-10, 11), math.pi, PARAMS)
    assert abs(deep.ratio_max / shallow.ratio_max - 1.0) <= 0.05


def test_envelope_inner_ray_decays():
    rs = np.geomspace(1e-30, 1e-2, 29)
    fit = fit_growth_envelope(rs, 0.0, PARAMS)
    assert not fit.passed  # inner ratios sink through the 0.05 floor
    assert fit.ratios[0] < 0.05
    assert fit.ratios[0] < fit.ratios[-1]  # decaying toward 0 as r -> 0


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_envelope_fit_refuses_a_non_finite_angle(theta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy sees the angle
        with pytest.raises(DomainError):
            fit_growth_envelope([1e-3, 1e-2], theta, PARAMS)
