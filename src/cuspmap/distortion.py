"""Differential matrices, operator norm, and the pointwise distortion field.

The squeeze stage maps polar to polar, so its differential is expressed in
the orthonormal frames aligned with the polar directions at the source and
image points. In those frames the matrix is lower triangular: radial stretch
on the diagonal's first entry, tangential stretch on the second, and a shear
term from the radius-dependent angle map. The upper-right entry vanishes
identically.

Distortion is operator-norm squared over Jacobian determinant, with the value
1 at degenerate points. The Mobius stages are conformal and contribute
nothing, so the full chain's distortion at x equals the squeeze's distortion
at the corresponding polar point.

All field evaluation runs on r-scaled entries computed from log r, which
keeps the asymptotic regime (log-radii to -1e40 and beyond) in range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SeamError
from .maps import (
    _HALF_PI,
    _SECTORS,
    _TO_HALFPLANE,
    MapChain,
    MapStage,
    _mobius_values,
    _polar,
    _squeeze_polar,
    normalize_angle,
)
from .profile import ProfileParams, _curves, _scaled_rates

__all__ = [
    "Jacobian2",
    "DistortionSample",
    "EnvelopeFit",
    "cusp_jacobian_values",
    "cusp_jacobian_fd_values",
    "op_norm",
    "distortion",
    "distortion_values",
    "distortion_table",
    "chain_distortion_values",
    "fit_growth_envelope",
]


@dataclass(frozen=True)
class Jacobian2:
    """2x2 differential in polar-aligned frames."""

    a11: float
    a12: float
    a21: float
    a22: float


@dataclass(frozen=True)
class DistortionSample:
    op_norm: float
    jac_det: float
    K: float


def _scaled_entries(logr, theta, log_cg):
    """Entries (a11, a21, a22) times min(r, 1), and the tangential factor.

    Beyond r = 1 the radial extension's differential is the constant
    diag(G(1), G(1) * tang).
    """
    beyond = logr > 0.0
    l1, l2, g, G, aspect, slant = _curves(np.minimum(logr, 0.0), log_cg)
    # below log r = -1e154, l1^2 overflows and r_da is 0 (its true value underflows)
    with np.errstate(over="ignore"):
        _, r_da, r_dG = _scaled_rates(l1, l2, g, aspect, slant)
    half_angle = np.arctan(aspect)
    # capacity grids pass 10^5 points: release each temporary once done
    del l1, l2, aspect
    m11 = np.where(beyond, G, r_dG)
    del G, r_dG
    inner = (theta > -_HALF_PI) & (theta < _HALF_PI)
    outer_theta = np.where(theta >= _HALF_PI, theta, theta + 2.0 * math.pi)
    shear = np.where(inner, 2.0 * theta / math.pi, 2.0 - 2.0 * outer_theta / math.pi)
    del outer_theta
    m21 = np.where(beyond, 0.0, shear * g * r_da / slant)
    del shear, r_da
    tang = np.where(inner, (2.0 / math.pi) * half_angle, 2.0 - (2.0 / math.pi) * half_angle)
    m22 = tang * g * slant
    return m11, m21, m22, tang


def _matrix_invariants(a11, a12, a21, a22):
    """(max(op_norm^2 / det, 1), op_norm^2, det) of 2x2 matrices given entrywise."""
    t = a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22
    det = a11 * a22 - a12 * a21
    disc = np.sqrt(np.maximum(t * t - 4.0 * det * det, 0.0))
    return np.maximum((t + disc) / (2.0 * det), 1.0), 0.5 * (t + disc), det


def _invariants(logr, theta, log_cg):
    """K, and op_norm^2 and det of 2^s times the entries of _scaled_entries, and s.

    The entries shrink like 1/|log r|, so their squares and products in
    _matrix_invariants would underflow below about log r = -1e77 and give a
    wrong K. The power of two 2^s brings the largest entry into [1/2, 1);
    the scaling is exact and leaves K unchanged. The extension's diagonal
    differential has K = max(tang, 1/tang) exactly.
    """
    m11, m21, m22, tang = _scaled_entries(logr, theta, log_cg)
    s = -np.frexp(np.maximum(np.maximum(m11, m22), np.abs(m21)))[1]  # m11, m22 > 0
    # one entry at a time, so that at most one extra array is alive
    m11 = np.ldexp(m11, s)
    m21 = np.ldexp(m21, s)
    m22 = np.ldexp(m22, s)
    k, norm2, det = _matrix_invariants(m11, 0.0, m21, m22)
    return np.where(logr > 0.0, np.maximum(tang, 1.0 / tang), k), norm2, det, s


def _check_closed_form(logr):
    if np.any(logr > 0.0):
        raise DomainError("closed-form distortion needs r <= 1")


def distortion_values(logr, theta, params: ProfileParams):
    """Vectorized K over arrays of log-radii and normalized angles.

    Valid for log r <= 0 (the squeeze's closed-form region); log-radii may lie
    far below the double-precision radius floor.
    """
    logr = np.asarray(logr, dtype=float)
    _check_closed_form(logr)
    return _invariants(logr, np.asarray(theta, dtype=float), params.log_cg())[0]


def distortion_table(logr, theta, params: ProfileParams):
    """Arrays (op_norm, jac_det, K) of the squeeze at log r <= 0, normalized angles.

    All three come from the r-scaled entries. op_norm stays finite down to
    r = 1e-300; jac_det leaves the double range below about r = 1e-155.
    """
    logr = np.asarray(logr, dtype=float)
    _check_closed_form(logr)
    k, norm2, det, s = _invariants(logr, np.asarray(theta, dtype=float), params.log_cg())
    with np.errstate(over="ignore", divide="ignore"):
        r = np.exp(logr)
        return np.ldexp(np.sqrt(norm2), -s) / r, np.ldexp(det, -2 * s) / r / r, k


# math.log and math.hypot element by element: numpy's own can differ in the
# last bit, and the Jacobians keep the digits of their point-by-point form
_log = np.frompyfunc(math.log, 1, 1)
_hypot = np.frompyfunc(math.hypot, 2, 1)


def _check_unit_radii(r, what):
    bad = ~((r > 0.0) & (r <= 1.0))
    if np.any(bad):
        raise DomainError(f"{what} needs 0 < r <= 1, got {r[bad].flat[0]}")


def cusp_jacobian_values(r, theta, params: ProfileParams):
    """Entries (a11, a12, a21, a22) of the squeeze's displayed differential
    at arrays of radii 0 < r <= 1 and normalized angles."""
    r = np.asarray(r, dtype=float)
    _check_unit_radii(r, "analytic squeeze matrix")
    logr = np.asarray(_log(r), dtype=float)
    m11, m21, m22, _ = _scaled_entries(logr, np.asarray(theta, dtype=float), params.log_cg())
    return m11 / r, np.zeros(m22.shape), m21 / r, m22 / r


def cusp_jacobian_fd_values(r, theta, params: ProfileParams, h: float = 1e-7):
    """Central finite differences of the raw squeeze, in the same frames, at
    arrays of radii and normalized angles; entries (a11, a12, a21, a22).

    Radial step h*r, angular step h. Entirely independent of the closed-form
    derivatives: only map evaluations and frame rotations. Stencils that would
    straddle a seam or the radii {0, 1} are refused.
    """
    r, theta = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(theta, dtype=float))
    _check_unit_radii(r, "finite differences")
    hr = h * r
    for seam in (*_SECTORS[0], _SECTORS[1][1]):
        near = np.abs(theta - seam) < 2.0 * h
        if np.any(near):
            raise SeamError(f"theta {theta[near][0]} within 2h of seam {seam}")
    edge = (r + 2.0 * hr > 1.0) | (r - 2.0 * hr <= 0.0)
    if np.any(edge):
        raise SeamError(f"radius {r[edge][0]} within 2h of the extension boundary")

    # stencil: r + hr, r - hr, theta + h, theta - h, the base point
    rho, phi = _squeeze_polar(
        np.stack([r + hr, r - hr, r, r, r]),
        np.stack([theta, theta, theta + h, theta - h, theta]),
        params,
    )
    u, v = rho * np.cos(phi), rho * np.sin(phi)
    col_r = ((u[0] - u[1]) / (2.0 * hr), (v[0] - v[1]) / (2.0 * hr))
    col_t = ((u[2] - u[3]) / (2.0 * h * r), (v[2] - v[3]) / (2.0 * h * r))
    rho0 = np.asarray(_hypot(u[4], v[4]), dtype=float)
    c, s = u[4] / rho0, v[4] / rho0
    return (c * col_r[0] + s * col_r[1], c * col_t[0] + s * col_t[1],
            -s * col_r[0] + c * col_r[1], -s * col_t[0] + c * col_t[1])


def op_norm(m: Jacobian2) -> float:
    """Largest singular value, closed form for 2x2."""
    return distortion(m).op_norm


def distortion(m: Jacobian2) -> DistortionSample:
    """op_norm^2 / det where the matrix is regular; 1 otherwise.

    As in _invariants, the entries are scaled by the power of two 2^s that
    brings the largest into [1/2, 1), so that their squares stay in range
    (entries of the squeeze's matrix grow like 1/(r |log r|)).
    """
    entries = (m.a11, m.a12, m.a21, m.a22)
    s = -math.frexp(max(abs(v) for v in entries))[1]
    with np.errstate(invalid="ignore", divide="ignore"):
        k, norm2, det = _matrix_invariants(*(math.ldexp(v, s) for v in entries))
    regular = det > 0.0 and all(math.isfinite(v) for v in entries)
    with np.errstate(over="ignore"):
        return DistortionSample(float(np.ldexp(np.sqrt(norm2), -s)),
                                float(np.ldexp(det, -2 * s)), float(k) if regular else 1.0)


def chain_distortion_values(points, chain: MapChain):
    """Vectorized chain K at an array of complex source points.

    The Mobius stages are conformal, so this is the squeeze's K at the image
    of the first stage; singular points get the conventional value 1.
    """
    if not chain.has_cusp():
        return np.ones(np.shape(points))
    z = np.asarray(points, dtype=complex)
    w = _mobius_values(z, *_TO_HALFPLANE) if MapStage.DISK_TO_HALFPLANE in chain.stages else z
    r, theta = _polar(w)
    good = np.isfinite(r) & (r > 0.0)  # not the singular preimage or the first pole
    logr = np.log(np.where(good, r, 1.0))
    return np.where(good, _invariants(logr, theta, chain.params.log_cg())[0], 1.0)


@dataclass(frozen=True)
class EnvelopeFit:
    """Ratios of K against the log * loglog growth envelope along one ray."""

    theta: float
    r_values: tuple
    ratios: tuple
    ratio_min: float
    ratio_max: float
    band: tuple
    passed: bool


def fit_growth_envelope(
    r_values,
    theta: float,
    params: ProfileParams,
    band=(0.05, 2.0),
) -> EnvelopeFit:
    """Compare K(r, theta) with log(cg/r) * loglog(cg/r) along a ray.

    PASS means every ratio lies inside `band`. r_values may be given as
    radii; they are log-spaced tiny values so the computation happens on
    log r.
    """
    r = np.asarray(r_values, dtype=float)
    if np.any(r <= 0.0) or np.any(r > 1.0):
        raise DomainError("envelope fit needs radii in (0, 1]")
    if not math.isfinite(theta):
        raise DomainError(f"envelope fit needs a finite angle, got {theta}")
    logr = np.log(r)
    theta_n = normalize_angle(theta)
    k = distortion_values(logr, np.full(logr.shape, theta_n), params)
    l1 = params.log_cg() - logr
    envelope = l1 * np.log(l1)
    ratios = k / envelope
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    return EnvelopeFit(
        theta=theta_n,
        r_values=tuple(float(v) for v in r),
        ratios=tuple(float(v) for v in ratios),
        ratio_min=lo,
        ratio_max=hi,
        band=(float(band[0]), float(band[1])),
        passed=bool(band[0] <= lo and hi <= band[1]),
    )
