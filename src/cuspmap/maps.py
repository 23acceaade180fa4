"""The plane homeomorphism squeezing the unit disk onto a cusp domain.

Three stages compose left to right:

    f1: Mobius map of the unit disk onto the right half plane, (-1,0) -> 0
    f2: sector-wise polar squeeze creating the exponential cusp
    f3: Mobius map of the right half plane onto the disk B((1/2,0), 1/2)

The squeeze acts on polar coordinates (r, theta) with theta normalized to
[-pi/2, 3pi/2). The inner sector |theta| < pi/2 is compressed into the cusp
throat; the outer sector covers the rest of the image circle. Outside the
closed unit disk the squeeze continues as the radial bi-Lipschitz extension
of its unit-circle restriction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError, DomainError, RangeError
from .profile import ProfileParams, _curves, _cusp_edge, _depth_inverse_log_values, _scaled_rates

__all__ = [
    "MapStage",
    "MapChain",
    "TraceRow",
    "inner_angle_map",
    "outer_angle_map",
    "chain_values",
    "chain_inverse_values",
    "boundary_image_trace",
    "fit_tip_curvature",
]

_HALF_PI = math.pi / 2.0
_TWO_PI = 2.0 * math.pi
_SECTORS = ((-_HALF_PI, _HALF_PI), (_HALF_PI, 3.0 * _HALF_PI))  # inner, outer


def normalize_angle(theta):
    """Reduce angles into [-pi/2, 3pi/2); a float for a float, else an array.

    The inner sector is the open interval |theta| < pi/2; both seams,
    theta = +-pi/2, belong to the outer sector.
    """
    t = np.fmod(np.asarray(theta, dtype=float) + _HALF_PI, _TWO_PI)
    t = np.where(t < 0.0, t + _TWO_PI, t) - _HALF_PI
    # fmod can land exactly on the open end after rounding
    t = np.where(t >= 3.0 * _HALF_PI, -_HALF_PI, t)
    return float(t) if t.ndim == 0 else t


class MapStage(Enum):
    """Chain stages; the value is the CLI spelling (any other is a DomainError)."""

    DISK_TO_HALFPLANE = "f1"
    CUSP = "f2"
    HALFPLANE_TO_DISK = "f3"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown stage token {value!r}")


_STAGE_ORDER = (MapStage.DISK_TO_HALFPLANE, MapStage.CUSP, MapStage.HALFPLANE_TO_DISK)


@dataclass(frozen=True)
class MapChain:
    """Ordered selection of stages plus the profile parameters."""

    params: ProfileParams
    stages: tuple = _STAGE_ORDER

    def __post_init__(self):
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        if not stages:
            raise DomainError("chain must contain at least one stage")
        order = [s for s in _STAGE_ORDER if s in stages]
        if list(stages) != order or len(set(stages)) != len(stages):
            raise DomainError("stages must be distinct and in f1 -> f2 -> f3 order")

    @classmethod
    def default(cls, cg: float = ProfileParams.cg) -> "MapChain":
        return cls(ProfileParams(cg=cg))

    def has_cusp(self) -> bool:
        return MapStage.CUSP in self.stages


# ---------------------------------------------------------------------------
# Mobius stages
# ---------------------------------------------------------------------------

# Complex arrays stand for the extended plane: any non-finite entry is the
# point at infinity, and the stages write it as inf + inf j.
_INF = complex(math.inf, math.inf)

# (numerator, denominator, image of infinity) of each Mobius map:
# (z+1)/(1-z) takes the unit disk onto the right half plane (-1 -> 0, 1 -> inf),
# z/(z+1) the right half plane onto B((1/2, 0), 1/2) (inf -> 1)
_TO_HALFPLANE = (lambda z: z + 1.0, lambda z: 1.0 - z, -1.0)
_TO_HALFPLANE_INV = (lambda w: w - 1.0, lambda w: w + 1.0, 1.0)
_TO_DISK = (lambda z: z, lambda z: z + 1.0, 1.0)
_TO_DISK_INV = (lambda w: w, lambda w: 1.0 - w, -1.0)


def _mobius_values(z, num, den, at_inf):
    """num(z)/den(z) on a complex array: poles go to infinity, infinity to at_inf."""
    d = den(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = num(z) / d
    return np.where(np.isfinite(z), np.where(d == 0, _INF, q), at_inf)


# ---------------------------------------------------------------------------
# The cusp squeeze
# ---------------------------------------------------------------------------

def inner_angle_map(theta: float, half_angle: float) -> float:
    """Inner-sector angle map: compress (-pi/2, pi/2) into the cusp opening."""
    return (2.0 * theta / math.pi) * half_angle


def outer_angle_map(theta: float, half_angle: float) -> float:
    """Outer-sector angle map: stretch [pi/2, 3pi/2] over the remaining arc."""
    return 2.0 * theta - math.pi + (2.0 - 2.0 * theta / math.pi) * half_angle


def _polar(w):
    """(|w|, arg w) of a complex array, the angle normalized to [-pi/2, 3pi/2)."""
    theta = np.arctan2(w.imag, w.real)
    return np.abs(w), np.where(theta < -_HALF_PI, theta + _TWO_PI, theta)


def _polar_stage(polar_map):
    """polar_map(r, theta, params) -> (rho, phi) as a stage on complex arrays;
    the stage fixes 0 and infinity."""

    def values(w, params: ProfileParams):
        r, theta = _polar(w)
        regular = np.isfinite(r) & (r > 0.0)
        rho, phi = polar_map(np.where(regular, r, 1.0), theta, params)
        return np.where(regular, rho * np.cos(phi) + 1j * (rho * np.sin(phi)), w)

    return values


def _squeeze_polar(r, theta, params: ProfileParams):
    """Image polar coordinates (rho, phi) of arrays r > 0 and normalized theta.

    Inner rays compress linearly into the cusp opening (-half_angle,
    half_angle); outer rays stretch over the remaining arc, and both formulas
    agree at the seams. Beyond r = 1 the radius scales by G(1) and the angles
    keep the unit circle's opening.
    """
    _, _, _, G, aspect, _ = _curves(np.log(np.minimum(r, 1.0)), params.log_cg())
    half_angle = np.arctan(aspect)
    outer_theta = np.where(theta >= _HALF_PI, theta, theta + _TWO_PI)
    phi = np.where(np.abs(theta) < _HALF_PI, inner_angle_map(theta, half_angle),
                   outer_angle_map(outer_theta, half_angle))
    return np.where(r > 1.0, r * G, G), phi


# log r range of the inverse radius solve: below the floor an image radius
# cannot be matched by a double radius
_LOG_R_FLOOR = math.log(1e-320)
# Newton settles within 7 steps over the whole range at cg = 16; bisection
# alone would need about 60
_NEWTON_STEPS = 100


def _squeeze_inv_polar(rho, phi, params: ProfileParams):
    """Source (r, theta) of image polar arrays 0 < rho < inf, any angle phi.

    The radius solves G(r) = rho by Newton on u = log r with the closed-form
    slope r G'(r), kept inside a bracket that every evaluation narrows, with
    a bisection step wherever Newton would leave it. It stops once a step or
    the bracket falls below 1e-15 (1 + |u|). Image radii above G(1) lie on
    the radial extension; radii below G at the floor raise RangeError.
    theta lies in [-pi/2, 3pi/2] (3pi/2 only up to normalization).
    """
    log_cg = params.log_cg()
    _, _, _, g_ends, aspect_ends, _ = _curves(np.array([_LOG_R_FLOOR, 0.0]), log_cg)
    if np.any(rho < g_ends[0]):
        raise RangeError(f"image radius {np.min(rho)} below the double-precision "
                         f"radius floor ({g_ends[0]:.6g})")
    beyond = rho > g_ends[1] * (1.0 + 1e-15)
    target = np.minimum(rho, g_ends[1])
    lo, hi = np.full(np.shape(rho), _LOG_R_FLOOR), np.zeros(np.shape(rho))
    # depth = 1/loglog(cg/r) is G up to the factor sqrt(1 + aspect^2) ~ 1
    u = np.clip(_depth_inverse_log_values(target, log_cg), lo, hi)
    # a settled entry stops moving, so no entry depends on the others
    active = np.ones(np.shape(rho), dtype=bool)
    for _ in range(_NEWTON_STEPS):
        l1, l2, g, G, aspect, slant = _curves(u, log_cg)
        below = G < target
        lo, hi = np.where(below, u, lo), np.where(below, hi, u)
        step = u - (G - target) / _scaled_rates(l1, l2, g, aspect, slant)[2]
        newton = (step > lo) & (step < hi) | (G == target)
        step = np.where(newton, step, 0.5 * (lo + hi))
        tol = 1e-15 * (1.0 + np.abs(u))
        settled = (np.abs(step - u) <= tol) | (hi - lo <= tol)
        u = np.where(active, step, u)
        active &= ~settled
        if not np.any(active):
            break
    else:
        raise ConvergenceError("image-radius Newton solve did not settle")
    half_angle = np.where(beyond, np.arctan(aspect_ends[1]),
                          np.arctan(_curves(u, log_cg)[4]))
    # the image angle, normalized into [-half_angle, 2 pi - half_angle)
    t = np.fmod(phi + half_angle, _TWO_PI)
    phi = np.where(t < 0.0, t + _TWO_PI, t) - half_angle
    # seam angles take the outer branch and map to theta = +-pi/2 exactly
    outer_phi = np.where(phi >= half_angle, phi, phi + _TWO_PI)
    theta = np.where(
        np.abs(phi) < half_angle,
        phi * math.pi / (2.0 * half_angle),
        (outer_phi + math.pi - 2.0 * half_angle) / (2.0 - 2.0 * half_angle / math.pi),
    )
    return np.where(beyond, rho / g_ends[1], np.exp(u)), theta


# ---------------------------------------------------------------------------
# Chain composition
# ---------------------------------------------------------------------------

# stage -> (forward, inverse), each acting on a complex array
_STAGE_VALUES = {
    MapStage.DISK_TO_HALFPLANE: (lambda z, params: _mobius_values(z, *_TO_HALFPLANE),
                                 lambda w, params: _mobius_values(w, *_TO_HALFPLANE_INV)),
    MapStage.CUSP: (_polar_stage(_squeeze_polar), _polar_stage(_squeeze_inv_polar)),
    MapStage.HALFPLANE_TO_DISK: (lambda z, params: _mobius_values(z, *_TO_DISK),
                                 lambda w, params: _mobius_values(w, *_TO_DISK_INV)),
}


def chain_values(z, chain: MapChain) -> np.ndarray:
    """The chain on complex source points (non-finite entries are infinity)."""
    w = np.array(z, dtype=complex)
    for stage in chain.stages:
        w = _STAGE_VALUES[stage][0](w, chain.params)
    return w


def chain_inverse_values(w, chain: MapChain) -> np.ndarray:
    """The inverse chain on complex image points (non-finite entries are infinity)."""
    z = np.array(w, dtype=complex)
    for stage in reversed(chain.stages):
        z = _STAGE_VALUES[stage][1](z, chain.params)
    return z


# ---------------------------------------------------------------------------
# The cusp boundary near the tip, in closed form
# ---------------------------------------------------------------------------

def _cusp_point_image(x1: float) -> complex:
    """f3 of the cusp-curve point (x1, e^{-1/x1}), by Python's complex
    division (numpy's can differ in the last bit)."""
    z = complex(x1, _cusp_edge(x1))
    num, den, _ = _TO_DISK
    return num(z) / den(z)


def _seam_preimages(log_r) -> tuple:
    """f1^-1 of the seam points +-i r from a list of log r: the points ((r^2-1) +- 2 i r)
    / (1 + r^2) of the unit circle, upper branch first, and the exact log of their
    diameter 4 r_t / (1 + r_t^2), r_t the largest r (finite where r underflows to 0)."""
    # math.exp, not np.exp: the two can differ in the last bit
    r = np.array([math.exp(v) for v in log_r])  # underflows to 0 close to the tip
    den = 1.0 + r * r
    source = (r * r - 1.0) / den + 1j * (2.0 * r / den)
    r_t = math.exp(max(log_r))
    return (np.concatenate([source, source.conj()]),
            math.log(4.0) + max(log_r) - math.log1p(r_t * r_t))


@dataclass(frozen=True)
class TraceRow:
    """Image of the cusp-boundary point (t, e^{-1/t}) under the final stage."""

    t: float
    x1: float
    x2: float
    residual: float  # Re w - t in closed form, expected O(t^2)
    residual_over_t2: float


def _over_square(x: float, t: float) -> float:
    """x / t^2, also where t^2 is no longer a normal double: there x / t / t
    gives the true quotient (inf, or 0 for x = 0) in place of a division by
    an inexact or zero square."""
    t2 = t**2
    return x / t2 if t2 >= sys.float_info.min else x / t / t


def boundary_image_trace(t_values) -> list:
    """Trace how the final Mobius stage bends the cusp boundary near the tip."""
    rows = []
    for t in t_values:
        if not (0.0 < t < 1.0):
            raise DomainError(f"trace parameter {t!r} outside (0, 1)")
        y = _cusp_edge(t)
        z = _cusp_point_image(t)
        # Re z - t without the cancellation of z.real - t
        residual = (y * y * (1.0 - t) - t * t * (1.0 + t)) / ((1.0 + t) ** 2 + y * y)
        # where t*t is not a normal double, y is 0, the residual has
        # underflowed with t*t, and the exact quotient is -(1+t) / (1+t)^2
        over_t2 = (-(1.0 + t) / (1.0 + t) ** 2 if t**2 < sys.float_info.min
                   else _over_square(residual, t))
        rows.append(TraceRow(t=t, x1=z.real, x2=z.imag, residual=residual,
                             residual_over_t2=over_t2))
    return rows


def fit_tip_curvature(rows, window) -> float:
    """Least-squares constant C in |residual| <= C t^2 over a t-window."""
    lo, hi = window
    num = sum(abs(r.residual) * r.t**2 for r in rows if lo <= r.t <= hi)
    den = sum(r.t**4 for r in rows if lo <= r.t <= hi)
    if den == 0.0:
        raise DomainError(f"no trace rows inside window [{lo}, {hi}]")
    return num / den
