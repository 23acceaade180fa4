"""Radial profile driving the cusp squeeze, and its depth and cusp laws.

Three curves of the source radius r control the map: the depth 1/loglog(cg/r)
(the depth law), the aspect (the width e^{-1/depth} of the cusp law,
`_cusp_edge`, over the depth) and the image radius. Everything is evaluated
through l1 = log(cg/r), l2 = log(l1), which keeps radii down to 1e-300 representable:

    depth        = 1 / l2
    aspect       = l2 / l1          (identical to exp(-1/depth)/depth)
    image_radius = depth * sqrt(1 + aspect^2)

Derivatives are closed forms obtained by the chain rule; finite differences
fail at extreme radii, the closed forms do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["ProfileParams", "depth_inverse_log"]

# Dyadic grid depth used by the construction-time monotonicity check.
_CHECK_LEVELS = 48


@dataclass(frozen=True)
class ProfileParams:
    """Cusp constant cg of the profile on the radius range (0, 1].

    The curves are positive and strictly increasing on (0, 1] only when
    loglog(cg) > 0; both facts are checked at construction, the
    monotonicity numerically on a dyadic grid.
    """

    cg: float = 16.0

    def __post_init__(self):
        if not (self.cg > 0.0 and math.isfinite(self.cg)):
            raise DomainError(f"cusp constant must be positive and finite, got {self.cg}")
        l1 = math.log(self.cg)
        if l1 <= 0.0 or math.log(l1) <= 0.0:
            raise DomainError(f"profile positivity fails at r = 1: loglog({self.cg}) <= 0")
        rs = 2.0 ** -np.arange(_CHECK_LEVELS, dtype=float)
        d, g = _curves(np.log(rs), l1)[2:4]
        if not (np.all(np.diff(d) < 0.0) and np.all(np.diff(g) < 0.0)):
            raise DomainError("depth/image radius are not strictly increasing on (0, 1]")

    def log_cg(self) -> float:
        return math.log(self.cg)


def _curves(logr, log_cg):
    """Vector core: (l1, l2, depth, image_radius, aspect, slant) from log r.

    slant = sqrt(1 + aspect^2). Raises DomainError if any radius leaves the
    positivity region.
    """
    l1 = log_cg - logr
    l2 = np.log(np.where(l1 > 0.0, l1, np.nan))
    if not np.all(l1 > 0.0) or not np.all(l2 > 0.0):
        raise DomainError("loglog(cg/r) <= 0: radius outside the profile's positivity region")
    g = 1.0 / l2
    aspect = l2 / l1
    slant = np.sqrt(1.0 + aspect * aspect)
    return l1, l2, g, g * slant, aspect, slant


def _scaled_rates(l1, l2, g, aspect, slant):
    """r-scaled derivatives: (r*depth', r*aspect', r*image_radius')."""
    r_dg = 1.0 / (l1 * l2 * l2)
    r_da = (l2 - 1.0) / (l1 * l1)
    r_dG = (r_dg * (1.0 + aspect * aspect) + g * aspect * r_da) / slant
    return r_dg, r_da, r_dG


def _depth_at_one(params: ProfileParams) -> float:
    """The cusp depth at r = 1, 1/loglog(cg): the largest depth of the profile."""
    return 1.0 / math.log(params.log_cg())


def depth_inverse_log(value: float, params: ProfileParams) -> float:
    """log of the radius with the given depth, log cg - exp(1/value).

    Finite far past the underflow of the radius itself.
    """
    if not (0.0 < value and math.isfinite(value)):
        raise DomainError(f"depth value {value!r} outside (0, 1/loglog(cg)]")
    if value > _depth_at_one(params) * (1.0 + 1e-12):
        raise DomainError(f"depth value {value!r} exceeds the depth at r = 1")
    try:
        e = math.exp(1.0 / value)
    except OverflowError:
        return -math.inf
    return params.log_cg() - e


def _depth_inverse_log_values(depth, log_cg):
    """depth_inverse_log on arrays, unchecked and by np.exp (-inf past its overflow)."""
    with np.errstate(over="ignore"):
        return log_cg - np.exp(1.0 / depth)


def _cusp_edge(x1: float) -> float:
    """The cusp law: the image domain's half-width e^{-1/x1} at depth x1 (0 near the tip)."""
    return math.exp(-1.0 / x1)
