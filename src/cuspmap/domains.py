"""Cusp domains: membership, boundary arcs near the tip, arc diameters.

Two model domains share the strip-union-disk shape: the exponential cusp
(width e^{-1/x1}) and the power cusp (width x1^{1+s}). Membership tests
compare widths in log space so the strip stays correct long after the width
itself underflows.

Boundary arcs near the tip collapse violently under the inverse chain: the
preimage radius of a boundary point at height parameter x1 is
cg * exp(-exp(1/x1)), double-exponentially small. Preimage diameters are
therefore reported both as doubles (which underflow to 0 early) and as exact
log-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .maps import MapChain, PlanePoint, mobius_to_disk
from .profile import depth, depth_inverse_log

__all__ = [
    "ExpCuspDomain",
    "PowerCuspDomain",
    "BoundaryArc",
    "PreimageArc",
    "boundary_arc",
    "arc_diameter",
    "preimage_arc",
]

# samples below this x1 have an underflowed width and are clamped to the axis
_X1_FLOOR = 5e-300


def _below_width_log(x2: float, log_width: float) -> bool:
    """|x2| < width, compared in log space."""
    ax2 = abs(x2)
    if ax2 == 0.0:
        return True
    return math.log(ax2) < log_width


@dataclass(frozen=True)
class ExpCuspDomain:
    """Strip {0 < x1 < 1, |x2| < e^{-1/x1}} joined with a disk at (2, 0)."""

    x0: tuple = (2.0, 0.0)
    r0: float = math.sqrt(1.0 + math.exp(-2.0))

    def __post_init__(self):
        if abs(self.r0 * self.r0 - (1.0 + math.exp(-2.0))) > 1e-15:
            raise DomainError("disk radius must satisfy r0^2 = 1 + e^-2")

    def contains(self, p: PlanePoint) -> bool:
        if p.at_infinity:
            return False
        in_strip = 0.0 < p.x1 < 1.0 and _below_width_log(p.x2, -1.0 / p.x1)
        in_disk = math.hypot(p.x1 - self.x0[0], p.x2 - self.x0[1]) < self.r0
        return in_strip or in_disk

    def boundary_width_log(self, x1: float) -> float:
        return -1.0 / x1


@dataclass(frozen=True)
class PowerCuspDomain:
    """Strip {0 < x1 < 1, |x2| < x1^{1+s}} joined with a disk at (s+2, 0)."""

    s: float

    def __post_init__(self):
        if not (self.s > 0.0):
            raise DomainError(f"power-cusp exponent must be positive, got {self.s}")

    @property
    def x_s(self) -> tuple:
        return (self.s + 2.0, 0.0)

    @property
    def r_s(self) -> float:
        return math.sqrt((self.s + 1.0) ** 2 + 1.0)

    def contains(self, p: PlanePoint) -> bool:
        if p.at_infinity:
            return False
        in_strip = 0.0 < p.x1 < 1.0 and _below_width_log(p.x2, (1.0 + self.s) * math.log(p.x1))
        in_disk = math.hypot(p.x1 - self.x_s[0], p.x2 - self.x_s[1]) < self.r_s
        return in_strip or in_disk


@dataclass(frozen=True)
class BoundaryArc:
    """Sampled boundary arc near the tip: all samples have |x| <= t."""

    t: float
    samples: tuple  # PlanePoints; plus branch then minus branch, x1 ascending

    def __len__(self):
        return len(self.samples)


def _last_inside(outside, lo: float, hi: float) -> float:
    """Largest x in [lo, hi] before the monotone predicate `outside` turns true.

    Bisection, at most 200 halvings, ending at float resolution.
    """
    if not outside(hi):
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at float resolution
            break
        if outside(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _x1_max_for(t: float) -> float:
    """Solve x1^2 + e^{-2/x1} = t^2 for the largest in-arc x1."""

    def overshoots(x1):
        w = math.exp(-2.0 / x1) if x1 > 2.0 / 700.0 else 0.0
        return x1 * x1 + w - t * t > 0.0

    return _last_inside(overshoots, _X1_FLOOR, t)


def boundary_arc(t: float, n: int, d: ExpCuspDomain) -> BoundaryArc:
    """Log-spaced samples of both exponential-cusp branches with |x| <= t."""
    if not (0.0 < t < 0.5):
        raise DomainError(f"arc cutoff must lie in (0, 1/2), got {t}")
    if n < 2:
        raise DomainError("need at least two samples per branch")
    x1_max = _x1_max_for(t)
    x1 = np.exp(np.linspace(math.log(_X1_FLOOR), math.log(x1_max), n))
    with np.errstate(under="ignore"):
        width = np.exp(-1.0 / x1)  # underflows to 0 near the tip, by design
    plus = [PlanePoint(float(a), float(b)) for a, b in zip(x1, width)]
    minus = [PlanePoint(float(a), float(-b)) for a, b in zip(x1, width)]
    return BoundaryArc(t=t, samples=tuple(plus + minus))


def arc_diameter(arc) -> float:
    """Exact pairwise maximum distance over the samples (O(n^2))."""
    pts = arc.samples if hasattr(arc, "samples") else arc
    if not pts:
        raise DomainError("empty arc")
    xs = np.array([(p.x1, p.x2) for p in pts])
    best = 0.0
    block = 512
    for i in range(0, len(xs), block):
        d = xs[i : i + block, None, :] - xs[None, :, :]
        best = max(best, float(np.sqrt((d * d).sum(axis=2)).max()))
    return best


@dataclass(frozen=True)
class PreimageArc:
    """Pullback of an image-boundary arc through the full chain.

    `diameter` is the double-precision pairwise diameter of the pulled-back
    samples; it underflows to 0 once the arc collapses below the smallest
    subnormal. `log_diameter` is the exact log of the true sample diameter
    4 r_t / (1 + r_t^2), always finite (or -inf past the overflow of
    exp(1/depth)).
    """

    t: float
    image_samples: tuple
    samples: tuple
    diameter: float
    log_diameter: float


def _image_arc_x1_max(t: float, params) -> float:
    """Largest cusp-curve parameter whose final-stage image has |w| <= t."""

    def beyond_t(x1):
        w = math.exp(-1.0 / x1) if x1 > 1.0 / 700.0 else 0.0
        return mobius_to_disk(PlanePoint(x1, w)).norm() > t

    return _last_inside(beyond_t, 1e-12, depth(1.0, params))


def preimage_arc(t: float, chain: MapChain, n: int) -> PreimageArc:
    """Pull the image-domain boundary arc {|w| <= t} back to the source disk.

    The arc sits on the image of the seam rays, where the pullback is exact:
    a cusp-curve point with parameter x1 comes from source radius
    depth_inverse(x1) on the seam, i.e. from the boundary-circle point
    ((r^2-1) + 2 i r) / (1 + r^2) of the source disk.
    """
    if not (0.0 < t < 0.5):
        raise DomainError(f"arc cutoff must lie in (0, 1/2), got {t}")
    if n < 2:
        raise DomainError("need at least two samples per branch")
    if not chain.has_cusp():
        raise DomainError("preimage arc needs the full chain (cusp stage missing)")
    params = chain.params
    x1_max = _image_arc_x1_max(t, params)
    x1 = np.exp(np.linspace(math.log(x1_max) - 60.0 * math.log(2.0), math.log(x1_max), n))

    image_pts = []
    source_pts = []
    log_r_max = -math.inf
    for sign in (1.0, -1.0):
        for a in x1:
            w = math.exp(-1.0 / a) if a > 1.0 / 700.0 else 0.0
            image_pts.append(mobius_to_disk(PlanePoint(float(a), sign * w)))
            log_r = depth_inverse_log(float(a), params)
            log_r_max = max(log_r_max, log_r)
            r = math.exp(log_r)  # underflows to 0 close to the tip
            den = 1.0 + r * r
            source_pts.append(PlanePoint((r * r - 1.0) / den, sign * 2.0 * r / den))

    r_t = math.exp(log_r_max)
    log_diam = math.log(4.0) + log_r_max - math.log1p(r_t * r_t)
    return PreimageArc(
        t=t,
        image_samples=tuple(image_pts),
        samples=tuple(source_pts),
        diameter=arc_diameter(source_pts),
        log_diameter=log_diam,
    )
