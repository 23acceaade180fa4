"""The image-boundary arc near the cusp tip and its pullback to the disk.

The image domain is the strip {0 < x1 < 1, |x2| < e^{-1/x1}} joined with a
disk, carried by the final Mobius stage into B((1/2, 0), 1/2). Boundary arcs
near the tip collapse violently under the inverse chain: the preimage radius
of a boundary point at height parameter x1 is cg * exp(-exp(1/x1)),
double-exponentially small. Preimage diameters are therefore reported both
as doubles (which underflow to 0 early) and as exact log-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .maps import MapChain, PlanePoint, mobius_to_disk
from .profile import depth, depth_inverse_log

__all__ = [
    "PreimageArc",
    "arc_diameter",
    "preimage_arc",
]


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


def arc_diameter(pts) -> float:
    """Exact pairwise maximum distance over a sequence of points (O(n^2))."""
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
    exp(depth_inverse_log(x1)) on the seam, i.e. from the boundary-circle point
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
    log_r_t = -math.inf
    for sign in (1.0, -1.0):
        for a in x1:
            w = math.exp(-1.0 / a) if a > 1.0 / 700.0 else 0.0
            image_pts.append(mobius_to_disk(PlanePoint(float(a), sign * w)))
            log_r = depth_inverse_log(float(a), params)
            log_r_t = max(log_r_t, log_r)
            r = math.exp(log_r)  # underflows to 0 close to the tip
            den = 1.0 + r * r
            source_pts.append(PlanePoint((r * r - 1.0) / den, sign * 2.0 * r / den))

    r_t = math.exp(log_r_t)
    log_diam = math.log(4.0) + log_r_t - math.log1p(r_t * r_t)
    return PreimageArc(
        t=t,
        image_samples=tuple(image_pts),
        samples=tuple(source_pts),
        diameter=arc_diameter(source_pts),
        log_diameter=log_diam,
    )
