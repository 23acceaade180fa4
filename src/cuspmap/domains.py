"""The image-boundary arc near the cusp tip and its pullback to the disk.

The arc is the final stage's image of the cusp curve, cut at |w| <= t. The cusp and
depth laws live in `profile`, the closed forms of f3 on the cusp curve and of f1^-1
on the seam in `maps`; this module samples the arc, finds its end and measures
diameters, as doubles (which underflow to 0 early) and as exact log-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .maps import MapChain, _cusp_point_image, _seam_preimages
from .profile import _depth_at_one, depth_inverse_log

__all__ = ["PreimageArc", "arc_diameter", "preimage_arc"]


def _last_inside(outside, lo: float, hi: float) -> float:
    """Largest x in [lo, hi] before the monotone predicate `outside` turns true.

    `outside(lo)` must be false. Bisection, ending at float resolution: within
    [0, 1] that takes at most 1,075 halvings. The result is the last point
    found inside, never one beyond.
    """
    if not outside(hi):
        return hi
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at float resolution
            break
        if outside(mid):
            hi = mid
        else:
            lo = mid
    return lo


def arc_diameter(pts) -> float:
    """Exact pairwise maximum distance over an array of complex points (O(n^2)).

    When every coordinate lies below 1/2 in magnitude, the points are first
    scaled up by a power of two, which is exact and keeps the squared
    distances of a tiny arc from underflowing.
    """
    z = np.asarray(pts, dtype=complex).ravel()
    if not z.size:
        raise DomainError("empty arc")
    k = max(0, -math.frexp(float(np.max(np.abs([z.real, z.imag]))))[1])
    x, y = np.ldexp(z.real, k), np.ldexp(z.imag, k)
    best = 0.0
    block = 512
    for i in range(0, z.size, block):
        dx = x[i : i + block, None] - x[None, :]
        dy = y[i : i + block, None] - y[None, :]
        best = max(best, float(np.sqrt(dx * dx + dy * dy).max()))
    return math.ldexp(best, -k)


@dataclass(frozen=True)
class PreimageArc:
    """Pullback of an image-boundary arc through the full chain.

    `diameter` is the double-precision pairwise diameter of the pulled-back samples,
    0 once the arc collapses below the smallest subnormal; `log_diameter` is the exact
    log of the true sample diameter, finite (or -inf past the overflow of exp(1/depth)).
    Both sample arrays are complex, the upper branch first.
    """

    t: float
    image_samples: np.ndarray
    samples: np.ndarray
    diameter: float
    log_diameter: float


def _image_arc_x1_max(t: float, params) -> float:
    """Largest cusp-curve parameter whose final-stage image has |w| <= t."""

    def beyond_t(x1):
        w = _cusp_point_image(x1)
        return math.hypot(w.real, w.imag) > t

    # |w| is about x1 near the tip, so x1 = t/2 lies inside; t >= 1e-12 keeps
    # the bracket [1e-12, depth(1)], and with it the bits of its cutoff
    lo = 1e-12 if t >= 1e-12 else 0.5 * t
    return _last_inside(beyond_t, lo, _depth_at_one(params))


def preimage_arc(t: float, chain: MapChain, n: int) -> PreimageArc:
    """Pull the image-domain boundary arc {|w| <= t} back to the source disk.

    The arc sits on the image of the seam rays, where the pullback is exact:
    a cusp-curve point with parameter x1 comes from the seam point of log
    radius depth_inverse_log(x1), which f1^-1 takes to the source circle.
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
    x1[-1] = x1_max  # exp(log x1_max) can land a few ulps beyond it
    # below t of about 3e-306 the deepest samples would underflow to 0, which
    # depth_inverse_log rejects
    x1 = np.maximum(x1, math.ulp(0.0)).tolist()

    image = np.array([_cusp_point_image(a) for a in x1])
    samples, log_diameter = _seam_preimages([depth_inverse_log(a, params) for a in x1])
    return PreimageArc(t=t, image_samples=np.concatenate([image, image.conj()]), samples=samples,
                       diameter=arc_diameter(samples), log_diameter=log_diameter)
