"""Cusp domains: membership, boundary arcs, diameters, preimage collapse."""

import math

import pytest

from cuspmap import (
    DomainError,
    ExpCuspDomain,
    MapChain,
    PlanePoint,
    PowerCuspDomain,
    arc_diameter,
    boundary_arc,
    preimage_arc,
)
from cuspmap.domains import _x1_max_for

EXP = ExpCuspDomain()
CHAIN = MapChain.default()


def test_exp_membership_examples():
    assert EXP.contains(PlanePoint(0.5, 0.0))
    # on the strip boundary, and the disk is too far: outside
    assert not EXP.contains(PlanePoint(0.5, math.exp(-2.0)))
    assert EXP.contains(PlanePoint(3.0, 0.0))  # distance 1 < r0
    assert not EXP.contains(PlanePoint(-0.1, 0.0))
    assert not EXP.contains(PlanePoint.infinity())


def test_exp_membership_deep_throat():
    # widths underflow but log-space comparison keeps the axis inside
    assert EXP.contains(PlanePoint(1e-6, 0.0))
    assert EXP.contains(PlanePoint(1e-300, 0.0))
    assert not EXP.contains(PlanePoint(1e-6, 1e-300))  # far wider than e^{-1e6}
    x1 = 0.01
    w = math.exp(-1.0 / x1)
    assert EXP.contains(PlanePoint(x1, w * (1.0 - 1e-9)))
    assert not EXP.contains(PlanePoint(x1, w))


def test_disk_radius_invariant():
    with pytest.raises(DomainError):
        ExpCuspDomain(r0=1.1)


def test_power_membership_examples():
    d = PowerCuspDomain(s=1.0)
    assert d.contains(PlanePoint(0.5, 0.0))
    assert not d.contains(PlanePoint(0.5, 0.25))  # |x2| = x1^2 exactly: excluded
    assert d.contains(PlanePoint(4.0, 0.0))  # |4 - 3| = 1 < sqrt(5)
    with pytest.raises(DomainError):
        PowerCuspDomain(s=0.0)


def test_x1_max_solves_the_cutoff_equation():
    for t in (0.05, 0.1, 0.3):
        x = _x1_max_for(t)
        assert x * x + math.exp(-2.0 / x) == pytest.approx(t * t, rel=1e-12)
    # relative gap to t is controlled by the exponentially small width term
    t = 0.1
    assert (t - _x1_max_for(t)) / t <= math.exp(-2.0 / t) / t**2


def test_boundary_arc_construction():
    arc = boundary_arc(0.1, 64, EXP)
    assert len(arc) == 128
    x1s = [p.x1 for p in arc.samples[:64]]
    assert all(b > a for a, b in zip(x1s[:-1], x1s[1:]))
    for p in arc.samples:
        assert math.hypot(p.x1, p.x2) <= 0.1 * (1.0 + 1e-15)
        if p.x2 != 0.0:
            assert math.log(abs(p.x2)) == pytest.approx(-1.0 / p.x1, rel=1e-12)
    with pytest.raises(DomainError):
        boundary_arc(0.6, 16, EXP)
    with pytest.raises(DomainError):
        boundary_arc(0.1, 1, EXP)


def test_arc_diameter_two_points():
    a, b = PlanePoint(0.0, 0.0), PlanePoint(3.0, 4.0)
    assert arc_diameter([a, b]) == 5.0


def _hull_diameter(points):
    """Independent check: rotating-calipers-free hull diameter (O(h^2))."""
    pts = sorted((p.x1, p.x2) for p in points)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    hull = half(pts)[:-1] + half(pts[::-1])[:-1]
    return max(
        math.hypot(a[0] - b[0], a[1] - b[1]) for a in hull for b in hull
    )


def test_arc_diameter_matches_hull_oracle():
    arc = boundary_arc(0.1, 48, EXP)
    assert arc_diameter(arc) == pytest.approx(_hull_diameter(arc.samples), rel=1e-12)
    # realized between the near-tip sample and a branch endpoint
    assert arc_diameter(arc) == pytest.approx(_x1_max_for(0.1), rel=1e-6)


def test_arc_diameter_monotone_in_t():
    diams = [arc_diameter(boundary_arc(t, 32, EXP)) for t in (0.02, 0.05, 0.1)]
    assert diams[0] <= diams[1] <= diams[2]


def test_arc_diameter_approaches_t():
    for k in range(10, 21):
        t = 2.0**-k
        ratio = arc_diameter(boundary_arc(t, 32, EXP)) / t
        assert 1.0 - 1e-6 <= ratio <= 1.0 + 1e-12  # upper slack: one rounding ulp


def test_membership_consistency_with_arc():
    # clamped samples (width underflowed to 0) are axis points at double
    # precision and only meaningful for distances; skip them here
    arc = boundary_arc(0.1, 16, EXP)
    for p in arc.samples:
        if p.x2 != 0.0:
            assert not EXP.contains(p)
            assert EXP.contains(PlanePoint(p.x1, p.x2 * (1.0 - 1e-9)))


def test_preimage_arc_basics():
    res = preimage_arc(0.05, CHAIN, 64)
    assert res.diameter <= 2.0
    assert math.isfinite(res.log_diameter)
    again = preimage_arc(0.05, CHAIN, 64)
    assert again.log_diameter == pytest.approx(res.log_diameter, rel=1e-9)
    # the collapse is double-exponential: the double value underflows to 0
    assert res.diameter == 0.0
    assert res.log_diameter < -1e7


def test_preimage_arc_monotone_and_linear_regime():
    logs = [preimage_arc(t, CHAIN, 32).log_diameter for t in (0.025, 0.05, 0.1, 0.2, 0.3)]
    assert all(b > a for a, b in zip(logs[:-1], logs[1:]))
    wide = preimage_arc(0.3, CHAIN, 32)
    # still representable here: the linear diameter agrees with its log
    assert wide.diameter > 0.0
    assert math.log(wide.diameter) == pytest.approx(wide.log_diameter, abs=1e-6)
    assert all(math.hypot(p.x1, p.x2) <= 1.0 + 1e-12 for p in wide.samples)


def test_preimage_arc_needs_full_chain():
    from cuspmap import MapStage, ProfileParams

    with pytest.raises(DomainError):
        preimage_arc(0.1, MapChain(ProfileParams(), (MapStage.DISK_TO_HALFPLANE,)), 16)
