"""Image-boundary arcs near the tip, arc diameters, preimage collapse."""

import math

import numpy as np
import pytest

from cuspmap import (
    DomainError,
    MapChain,
    MapStage,
    arc_diameter,
    boundary_image_trace,
    chain_inverse_values,
    chain_values,
    preimage_arc,
)
from cuspmap.domains import _image_arc_x1_max
from cuspmap.maps import _cusp_point_image
from cuspmap.profile import depth_inverse_log

CHAIN = MapChain.default()
TO_DISK = MapChain(CHAIN.params, (MapStage.HALFPLANE_TO_DISK,))


def image_arc(t, n):
    """The image-boundary samples {|w| <= t} of the pulled-back arc."""
    return preimage_arc(t, CHAIN, n).image_samples


def test_x1_max_solves_the_cutoff_equation():
    for t in (0.05, 0.1, 0.3):
        x = _image_arc_x1_max(t, CHAIN.params)
        w = chain_values(complex(x, math.exp(-1.0 / x)), TO_DISK)
        assert abs(w) == pytest.approx(t, rel=1e-12)
        # without the width term the cutoff is x1 = t / (1 - t); the relative
        # gap is controlled by the exponentially small width
        assert 0.0 <= (t / (1.0 - t) - x) / x <= math.exp(-2.0 / x) / x**2


def test_boundary_arc_construction():
    arc = image_arc(0.1, 64)
    assert arc.shape == (128,) and arc.dtype == complex
    assert np.all(np.diff(arc[:64].real) > 0.0)
    # the lower branch mirrors the upper one
    assert np.array_equal(arc[64:], arc[:64].conj())
    assert np.all(np.abs(arc) <= 0.1 * (1.0 + 1e-15))
    with pytest.raises(DomainError):
        preimage_arc(0.6, CHAIN, 16)
    with pytest.raises(DomainError):
        preimage_arc(0.1, CHAIN, 1)


def test_arc_diameter_two_points():
    assert arc_diameter([0j, 3 + 4j]) == 5.0
    with pytest.raises(DomainError):
        arc_diameter([])


def _hull_diameter(points):
    """Independent check: rotating-calipers-free hull diameter (O(h^2))."""
    pts = sorted((p.real, p.imag) for p in points.tolist())

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
    arc = image_arc(0.1, 48)
    assert arc_diameter(arc) == pytest.approx(_hull_diameter(arc), rel=1e-12)
    # realized between the near-tip sample and a branch endpoint
    assert arc_diameter(arc) == pytest.approx(np.max(np.abs(arc)), rel=1e-6)


def test_arc_diameter_monotone_in_t():
    diams = [arc_diameter(image_arc(t, 32)) for t in (0.02, 0.05, 0.1)]
    assert diams[0] <= diams[1] <= diams[2]


def test_arc_diameter_approaches_t():
    for k in range(10, 21):
        t = 2.0**-k
        ratio = arc_diameter(image_arc(t, 32)) / t
        assert 1.0 - 1e-6 <= ratio <= 1.0 + 1e-12  # upper slack: a few rounding ulps



@pytest.mark.parametrize("t", [1e-13, 1e-100, 1e-300])
def test_arc_below_1e_12_reaches_its_cutoff(t):
    # the bracket used to start at 1e-12, so every such arc reached 9.99999999999e-13
    top = max(abs(complex(w)) for w in image_arc(t, 16))
    assert t * (1.0 - 1e-13) <= top <= t
    assert arc_diameter(image_arc(t, 16)) == pytest.approx(t, rel=1e-13)


def test_arc_whose_deepest_samples_underflow():
    # t * 2^-60 is below the smallest double: those samples stay at 5e-324
    image = image_arc(1e-310, 16)
    assert np.all(np.abs(image) > 0.0) and np.max(np.abs(image)) <= 2e-310


def test_arc_diameter_of_a_tiny_arc_does_not_underflow():
    assert arc_diameter([0j, 3e-200 + 4e-200j]) == 5e-200
    assert arc_diameter([5e-324, 1e-323j]) == math.hypot(5e-324, 1e-323)


def test_membership_consistency_with_arc():
    # each sample is the final-stage image of a point (x1, +-e^{-1/x1}) on the
    # boundary of the strip {|x2| < e^{-1/x1}}, compared in log space; samples
    # whose width underflowed to 0 are axis points at double precision and only
    # meaningful for distances, so they are skipped here
    checked = 0
    for z in chain_inverse_values(image_arc(0.1, 64), TO_DISK).tolist():
        if z.imag != 0.0:
            assert math.log(abs(z.imag)) == pytest.approx(-1.0 / z.real, rel=1e-9)
            assert math.log(abs(z.imag) * (1.0 - 1e-6)) < -1.0 / z.real
            checked += 1
    assert checked >= 8


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
    assert np.all(np.abs(wide.samples) <= 1.0 + 1e-12)


def arc_x1(t, n):
    """The cusp-curve parameters of the n samples per branch of the arc at t."""
    x1_max = _image_arc_x1_max(t, CHAIN.params)
    x1 = np.exp(np.linspace(math.log(x1_max) - 60.0 * math.log(2.0), math.log(x1_max), n))
    x1[-1] = x1_max
    return x1


def test_no_image_sample_lies_beyond_the_cutoff():
    # |w| as the cutoff bisection measures it; the bisection used to return
    # the midpoint of its last two doubles, and the last sample exp(log x1_max),
    # which put half of these arcs a few ulps beyond t
    for t in np.geomspace(1e-12, 0.49, 200).tolist():
        w = _cusp_point_image(_image_arc_x1_max(t, CHAIN.params))
        assert math.hypot(w.real, w.imag) <= t
        assert max(math.hypot(w.real, w.imag) for w in image_arc(t, 8).tolist()) <= t


@pytest.mark.parametrize("t,n", [(0.4, 320), (0.3, 24), (0.05, 64), (2.0**-9, 24)])
def test_preimage_arc_equals_the_point_by_point_loop(t, n):
    # reference: Python complex division for the image, Python float
    # arithmetic for the source circle points, branch by branch
    arc = preimage_arc(t, CHAIN, n)
    x1 = arc_x1(t, n)
    image, source = [], []
    for sign in (1.0, -1.0):
        for a in x1.tolist():
            w = sign * math.exp(-1.0 / a)
            image.append(complex(a, w) / complex(a + 1.0, w))
            r = math.exp(depth_inverse_log(a, CHAIN.params))
            den = 1.0 + r * r
            source.append(complex((r * r - 1.0) / den, sign * 2.0 * r / den))
    assert arc.image_samples.tolist() == image
    assert arc.samples.tolist() == source


@pytest.mark.parametrize("n", [64, 320])
@pytest.mark.parametrize("t", [0.45, 0.4, 0.3])
def test_preimage_arc_is_the_chain_inverse_of_its_image(t, n):
    # the arc's closed forms of f3 and f1^-1 stand for the chain's stages
    arc = preimage_arc(t, CHAIN, n)
    live = arc.samples.imag != 0.0  # the source radius is representable
    assert np.count_nonzero(live) >= 4
    back = chain_inverse_values(arc.image_samples[live], CHAIN)
    assert np.max(np.abs(back - arc.samples[live])) <= 4 * math.ulp(1.0)


@pytest.mark.parametrize("t,n", [(0.4, 320), (0.125, 64)])
def test_preimage_arc_image_is_the_boundary_trace(t, n):
    # bit for bit, including a sample whose cusp width e^{-1/x1} lies in (0, e^-700]
    x1 = arc_x1(t, n).tolist()
    assert any(1.0 / 745.2 < a <= 1.0 / 700.0 for a in x1)
    image = preimage_arc(t, CHAIN, n).image_samples[:n]
    rows = boundary_image_trace(x1)
    assert [(r.x1, r.x2) for r in rows] == [(w.real, w.imag) for w in image.tolist()]


def test_preimage_arc_needs_full_chain():
    with pytest.raises(DomainError):
        preimage_arc(0.1, MapChain(CHAIN.params, (MapStage.DISK_TO_HALFPLANE,)), 16)
