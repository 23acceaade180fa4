"""Map chain: Mobius stages, the squeeze, inverses, boundary asymptotics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cuspmap import (
    DomainError,
    MapChain,
    MapStage,
    ProfileParams,
    RangeError,
    boundary_image_trace,
    chain_inverse_values,
    chain_values,
)
from cuspmap.maps import fit_tip_curvature, inner_angle_map, normalize_angle, outer_angle_map
from cuspmap.profile import _curves
from cuspmap.verify import halton

PARAMS = ProfileParams()
CHAIN = MapChain(PARAMS)
SQUEEZE = MapChain(PARAMS, (MapStage.CUSP,))
TO_HALFPLANE = MapChain(PARAMS, (MapStage.DISK_TO_HALFPLANE,))
TO_DISK = MapChain(PARAMS, (MapStage.HALFPLANE_TO_DISK,))
INF = complex(math.inf, math.inf)


def profile_at(r: float) -> dict:
    """Depth, image radius and cusp half-angle at one radius, from the array core."""
    _, _, g, G, aspect, _ = _curves(np.float64(math.log(r)), PARAMS.log_cg())
    return {"depth": float(g), "image_radius": float(G), "half_angle": math.atan(aspect)}


def stage(chain, z: complex) -> complex:
    """A one-stage chain at one point."""
    return complex(chain_values(z, chain))


def stage_inv(chain, w: complex) -> complex:
    return complex(chain_inverse_values(w, chain))


def squeeze(r: float, theta: float) -> complex:
    """The squeeze stage at the polar point (r, theta), through the array path."""
    return complex(chain_values(r * complex(math.cos(theta), math.sin(theta)), SQUEEZE))


def squeeze_inv(w: complex):
    """(r, normalized theta) of the inverse squeeze at w, through the array path."""
    z = complex(chain_inverse_values(w, SQUEEZE))
    return abs(z), normalize_angle(math.atan2(z.imag, z.real))


def test_mobius_to_halfplane_special_values():
    assert stage(TO_HALFPLANE, 0) == 1.0
    assert stage(TO_HALFPLANE, -1) == 0.0
    assert stage(TO_HALFPLANE, 1j) == pytest.approx(1j, abs=1e-15)
    assert not np.isfinite(stage(TO_HALFPLANE, 1))  # the pole goes to infinity
    assert stage(TO_HALFPLANE, INF) == -1.0


def test_mobius_to_halfplane_inverse():
    assert stage_inv(TO_HALFPLANE, 1) == 0.0
    assert stage_inv(TO_HALFPLANE, 0) == -1.0
    assert stage_inv(TO_HALFPLANE, 1j) == pytest.approx(1j, abs=1e-15)
    assert stage_inv(TO_HALFPLANE, INF) == 1.0
    z = np.array([0.3 + 0.2j, -0.5j, 2.0 + 1.0j])
    back = chain_inverse_values(chain_values(z, TO_HALFPLANE), TO_HALFPLANE)
    assert np.all(np.abs(back - z) <= 1e-14)


def test_mobius_to_disk_special_values():
    assert stage(TO_DISK, 0) == 0.0
    assert stage(TO_DISK, 1) == 0.5
    assert stage(TO_DISK, INF) == 1.0
    assert not np.isfinite(stage(TO_DISK, -1))  # the pole goes to infinity
    # the right half plane lands in B((1/2, 0), 1/2)
    w = chain_values([0.1 + 5j, 3.0 - 0.2j, 0.01 + 0j], TO_DISK)
    assert np.all(np.abs(w - 0.5) < 0.5 + 1e-15)


def test_mobius_to_disk_round_trip():
    z = np.array([0.2 + 0.1j, 1.5 - 2j, 0.7j])
    back = chain_inverse_values(chain_values(z, TO_DISK), TO_DISK)
    assert np.all(np.abs(back - z) <= 1e-14 * np.maximum(1.0, np.abs(z)))
    assert stage_inv(TO_DISK, INF) == -1.0


def test_polar_normalization_and_sectors():
    # angles land in [-pi/2, 3pi/2): the inner sector is |theta| < pi/2, and
    # both seams stay on the outer sector's closed interval [pi/2, 3pi/2]
    inner = normalize_angle(0.3)
    assert inner == pytest.approx(0.3) and abs(inner) < math.pi / 2
    for seam in (math.pi / 2, -math.pi / 2):
        theta = normalize_angle(seam)
        assert theta == pytest.approx(seam) and not abs(theta) < math.pi / 2
    assert normalize_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert normalize_angle(2 * math.pi) == pytest.approx(0.0)
    assert normalize_angle(-2.0) == pytest.approx(2 * math.pi - 2.0)
    # arrays reduce entrywise, into the half-open range
    thetas = np.linspace(-10.0, 10.0, 1001)
    reduced = normalize_angle(thetas)
    assert np.all((-math.pi / 2 <= reduced) & (reduced < 3 * math.pi / 2))
    assert np.allclose(np.exp(1j * reduced), np.exp(1j * thetas), atol=1e-12)


def test_cusp_map_axis_ray():
    # theta = 0 maps onto the positive axis at the image radius
    for r in (1e-8, 0.2, 1.0):
        w = squeeze(r, 0.0)
        assert w.imag == 0.0
        assert w.real == pytest.approx(profile_at(r)["image_radius"], rel=1e-15)


def test_cusp_map_fixes_origin():
    assert squeeze(0.0, 0.0) == 0.0


def test_seam_continuity_of_angle_formulas():
    # inner limit at +pi/2 equals the outer value; 3pi/2 wraps onto -pi/2
    for r in np.geomspace(1e-12, 1.0, 200):
        a = profile_at(float(r))["half_angle"]
        assert abs(inner_angle_map(math.pi / 2, a) - outer_angle_map(math.pi / 2, a)) <= 1e-12
        wrap = outer_angle_map(3 * math.pi / 2, a) - (
            inner_angle_map(-math.pi / 2, a) + 2.0 * math.pi
        )
        assert abs(wrap) <= 1e-12


def test_seam_image_lies_on_cusp_curve():
    # the seam ray lands on (depth, e^{-1/depth}): the image-domain boundary
    for r in np.geomspace(1e-3, 1.0, 50):
        w = squeeze(float(r), math.pi / 2)
        g = profile_at(float(r))["depth"]
        assert w.real == pytest.approx(g, rel=1e-12)
        assert w.imag == pytest.approx(math.exp(-1.0 / g), rel=1e-12)


def test_radial_extension_isometry():
    one = profile_at(1.0)["image_radius"]
    for r in (1.0 + 1e-12, 2.0, 17.5, 1e4):
        for theta in (0.0, 1.0, math.pi, -1.2):
            assert abs(squeeze(r, theta)) == pytest.approx(r * one, rel=1e-14)


def test_squeeze_injectivity_on_polar_grid():
    # 512 x 512 polar grid: all images pairwise distinct
    rs = np.geomspace(1e-6, 1.0, 512)
    thetas = -math.pi / 2 + 2 * math.pi * (np.arange(512) + 0.5) / 512
    inner = np.abs(thetas) < math.pi / 2
    images = np.empty((512, 512), dtype=complex)
    for i, r in enumerate(rs):
        e = profile_at(float(r))
        phi = np.where(
            inner,
            inner_angle_map(thetas, e["half_angle"]),
            outer_angle_map(np.where(thetas >= math.pi / 2, thetas, thetas + 2 * math.pi),
                            e["half_angle"]),
        )
        images[i] = e["image_radius"] * np.exp(1j * phi)
    assert len(np.unique(images.ravel())) == 512 * 512
    # the chain's squeeze stage gives the same images, pairwise distinct too
    z = rs[:, None] * np.exp(1j * thetas[None, :])
    w = chain_values(z, SQUEEZE)
    assert np.max(np.abs(w - images) / np.abs(images)) <= 1e-13
    assert len(np.unique(w.ravel())) == 512 * 512


def test_cusp_map_inverse_round_trip():
    r, theta = squeeze_inv(squeeze(0.3, 1.0))
    assert r == pytest.approx(0.3, abs=1e-10)
    assert theta == pytest.approx(1.0, abs=1e-10)
    assert abs(theta) < math.pi / 2  # inner sector


def test_cusp_map_inverse_seam_convention():
    # an image angle exactly at the opening goes to the outer seam theta = pi/2
    e = profile_at(0.4)
    r, theta = squeeze_inv(e["image_radius"] * complex(math.cos(e["half_angle"]),
                                                       math.sin(e["half_angle"])))
    assert r == pytest.approx(0.4, rel=1e-12)
    assert theta == pytest.approx(math.pi / 2, abs=1e-9)
    # the seam angle itself round-trips, and the wrapped seam lands on -pi/2
    assert squeeze_inv(squeeze(0.4, math.pi / 2))[1] == pytest.approx(math.pi / 2, abs=1e-12)
    assert squeeze_inv(squeeze(0.4, -math.pi / 2))[1] == pytest.approx(-math.pi / 2, abs=1e-12)


def test_cusp_map_inverse_axis_point():
    g05 = profile_at(0.5)["image_radius"]
    r, theta = squeeze_inv(complex(g05, 0.0))
    assert r == pytest.approx(0.5, abs=1e-12)
    assert theta == pytest.approx(0.0, abs=1e-12)


def test_cusp_map_inverse_extension_region():
    one = profile_at(1.0)["image_radius"]
    w = complex(0.0, 3.0 * one)
    r, theta = squeeze_inv(w)
    assert r == pytest.approx(3.0, rel=1e-14)
    assert abs(squeeze(r, theta) - w) <= 1e-12 * abs(w)


def test_cusp_map_inverse_range_errors():
    # the array path fixes 0 and infinity instead of refusing them
    assert complex(chain_inverse_values(0.0, SQUEEZE)) == 0.0
    assert not np.isfinite(chain_inverse_values(complex(math.inf, math.inf), SQUEEZE))
    with pytest.raises(RangeError):
        # below the double-precision radius floor of the image
        chain_inverse_values(0.05, SQUEEZE)
    # far out on the radial extension there is no cap: 1e9 round-trips
    back = complex(chain_values(chain_inverse_values(1e9, SQUEEZE), SQUEEZE))
    assert abs(back - 1e9) <= 1e-12 * 1e9



def test_chain_order_validation():
    with pytest.raises(DomainError):
        MapChain(PARAMS, (MapStage.CUSP, MapStage.DISK_TO_HALFPLANE))
    with pytest.raises(DomainError):
        MapChain(PARAMS, ())
    with pytest.raises(DomainError, match="unknown stage token 'f4'"):
        MapStage("f4")


def test_chain_boundary_point_to_origin():
    assert complex(chain_values(-1.0, CHAIN)) == 0.0


def test_chain_center_value():
    # f3(squeeze(f1(0))) = G(1) / (1 + G(1)) on the positive axis
    w = complex(chain_values(0.0, CHAIN))
    assert w.real == pytest.approx(0.5109614083857005212757138, rel=1e-14)
    assert w.imag == 0.0


def test_chain_round_trip_quasirandom():
    pts = halton(1000, skip=5)
    rad = 0.99 * np.sqrt(pts[:, 0])
    ang = 2.0 * math.pi * pts[:, 1]
    x = rad * np.cos(ang) + 1j * (rad * np.sin(ang))
    y = chain_inverse_values(chain_values(x, CHAIN), CHAIN)
    assert np.max(np.abs(y - x)) <= 1e-9


def test_chain_handles_infinity():
    # f1(inf) = -1, the squeeze sends (1, pi) to (-G(1), 0), then f3 acts
    inf = complex(math.inf, math.inf)
    w = complex(chain_values(inf, CHAIN))
    g1 = profile_at(1.0)["image_radius"]
    assert w == pytest.approx(-g1 / (1.0 - g1), rel=1e-13)
    # the squeeze alone fixes infinity
    assert not np.isfinite(chain_values(inf, SQUEEZE))


def test_boundary_trace_values():
    rows = boundary_image_trace([0.1])
    z = complex(0.1, math.exp(-10.0)) / complex(1.1, math.exp(-10.0))
    assert rows[0].x1 == pytest.approx(z.real, rel=1e-15)
    assert rows[0].x2 == pytest.approx(z.imag, rel=1e-15)
    # t -> 0: image approaches the origin
    tiny = boundary_image_trace([1e-8])[0]
    assert math.hypot(tiny.x1, tiny.x2) < 2e-8


def test_boundary_trace_quadratic_residual():
    ts = np.geomspace(1e-4, 1e-1, 61)
    rows = boundary_image_trace(ts)
    c_narrow = fit_tip_curvature(rows, (1e-4, 1e-2))
    c_wide = fit_tip_curvature(rows, (1e-3, 1e-1))
    assert abs(c_narrow / c_wide - 1.0) <= 0.2
    cap = 1.05 * max(c_narrow, c_wide)
    assert all(abs(r.residual) <= cap * r.t**2 for r in rows)


@pytest.mark.parametrize("t", [1e-10, 1e-4, 0.1, 0.5, 0.9])
def test_boundary_trace_residual_is_exact_to_a_few_ulp(t):
    # Re (t + iy) / (1 + t + iy) - t in exact rational arithmetic on the same
    # doubles t and y = e^{-1/t}; z.real - t kept only ~1e-16 / t of it
    row, = boundary_image_trace([t])
    T, Y = Fraction(t), Fraction(math.exp(-1.0 / t))
    exact = float((Y * Y * (1 - T) - T * T * (1 + T)) / ((1 + T) ** 2 + Y * Y))
    assert abs(row.residual - exact) <= 4.0 * math.ulp(exact)
