"""Capacity: test function, energies, decay, grid solver, bounds, experiment."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cuspmap import (
    ConvergenceError,
    DomainError,
    GridSolverConfig,
    MapChain,
    MaskError,
    annulus_condenser,
    capacity_lower_bound,
    cusp_test_energy,
    grid_capacity,
    superpolynomial_decay_check,
    tip_capacity_experiment,
)
from cuspmap import capacity as capacity_module
from cuspmap.distortion import chain_distortion_values
from cuspmap.domains import preimage_arc
from cuspmap.capacity import (
    Grid2D,
    _log_width_integral,
    capacity_lower_bound_log,
    preimage_diameter_bound_log,
)

# mpmath oracles (50 digits): 1 / int_r^{d/2} e^{1/t} dt
ORACLE_ENERGY_02_1 = 0.1081907163546861654076
ORACLE_ENERGY_01_08 = 0.003479693553795913567832


def ramp(x1, r, d):
    """The test function of cusp_test_energy inside its ramp r < x1 < d/2."""
    return 1.0 - math.exp(_log_width_integral(r, x1) - _log_width_integral(r, d / 2.0))


def test_test_function_strictly_decreasing_in_the_ramp():
    xs = np.linspace(0.21, 0.49, 12)
    vals = [ramp(float(x), 0.2, 1.0) for x in xs]
    assert all(1.0 > a > b > 0.0 for a, b in zip(vals[:-1], vals[1:]))


def test_energy_against_multiprecision_oracle():
    assert cusp_test_energy(0.2, 1.0).value == pytest.approx(ORACLE_ENERGY_02_1, rel=1e-8)
    assert cusp_test_energy(0.1, 0.8).value == pytest.approx(ORACLE_ENERGY_01_08, rel=1e-8)


def test_energy_monotone_in_cutoff():
    vals = [cusp_test_energy(r, 1.0).log_value for r in (0.2, 0.1, 0.05, 0.01)]
    assert all(b < a for a, b in zip(vals[:-1], vals[1:]))


def test_energy_underflow_reports_log_value():
    est = cusp_test_energy(2.0**-12, 1.0)
    assert est.value == 0.0
    assert est.log_value == pytest.approx(-4096.0, rel=1e-2)
    assert math.isfinite(est.log_value)


def test_energy_log_slope():
    # log E = -1/r - 2 log(1/r) + O(r): after removing the -1/r leading term
    # the remainder grows like 2 log(1/r)
    ratios = [
        (cusp_test_energy(2.0**-k, 1.0).log_value + 2.0**k) / (k * math.log(2.0))
        for k in range(4, 11)
    ]
    assert all(1.5 <= q <= 2.5 for q in ratios)


def test_superpolynomial_decay_passes():
    rs = [2.0**-k for k in range(3, 13)]
    report = superpolynomial_decay_check([0.5, 1.0, 2.0, 5.0, 10.0], rs)
    assert report.passed
    assert all(c.passed for c in report.checks)


def test_superpolynomial_decay_negative_control():
    # a power-cusp energy surrogate r^2 cannot beat s = 10
    rs = [2.0**-k for k in range(3, 13)]
    report = superpolynomial_decay_check(
        [10.0], rs, log_energy_fn=lambda r: 2.0 * math.log(r))
    assert not report.passed


def test_decay_check_evaluates_the_energy_once_per_cutoff():
    rs = [2.0**-k for k in range(3, 13)]
    calls = []

    def log_energy(r):
        calls.append(r)
        return cusp_test_energy(r, 1.0).log_value

    report = superpolynomial_decay_check([0.5, 1.0, 2.0, 5.0, 10.0], rs, log_energy_fn=log_energy)
    assert calls == rs
    assert report == superpolynomial_decay_check([0.5, 1.0, 2.0, 5.0, 10.0], rs)


def per_panel_log_width_integral(a, b):
    """Reference: one Gauss panel at a time, then one log-sum-exp."""
    s_lo, s_hi = 1.0 / b, 1.0 / a
    edges = np.linspace(s_lo, s_hi, max(8, int(math.ceil((s_hi - s_lo) / 4.0))) + 1)
    xg, wg = np.polynomial.legendre.leggauss(16)
    logs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        s = 0.5 * (hi - lo) * (xg + 1.0) + lo
        logs.append(s - 2.0 * np.log(s) + np.log(wg) + math.log(0.5 * (hi - lo)))
    allv = np.concatenate(logs)
    m = float(np.max(allv))
    return m + math.log(float(np.sum(np.exp(allv - m))))


@pytest.mark.parametrize("a,b", [(0.2, 0.5), (2.0**-7, 0.5), (2.0**-12, 0.5), (1e-3, 0.3)])
def test_log_width_integral_equals_the_per_panel_loop(a, b):
    assert _log_width_integral(a, b) == per_panel_log_width_integral(a, b)


def test_log_width_integral_builds_only_the_panels_that_count():
    # 2.5e7 panels span [2, 1e8]; those far below 1e8 add exactly 0 to the sum
    tracemalloc.start()
    try:
        est = cusp_test_energy(1e-8, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000
    # int e^s / s^2 ds up to S = 1e8 is e^S / S^2 (1 + 2 / S + ...)
    assert est.log_value == pytest.approx(-(1e8 - 2.0 * math.log(1e8)), rel=0.0, abs=1e-6)


@pytest.mark.parametrize("a", [1e-17, 1e-100, 1e-300])
def test_log_width_integral_past_the_panel_spacing_of_doubles(a):
    # panels of width 4 near s = 1/a fall below the spacing of doubles there;
    # the integral is e^S / S^2 (1 + 2 / S + ...) with S = 1/a
    s = 1.0 / a
    assert _log_width_integral(a, 0.5) == s - 2.0 * math.log(s)


def test_test_energy_falls_with_the_cutoff_down_to_1e_300():
    logs = [cusp_test_energy(r, 1.0).log_value for r in (1e-16, 1e-17, 1e-100, 1e-300)]
    assert all(math.isfinite(v) for v in logs)
    assert all(b < a for a, b in zip(logs[:-1], logs[1:]))
    # below 1 / DBL_MAX the log energy is -inf, not NaN
    assert cusp_test_energy(5e-324, 1.0).log_value == -math.inf


def test_log_width_integral_of_a_narrow_interval():
    # a and b one ulp apart at 0.1 give a few ulps in s; edges that coincide
    # bound no panel, and the value is e^s * (1/a - 1/b) / s^2 to the accuracy
    # of the rounded reciprocals
    a = 0.1
    b = math.nextafter(math.nextafter(a, 1.0), 1.0)
    s_lo, s_hi = 1.0 / b, 1.0 / a
    assert _log_width_integral(a, b) == pytest.approx(
        s_hi - 2.0 * math.log(s_hi) + math.log(s_hi - s_lo), abs=1e-6)
    # adjacent doubles whose reciprocals round to one double
    with pytest.raises(DomainError):
        _log_width_integral(0.49000000000000005, 0.4900000000000001)


def test_grid_capacity_annulus_low_resolution():
    exact = 2.0 * math.pi / math.log(4.0)
    errs = []
    for res in (64, 128):
        grid, F, E, dom = annulus_condenser(0.25, 1.0, res)
        cap = grid_capacity(None, F, E, dom, grid, GridSolverConfig(resolution=res))
        errs.append(abs(cap.value - exact) / exact)
    assert errs[0] < 0.05 and errs[1] < 0.025
    assert errs[1] < errs[0]


def test_grid_capacity_weight_linearity():
    grid, F, E, dom = annulus_condenser(0.25, 1.0, 64)
    cfg = GridSolverConfig(resolution=64)
    ones = capacity_module._edge_midpoint_weights(grid, lambda x, y: np.ones_like(x), dom)
    base = grid_capacity(ones, F, E, dom, grid, cfg)
    scaled = grid_capacity(tuple(3.0 * w for w in ones), F, E, dom, grid, cfg)
    assert scaled.value == pytest.approx(3.0 * base.value, rel=1e-12)


def test_grid_capacity_mask_errors():
    grid, F, E, dom = annulus_condenser(0.25, 1.0, 64)
    cfg = GridSolverConfig(resolution=64)
    with pytest.raises(MaskError):
        grid_capacity(None, F, F, dom, grid, cfg)  # overlapping plates
    with pytest.raises(MaskError):
        grid_capacity(None, np.zeros_like(F), E, dom, grid, cfg)
    with pytest.raises(MaskError):
        grid_capacity(None, F, E & ~dom | E, ~dom, grid, cfg)
    with pytest.raises(MaskError):
        grid_capacity(None, F[:10], E, dom, grid, cfg)


def test_grid_capacity_iteration_budget(monkeypatch):
    grid, F, E, dom = annulus_condenser(0.25, 1.0, 64)
    monkeypatch.setattr(capacity_module, "_MAX_ITERATIONS", 2)
    with pytest.raises(ConvergenceError, match="after 2 iterations"):
        grid_capacity(None, F, E, dom, grid, GridSolverConfig(resolution=64))


def test_a_residual_that_is_not_finite_is_a_convergence_error(monkeypatch):
    # NaN > threshold is false: CG used to stop there and return a NaN capacity
    precondition = capacity_module._precondition

    def poisoned(levels):
        x = precondition(levels)
        x[0] = np.nan
        return x

    monkeypatch.setattr(capacity_module, "_precondition", poisoned)
    grid, F, E, dom = annulus_condenser(0.25, 1.0, 16)
    with pytest.raises(ConvergenceError, match="CG residual nan after 1 iterations"):
        grid_capacity(None, F, E, dom, grid, GridSolverConfig(resolution=16))


def test_weights_down_to_1e_50_give_a_finite_capacity():
    # edge weights 10^(-50 x) over a disk condenser: float32 holds the
    # smallest as subnormals or 0, whose damped inverse overflowed the
    # smoother; the capacity came out NaN, its residual NaN read as converged
    grid = Grid2D(x0=0.0, y0=0.0, h=1.0 / 63.0, nx=64, ny=64)
    x, y = grid.axes()
    rr = np.hypot(x[:, None] - 0.5, y[None, :] - 0.5)
    dom = rr <= 0.5
    F, E = rr <= 0.125, dom & (rr >= 0.45)
    weights = capacity_module._edge_midpoint_weights(grid, lambda x, y: 10.0 ** (-50.0 * x), dom)
    assert min(w[w > 0.0].min() for w in weights) < 1e-49
    cfg = GridSolverConfig(resolution=63)
    cap = grid_capacity(weights, F, E, dom, grid, cfg)
    assert 0.0 < cap.value < math.inf
    assert 0.0 < cap.residual <= cfg.tolerance


def test_a_weight_function_is_a_type_error():
    grid, F, E, dom = annulus_condenser(0.25, 1.0, 16)
    with pytest.raises(TypeError, match="None or a pair"):
        grid_capacity(lambda x, y: np.ones_like(x), F, E, dom, grid,
                      GridSolverConfig(resolution=16))


def test_unit_weights_are_views_not_grid_arrays(monkeypatch):
    # no grid-sized weight array: the symmetry test and, where nothing folds,
    # the fine level read zero-stride views of one 1.0
    strides = []
    mirror_axes, fine_level = capacity_module._mirror_axes, capacity_module._fine_level

    def record_mirror(F, E, dom, wx, wy):
        strides.append(("mirror", wx.strides, wy.strides))
        return mirror_axes(F, E, dom, wx, wy)

    def record_fine(wx, wy, F, E, free):
        strides.append(("fine", wx.strides, wy.strides))
        return fine_level(wx, wy, F, E, free)

    monkeypatch.setattr(capacity_module, "_mirror_axes", record_mirror)
    monkeypatch.setattr(capacity_module, "_fine_level", record_fine)
    grid, F, E, dom = annulus_condenser(0.25, 1.0, 32)  # folds along both axes
    grid_capacity(None, F, E, dom, grid, GridSolverConfig(resolution=32))
    grid, _, F, E, dom = rectangular_condenser(41, 64)  # does not fold
    grid_capacity(None, F, E, dom, grid, GridSolverConfig(resolution=32))
    views = [("mirror", (0, 0), (0, 0)), ("fine", (0, 0), (0, 0))]
    assert strides[0] == views[0] and strides[2:] == views


def reference_cg_energy(wx, wy, F, E, dom, tolerance=1e-12):
    """Unpreconditioned CG on the same 5-point condenser, written out plainly."""
    wx = wx * (dom[:-1, :] & dom[1:, :])
    wy = wy * (dom[:, :-1] & dom[:, 1:])
    free = dom & ~F & ~E
    fixed = np.where(E, 1.0, 0.0)

    def div_flux(v):  # sum_j w_ij (v_j - v_i) at every node
        out = np.zeros_like(v)
        fx = wx * (v[1:, :] - v[:-1, :])
        out[:-1, :] += fx
        out[1:, :] -= fx
        fy = wy * (v[:, 1:] - v[:, :-1])
        out[:, :-1] += fy
        out[:, 1:] -= fy
        return out

    def apply(v):
        return np.where(free, -div_flux(np.where(free, v, 0.0)), 0.0)

    b = np.where(free, div_flux(fixed), 0.0)
    u = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(np.sum(r * r))
    threshold = tolerance * math.sqrt(float(np.sum(b * b)))
    for _ in range(20000):
        if math.sqrt(rs) <= threshold:
            break
        ap = apply(p)
        alpha = rs / float(np.sum(p * ap))
        u += alpha * p
        r -= alpha * ap
        rs_new = float(np.sum(r * r))
        p = r + (rs_new / rs) * p
        rs = rs_new
    else:
        raise AssertionError("reference CG did not converge")
    full = np.where(free, u, fixed)
    return float(np.sum(wx * (full[1:, :] - full[:-1, :]) ** 2)
                 + np.sum(wy * (full[:, 1:] - full[:, :-1]) ** 2))


def recorded_solves(monkeypatch):
    """Replace grid_capacity by a wrapper that records its arguments and result."""
    calls = []
    solve = capacity_module.grid_capacity

    def recording(weight, F, E, dom, grid, cfg):
        cap = solve(weight, F, E, dom, grid, cfg)
        calls.append(((weight, F, E, dom, grid, cfg), cap))
        return cap

    monkeypatch.setattr(capacity_module, "grid_capacity", recording)
    return calls


def test_preconditioned_solver_matches_plain_cg_on_the_annulus():
    grid, F, E, dom = annulus_condenser(0.25, 1.0, 64)
    cap = grid_capacity(None, F, E, dom, grid, GridSolverConfig(resolution=64))
    ones = (np.ones((grid.nx - 1, grid.ny)), np.ones((grid.nx, grid.ny - 1)))
    reference = reference_cg_energy(*ones, F, E, dom)
    assert abs(cap.value - reference) <= 1e-9 * reference


def test_preconditioned_solver_matches_plain_cg_on_the_tip_condenser(monkeypatch):
    calls = recorded_solves(monkeypatch)
    tip_capacity_experiment([0.45], MapChain.default(), GridSolverConfig(resolution=48),
                            arc_samples=24)
    ((weights, F, E, dom, grid, cfg), cap), = calls
    wx, wy = weights
    assert wx.min() < 0.1 * wx.max()  # 1/K varies across the disk
    reference = reference_cg_energy(wx, wy, F, E, dom)
    assert abs(cap.value - reference) <= 1e-9 * reference


def rectangular_condenser(nx, ny):
    """An elliptic condenser on an nx x ny grid with a smooth varying weight."""
    grid = Grid2D(x0=0.0, y0=0.0, h=1.0 / 32.0, nx=nx, ny=ny)
    X, Y = np.meshgrid(*grid.axes(), indexing="ij")
    cx, cy = grid.h * (nx - 1) / 2.0, grid.h * (ny - 1) / 2.0
    rr = np.hypot((X - cx) / cx, (Y - cy) / cy)
    dom = rr <= 1.0
    F, E = rr <= 0.3, dom & (rr >= 0.85)
    # one E node next to F: an edge between the plates carries energy too
    i = np.flatnonzero(F[:, ny // 2]).max() + 1
    E[i, ny // 2] = True

    def weight(x, y):
        return 1.0 + 0.5 * np.sin(3.0 * x) * np.cos(2.0 * y)

    return grid, weight, F, E, dom


@pytest.mark.parametrize("nx,ny", [(41, 64), (64, 41), (37, 51)])
def test_preconditioned_solver_matches_plain_cg_on_rectangular_grids(nx, ny):
    # odd sides are padded to even ones inside the solver
    grid, weight, F, E, dom = rectangular_condenser(nx, ny)
    wx, wy = capacity_module._edge_midpoint_weights(grid, weight, dom)
    cap = grid_capacity((wx, wy), F, E, dom, grid, GridSolverConfig(resolution=32))
    reference = reference_cg_energy(wx, wy, F, E, dom)
    assert abs(cap.value - reference) <= 1e-9 * reference
    assert cap.iterations <= 18  # a float64 V-cycle over the same aggregates takes 15


def mirrored_condenser(nx, ny, even_in_x=True, even_in_y=True):
    """An elliptic condenser centred on an nx x ny grid; it is its own mirror
    image along each axis in which the weight is even. An odd side puts plate
    nodes, ground nodes and an F-E edge on each end of F on its middle line;
    F is a ring, so free nodes lie on both middle lines and at their crossing."""
    h = 1.0 / 32.0
    grid = Grid2D(x0=-h * (nx - 1) / 2.0, y0=-h * (ny - 1) / 2.0, h=h, nx=nx, ny=ny)
    X, Y = np.meshgrid(*grid.axes(), indexing="ij")
    rr = np.hypot(X / (h * nx / 2.0), Y / (h * ny / 2.0))
    dom = rr <= 1.0
    F, E = (rr > 0.12) & (rr <= 0.3), dom & (rr >= 0.85)
    if nx % 2:
        j = np.flatnonzero(F[nx // 2])
        E[nx // 2, [j.min() - 1, j.max() + 1]] = True
    if ny % 2:
        i = np.flatnonzero(F[:, ny // 2])
        E[[i.min() - 1, i.max() + 1], ny // 2] = True

    def weight(x, y):
        w = 1.0 / (1.0 + x * x + 2.0 * y * y)
        return w * (1.0 if even_in_x else 1.0 + 0.25 * x) * (1.0 if even_in_y else 1.0 + 0.25 * y)

    return grid, weight, F, E, dom


MIRRORED = [  # nx, ny, even in x, even in y, the axes that fold
    (41, 51, True, True, [0, 1]),
    (40, 52, True, True, [0, 1]),
    (41, 52, True, True, [0, 1]),
    (41, 52, True, False, [0]),
    (40, 51, True, False, [0]),
    (40, 51, False, True, [1]),
]


def recorded_pcg(monkeypatch):
    """Replace _pcg by a wrapper that records the fine level and the solution."""
    calls = []
    pcg = capacity_module._pcg

    def recording(fine, r, cfg, lines=()):
        u, iterations, b_norm = pcg(fine, r, cfg, lines)
        calls.append((fine, u.copy()))
        return u, iterations, b_norm

    monkeypatch.setattr(capacity_module, "_pcg", recording)
    return calls


def unfolded(u, shape, axes):
    """A folded solution mirrored back onto the full grid of `shape`."""
    for axis in axes:
        n = shape[axis]
        u = np.concatenate([u, np.flip(u, axis)[(slice(None),) * axis + (slice(n % 2, None),)]],
                           axis=axis)
    return u


@pytest.mark.parametrize("nx,ny,even_x,even_y,axes", MIRRORED)
def test_folded_solve_matches_plain_cg_on_mirrored_condensers(nx, ny, even_x, even_y, axes,
                                                             monkeypatch):
    grid, weight, F, E, dom = mirrored_condenser(nx, ny, even_x, even_y)
    wx, wy = capacity_module._edge_midpoint_weights(grid, weight, dom)
    assert capacity_module._mirror_axes(F, E, dom, wx, wy) == axes
    calls = recorded_pcg(monkeypatch)
    cap = grid_capacity((wx, wy), F, E, dom, grid, GridSolverConfig(resolution=32))
    (fine, u), = calls
    half = [(n + 1) // 2 if a in axes else n for a, n in enumerate((nx, ny))]
    assert fine.shape == tuple(n + n % 2 for n in half)
    reference = reference_cg_energy(wx, wy, F, E, dom)
    assert abs(cap.value - reference) <= 1e-9 * reference
    # the reported residual is that of the mirrored solution on the full grid
    full = unfolded(u.reshape(fine.shape)[: half[0], : half[1]], (nx, ny), axes)
    full = np.where(E, 1.0, np.where(F, 0.0, full))
    kx, ky = wx * (dom[:-1, :] & dom[1:, :]), wy * (dom[:, :-1] & dom[:, 1:])
    free = dom & ~F & ~E
    # b - A u at the free nodes: sum_j w_ij (u_j - u_i) over all neighbours
    r = weight_to(kx, ky, np.ones_like(dom)) * -full
    r[:-1, :] += kx * full[1:, :]
    r[1:, :] += kx * full[:-1, :]
    r[:, :-1] += ky * full[:, 1:]
    r[:, 1:] += ky * full[:, :-1]
    b = weight_to(kx, ky, E)
    want = math.sqrt(np.sum(r[free] ** 2) / np.sum(b[free] ** 2))
    assert cap.residual == pytest.approx(want, rel=1e-6, abs=0.0)
    assert 0.0 < cap.residual <= 1e-8


def test_fold_guard_for_the_program_condensers(monkeypatch):
    # the annulus folds along both axes, the tip condensers of 48, 128 and 256
    # cells per unit only across the real axis: a change that breaks the
    # mirror symmetry of K, of the masks or of the node coordinates must show
    # here, also at a resolution that is not a power of two
    grid, F, E, dom = annulus_condenser(0.25, 1.0, 128)
    ones = (np.ones((grid.nx - 1, grid.ny)), np.ones((grid.nx, grid.ny - 1)))
    assert capacity_module._mirror_axes(F, E, dom, *ones) == [0, 1]
    calls = []

    def record(weight, F, E, dom, grid, cfg):
        calls.append((grid.nx, capacity_module._mirror_axes(F, E, dom, *weight)))
        return capacity_module.CapacityEstimate(1.0)

    monkeypatch.setattr(capacity_module, "grid_capacity", record)
    for res in (48, 128, 256):
        tip_capacity_experiment([0.45, 0.3, 0.125], MapChain.default(),
                                GridSolverConfig(resolution=res))
    assert calls == [(97, [1]), (97, [1]), (257, [1]), (257, [1]), (513, [1]), (513, [1])]


ASYMMETRIC_SOLVES = {  # value.hex(), iterations, residual.hex() of the full-grid solver
    (41, 64): ("0x1.ce5b34515fef4p+2", 14, "0x1.9b1d9378faf2cp-28"),
    (64, 41): ("0x1.fd87ba571b51bp+2", 14, "0x1.766d155f147e3p-28"),
    (37, 51): ("0x1.fca66ca1554d0p+2", 14, "0x1.13dad316210e0p-28"),
}


def test_solves_without_symmetry_are_bit_identical_to_the_unfolded_solver():
    got = {}
    for nx, ny in [(41, 64), (64, 41), (37, 51)]:
        grid, weight, F, E, dom = rectangular_condenser(nx, ny)
        weights = capacity_module._edge_midpoint_weights(grid, weight, dom)
        got[nx, ny] = grid_capacity(weights, F, E, dom, grid, GridSolverConfig(resolution=32))
    assert {k: (c.value.hex(), c.iterations, c.residual.hex())
            for k, c in got.items()} == ASYMMETRIC_SOLVES


def weight_to(wx, wy, mask):
    """Per node of the 2-D grid, the total weight of its edges to nodes in mask."""
    out = np.zeros(mask.shape)
    out[:-1, :] += wx * mask[1:, :]
    out[1:, :] += wx * mask[:-1, :]
    out[:, :-1] += wy * mask[:, 1:]
    out[:, 1:] += wy * mask[:, :-1]
    return out


def plate_condenser():
    """The 37 x 51 rectangular condenser with many F-E edges, free nodes with
    four edges to F and one free-F edge of weight 0; also its free nodes and
    edge weights."""
    grid, weight, F, E, dom = rectangular_condenser(37, 51)
    # holes in F whose four edge weights sum to other bits in another order
    F[[16, 18, 22], [24, 21, 26]] = False
    for j in range(20, 31):  # E nodes next to F along a run of columns
        i = np.flatnonzero(F[:, j]).max() + 1
        E[i, j] = True
    wx, wy = capacity_module._edge_midpoint_weights(grid, weight, dom)
    free = dom & ~F & ~E
    i = np.flatnonzero(F[:, 25]).min()
    assert free[i - 1, 25]
    wx[i - 1, 25] = 0.0  # the x+ edge from free node (i - 1, 25) into F
    return grid, (wx, wy), F, E, dom, free


def test_fine_level_plate_terms_equal_the_dense_grid_sums():
    grid, (wx, wy), F, E, dom, free = plate_condenser()
    fine, (gidx, to_f, to_e, fixed_energy), scale = capacity_module._fine_level(
        wx, wy, F, E, free)
    # the dense form: a grid array per plate, with the ground in the same order
    dense_e = weight_to(wx, wy, E)
    dense_fixed = float(np.sum(dense_e[F])) * scale
    dense_e *= free
    dense_f = weight_to(wx, wy, F) * free
    ground = dense_f + dense_e
    nodes = np.flatnonzero(ground)
    i, j = np.divmod(nodes, grid.ny)
    assert fine.shape == (38, 52)
    assert gidx.tolist() == (i * 52 + j).tolist() == fine.gidx.tolist()
    assert fine.gval.tobytes() == (ground.ravel()[nodes] * scale).tobytes()
    assert to_f.tobytes() == (dense_f.ravel()[nodes] * scale).tobytes()
    assert to_e.tobytes() == (dense_e.ravel()[nodes] * scale).tobytes()
    assert fixed_energy > 0.0 and fixed_energy.hex() == dense_fixed.hex()
    ex, ey = np.zeros(fine.shape), np.zeros(fine.shape)
    ex[:36, :51] = wx * (free[:-1, :] & free[1:, :]) * scale
    ey[:37, :50] = wy * (free[:, :-1] & free[:, 1:]) * scale
    assert fine.wx.tobytes() == ex.tobytes() and fine.wy.tobytes() == ey.tobytes()


def eight_pass_apply(level, u):
    """A u with a negated copy of the y-fluxes, then two adds per direction."""
    n1 = level.shape[1]
    out = np.empty_like(u)
    flux = (u[1:] - u[:-1]) * level.wy[:-1]
    out[:-1] = -flux
    out[-1] = 0.0
    out[1:] += flux
    flux = (u[n1:] - u[:-n1]) * level.wx[:-n1]
    out[:-n1] -= flux
    out[n1:] += flux
    out[level.gidx] += level.gval * u[level.gidx]
    return out


def four_add_vcycle(levels, rhs, k=0):
    """The V-cycle with eight_pass_apply and prolongation by four strided adds,
    ending in the coarsest level's dense inverse."""
    level = levels[k]
    if k == len(levels) - 1:
        return np.einsum("ij,j->i", level.bottom, rhs).astype(np.float32)
    x = level.smooth * rhs
    coarse = levels[k + 1]
    n0, n1 = level.shape
    m0, m1 = n0 // 2, n1 // 2
    rows = (rhs - eight_pass_apply(level, x)).reshape(m0, 2 * n1)
    pairs = (rows[:, :n1] + rows[:, n1:]).reshape(m0, m1, 2)
    coarse_rhs = np.zeros(coarse.wx.size, x.dtype)
    coarse_rhs.reshape(coarse.shape)[:m0, :m1] = pairs[..., 0] + pairs[..., 1]
    xc = four_add_vcycle(levels, coarse_rhs, k + 1) * capacity_module._COARSE_SCALE
    xc = xc.reshape(coarse.shape)[:m0, :m1]
    blocks = x.reshape(m0, 2, m1, 2)
    for a in range(2):
        for c in range(2):
            blocks[:, a, :, c] += xc
    return x + level.smooth * (rhs - eight_pass_apply(level, x))


def assert_stencil_and_v_cycle_bit_identical(fine):
    """Each level's A u and the V-cycle with the views bound once per solve,
    against the plain formulas: the V-cycle twice in a row, then once more
    after a float64 A p product through the buffer the levels share."""
    levels = capacity_module._hierarchy(fine)
    assert fine.gidx.size > 0 and len(levels) >= 3
    rng = np.random.default_rng(5)
    for level in [fine] + levels:
        # equal pairs make zero fluxes, whose signs must match too
        u = rng.standard_normal(level.wx.size).astype(level.wx.dtype)
        u[1::2] = u[::2]
        out = np.empty_like(u)
        assert level.bind(u, out)() is out
        assert out.tobytes() == eight_pass_apply(level, u).tobytes()
    p, ap = rng.standard_normal(fine.wx.size), np.empty(fine.wx.size)
    product = fine.bind(p, ap)
    for run in range(3):
        if run == 2:
            assert product() is ap
            assert ap.tobytes() == eight_pass_apply(fine, p).tobytes()
        np.copyto(levels[0].rhs, rng.standard_normal(fine.wx.size))
        want = four_add_vcycle(levels, levels[0].rhs.copy())
        assert capacity_module._precondition(levels).tobytes() == want.tobytes()


def test_stencil_and_v_cycle_are_bit_identical_to_the_plain_formulas():
    # odd sides padded to even; ground nodes next to both plates
    grid, (wx, wy), F, E, dom, free = plate_condenser()
    fine, _, _ = capacity_module._fine_level(wx, wy, F, E, free)
    assert_stencil_and_v_cycle_bit_identical(fine)


def test_stencil_and_v_cycle_are_bit_identical_on_the_folded_tip_level(monkeypatch):
    calls = recorded_pcg(monkeypatch)
    tip_capacity_experiment([0.45], MapChain.default(), GridSolverConfig(resolution=48),
                            arc_samples=24)
    (fine, _), = calls
    assert fine.shape == (98, 50)  # 97 x 49 nodes after the fold across y = 0
    assert_stencil_and_v_cycle_bit_identical(fine)


def stencil_matrix(level):
    """The level's matrix in float64, column by column from its stencil."""
    n = level.wx.size
    u, out = np.zeros(n, level.wx.dtype), np.empty(n, level.wx.dtype)
    apply = level.bind(u, out)
    a = np.empty((n, n))
    for k in range(n):
        u[k] = 1.0
        a[:, k] = apply()
        u[k] = 0.0
    return a


def test_the_coarsest_level_is_inverted_on_its_active_nodes(monkeypatch):
    calls = recorded_pcg(monkeypatch)
    tip_capacity_experiment([0.45], MapChain.default(), GridSolverConfig(resolution=48),
                            arc_samples=24)
    (fine, _), = calls
    last = capacity_module._hierarchy(fine)[-1]
    assert last.shape == (14, 8)  # at most _COARSEST_NODES, the level above not
    a = stencil_matrix(last)
    active = np.flatnonzero(np.diagonal(a))
    idle = np.setdiff1d(np.arange(a.shape[0]), active)
    assert idle.size > 0 and not np.any(a[idle]) and not np.any(a[:, idle])
    assert not np.any(last.bottom[idle]) and not np.any(last.bottom[:, idle])
    # exact up to the raise of the diagonal by _FLOAT32_EPS of itself
    block = np.ix_(active, active)
    product = last.bottom[block] @ a[block]
    assert np.abs(product - np.eye(active.size)).max() <= 1e-5


def two_piece_condenser():
    """The disk condenser on a 64 x 40 grid plus a far segment of four nodes:
    no ground reaches the segment, on any level."""
    grid = Grid2D(x0=0.0, y0=0.0, h=1.0 / 32.0, nx=64, ny=40)
    x, y = grid.axes()
    rr = np.hypot(x[:, None] - 0.5, y[None, :] - 0.6)
    dom = rr <= 0.45
    dom[46:50, 20] = True
    F, E = rr <= 0.12, (rr >= 0.4) & (rr <= 0.45)
    return grid, F, E, dom


def test_a_piece_of_the_domain_away_from_the_plates(monkeypatch):
    # the segment's coarsest nodes (11, 5) and (12, 5) form a singular block
    # of their own, which a plain inverse refuses ("Singular matrix")
    grid, F, E, dom = two_piece_condenser()
    calls = recorded_pcg(monkeypatch)
    cap = grid_capacity(None, F, E, dom, grid, GridSolverConfig(resolution=32))
    (fine, _), = calls
    last = capacity_module._hierarchy(fine)[-1]
    assert last.shape == (16, 10)
    segment = np.zeros(last.wx.size)
    segment[[11 * 10 + 5, 12 * 10 + 5]] = 1.0
    a = stencil_matrix(last)
    assert np.any(a @ np.diag(segment)) and not np.any(a @ segment)
    assert np.all(np.isfinite(last.bottom))
    ones = (np.ones((grid.nx - 1, grid.ny)), np.ones((grid.nx, grid.ny - 1)))
    reference = reference_cg_energy(*ones, F, E, dom)
    assert abs(cap.value - reference) <= 1e-9 * reference


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
@pytest.mark.parametrize("axis", [0, 1])
def test_weights_that_are_not_finite_and_nonnegative_are_mask_errors(bad, axis):
    grid, F, E, dom = annulus_condenser(0.25, 1.0, 16)
    cfg = GridSolverConfig(resolution=16)
    weights = [np.ones((grid.nx - 1, grid.ny)), np.ones((grid.nx, grid.ny - 1))]
    weights[axis][3, 5] = bad  # an edge outside the domain counts too
    with pytest.raises(MaskError, match="finite and nonnegative"):
        grid_capacity(tuple(weights), F, E, dom, grid, cfg)
    with pytest.raises(MaskError, match="finite and nonnegative"):
        grid_capacity(capacity_module._edge_midpoint_weights(
            grid, lambda x, y: np.where(x > 0.5, bad, 1.0), dom), F, E, dom, grid, cfg)


@pytest.mark.parametrize("nx,ny", [(1, 5), (5, 1)])
def test_one_node_wide_grids_have_no_edges_across(nx, ny):
    # four unit edges in series: capacity 1/4; the weights across are empty
    grid = Grid2D(x0=0.0, y0=0.0, h=1.0 / 16.0, nx=nx, ny=ny)
    F, E = np.zeros((nx, ny), bool), np.zeros((nx, ny), bool)
    F.flat[0] = E.flat[-1] = True
    cap = grid_capacity(None, F, E, np.ones_like(F), grid, GridSolverConfig(resolution=16))
    assert cap.value == pytest.approx(0.25, rel=1e-12)


SOLVE_RES_64 = """
from cuspmap import (GridSolverConfig, MapChain, annulus_condenser, grid_capacity,
                     tip_capacity_experiment)
grid, F, E, dom = annulus_condenser(0.25, 1.0, 64)
cap = grid_capacity(None, F, E, dom, grid, GridSolverConfig(resolution=64))
print(cap.value.hex(), cap.iterations, cap.residual.hex())
row, = tip_capacity_experiment([0.45], MapChain.default(), GridSolverConfig(resolution=48),
                               arc_samples=24)
print(row.capacity.hex())
"""


def test_solve_does_not_depend_on_the_blas_thread_count():
    # BLAS's ddot splits its sum across threads; the solver's products must not.
    # The res-48 tip solve's coarsest level has 112 nodes, whose inverse LAPACK
    # factors.
    src = str(Path(capacity_module.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", SOLVE_RES_64], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(done.stdout.split())
    assert outputs[0] == outputs[1] and len(outputs[0]) == 4


def whole_grid_inverse_k(grid):
    """1/K at every edge midpoint of the grid, in one call per direction."""
    chain = MapChain.default()

    def weight(x, y):
        return 1.0 / chain_distortion_values(x + 1j * y, chain)

    X, Y = np.meshgrid(*grid.axes(), indexing="ij")
    return weight, (weight(0.5 * (X[:-1, :] + X[1:, :]), 0.5 * (Y[:-1, :] + Y[1:, :])),
                    weight(0.5 * (X[:, :-1] + X[:, 1:]), 0.5 * (Y[:, :-1] + Y[:, 1:])))


def kept_edges(dom):
    """x- and y-edges with both ends in the node mask dom."""
    return dom[:-1, :] & dom[1:, :], dom[:, :-1] & dom[:, 1:]


def test_edge_weights_sampled_in_blocks_equal_one_whole_grid_call():
    grid = Grid2D.square(1.0, 48)  # 97 rows: several blocks and a short last one
    weight, (whole_x, whole_y) = whole_grid_inverse_k(grid)
    everywhere = np.ones((grid.nx, grid.ny), bool)
    wx, wy = capacity_module._edge_midpoint_weights(grid, weight, everywhere)
    assert wx.tobytes() == whole_x.tobytes() and wy.tobytes() == whole_y.tobytes()
    # a smaller node mask: the same bits on the edges inside it, 0 on the others
    X, Y = np.meshgrid(*grid.axes(), indexing="ij")
    where = np.hypot(X - 0.3, Y) < 0.8
    kx, ky = kept_edges(where)
    wx, wy = capacity_module._edge_midpoint_weights(grid, weight, where)
    assert wx.tobytes() == np.where(kx, whole_x, 0.0).tobytes()
    assert wy.tobytes() == np.where(ky, whole_y, 0.0).tobytes()
    assert kx.any() and not kx.all() and ky.any() and not ky.all()


@pytest.mark.parametrize("res", [16, 17, 31, 48, 100, 128])
def test_tip_weights_from_the_half_disk_equal_the_whole_grid_sample(res, monkeypatch):
    # 1/K is sampled on the edges inside the disk with y <= 0 and mirrored,
    # which needs K(conj z) = K(z) bit for bit; the other edges get 0
    solves, points = [], []

    def record(weight, F, E, dom, grid, cfg):
        solves.append((weight, dom, grid))
        return capacity_module.CapacityEstimate(1.0)

    def counted(z, chain):
        points.append(z.size)
        return chain_distortion_values(z, chain)

    monkeypatch.setattr(capacity_module, "grid_capacity", record)
    monkeypatch.setattr(capacity_module, "chain_distortion_values", counted)
    tip_capacity_experiment([0.45], MapChain.default(), GridSolverConfig(resolution=res),
                            arc_samples=8)
    ((wx, wy), dom, grid), = solves
    _, (whole_x, whole_y) = whole_grid_inverse_k(grid)
    kx, ky = kept_edges(dom)
    assert wx.tobytes() == np.where(kx, whole_x, 0.0).tobytes()
    assert wy.tobytes() == np.where(ky, whole_y, 0.0).tobytes()
    # each kept edge of the half y <= 0 once, in calls of at most 32 grid rows
    m = grid.ny // 2
    assert sum(points) == np.count_nonzero(kx[:, : m + 1]) + np.count_nonzero(ky[:, :m])
    assert max(points) <= 32 * grid.ny
    if res == 128:
        assert sum(points) == 51301


def test_tip_condenser_solve_is_bit_reproducible(monkeypatch):
    calls = recorded_solves(monkeypatch)
    tip_capacity_experiment([0.45], MapChain.default(), GridSolverConfig(resolution=128))
    (args, first), = calls
    again = capacity_module.grid_capacity(*args)
    assert again.value.hex() == first.value.hex()
    assert again.iterations == first.iterations
    assert again.residual.hex() == first.residual.hex()


def test_tip_solves_at_res_128_take_at_most_20_iterations(monkeypatch):
    # two solves: 0.3 and 0.125 stamp the same E mask; a damped Jacobi step
    # on the coarsest level took 25 and 26
    calls = recorded_solves(monkeypatch)
    tip_capacity_experiment([0.45, 0.3, 0.125], MapChain.default(),
                            GridSolverConfig(resolution=128))
    assert [cap.iterations <= 20 for _, cap in calls] == [True, True]


def test_grid_capacity_peak_memory():
    # 11.6 float64 node arrays was the peak of a float64 V-cycle on 2-D
    # levels; the float32 one on flat levels holds about 10.7
    grid, F, E, dom = annulus_condenser(0.25, 1.0, 128)
    cfg = GridSolverConfig(resolution=128)
    tracemalloc.start()
    try:
        grid_capacity(None, F, E, dom, grid, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11.6 * grid.nx * grid.ny * 8


def traced_peak(run):
    """The peak of traced memory while run() runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_annulus_masks_peak_memory():
    # radii from the two axes broadcast: one float64 node array and three
    # masks, where two node coordinate arrays took 3.38 arrays in all
    grid = capacity_module._annulus_grid(0.25, 1.0, 256)
    peak = traced_peak(lambda: annulus_condenser(0.25, 1.0, 256))
    assert peak <= 1.6 * grid.nx * grid.ny * 8


def test_tip_experiment_peak_memory():
    # the radii are dropped once the masks exist, not held through the
    # solves: 8.03 node arrays at the peak instead of 9.02
    chain, grid = MapChain.default(), capacity_module._tip_grid(128)
    peak = traced_peak(lambda: tip_capacity_experiment(
        [0.45, 0.3, 0.125], chain, GridSolverConfig(resolution=128)))
    assert peak <= 8.5 * grid.nx * grid.ny * 8


@pytest.mark.parametrize("scale", [1e40, 1e-40, 2.0**1000, 1e-300])
def test_grid_capacity_weights_of_any_double_magnitude(scale):
    # the solver scales the weights by a power of two
    grid, F, E, dom = annulus_condenser(0.25, 1.0, 64)
    cfg = GridSolverConfig(resolution=64)
    base = grid_capacity(None, F, E, dom, grid, cfg)
    scaled = grid_capacity(capacity_module._edge_midpoint_weights(
        grid, lambda x, y: np.full_like(x, scale), dom), F, E, dom, grid, cfg)
    assert scaled.value == pytest.approx(scale * base.value, rel=1e-12)
    assert scaled.iterations == base.iterations
    assert scaled.residual <= cfg.tolerance


# CG iterations of the annulus (0.25, 1) per resolution, with the coarsest
# level solved exactly; one damped Jacobi step there took 17, 20 and 23
ANNULUS_ITERATIONS = {64: 14, 128: 17, 256: 21}


@pytest.mark.parametrize("res", [64, 128, 256])
def test_grid_capacity_iterations_and_residual(res):
    grid, F, E, dom = annulus_condenser(0.25, 1.0, res)
    cfg = GridSolverConfig(resolution=res)
    cap = grid_capacity(None, F, E, dom, grid, cfg)
    assert 0 < cap.iterations <= ANNULUS_ITERATIONS[res]
    assert 0.0 < cap.residual <= cfg.tolerance
    assert cusp_test_energy(0.2, 1.0).iterations is None
    assert cusp_test_energy(0.2, 1.0).residual is None


def test_tip_experiment_reuses_the_capacity_of_an_unchanged_mask(monkeypatch):
    chain = MapChain.default()
    cfg = GridSolverConfig(resolution=48)
    calls = recorded_solves(monkeypatch)
    rows = tip_capacity_experiment([0.45, 0.25, 0.125], chain, cfg, arc_samples=24)
    # 0.25 and 0.125 stamp the same E mask at this resolution, 0.45 does not
    assert len(calls) == 2
    assert not np.array_equal(calls[0][0][2], calls[1][0][2])
    assert rows[1].capacity == rows[2].capacity != rows[0].capacity
    assert rows[1].log_diam_preimage != rows[2].log_diam_preimage
    # the reused value is the one a solve of that row alone gives
    alone = tip_capacity_experiment([0.125], chain, cfg, arc_samples=24)
    assert alone[0].capacity == rows[2].capacity


def stamped_by_loop(samples, F, dom, grid):
    """Reference: the E mask of the tip experiment, one arc sample at a time."""
    E = np.zeros_like(dom)
    for z in samples.tolist():
        i = min(max(int(round((z.real - grid.x0) / grid.h)), 0), grid.nx - 1)
        j = min(max(int(round((z.imag - grid.y0) / grid.h)), 0), grid.ny - 1)
        if not dom[i, j]:  # boundary samples: step inward toward the center
            i += 1 if z.real < 0 else -1
        if dom[i, j] and not F[i, j]:
            E[i, j] = True
    return E


@pytest.mark.parametrize("res", [48, 128])
def test_tip_masks_equal_the_sample_by_sample_stamping(res, monkeypatch):
    chain = MapChain.default()
    calls = recorded_solves(monkeypatch)
    ts = [0.45, 0.25]  # two distinct masks at both resolutions
    tip_capacity_experiment(ts, chain, GridSolverConfig(resolution=res), arc_samples=24)
    assert len(calls) == len(ts)
    for t, ((_, F, E, dom, grid, _), _) in zip(ts, calls):
        samples = preimage_arc(t, chain, 24).samples
        assert np.array_equal(E, stamped_by_loop(samples, F, dom, grid))


def test_discrete_energy_of_sampled_test_function():
    # graded 1D grid uniform in 1/x1 resolves the throat; the discrete energy
    # of the sampled ramp approaches 2 / int e^{1/t} (both strip halves)
    s = np.linspace(2.0, 5.0, 1025)  # s = 1/x1 over [d/2, r] reversed
    x1 = 1.0 / s[::-1]
    u = np.array([1.0] + [ramp(float(a), 0.2, 1.0) for a in x1[1:-1]] + [0.0])
    mids = 0.5 * (x1[:-1] + x1[1:])
    widths = 2.0 * np.exp(-1.0 / mids)
    dx = np.diff(x1)
    discrete = float(np.sum((np.diff(u) / dx) ** 2 * widths * dx))
    closed = 2.0 * cusp_test_energy(0.2, 1.0).value
    assert abs(discrete - closed) / closed <= 0.05


def test_capacity_lower_bound_formula():
    # the bound takes log diam E
    assert capacity_lower_bound(1.0, math.pi / 4.0, -1.0) == pytest.approx(1.0, rel=1e-14)
    assert capacity_lower_bound(1.0, math.pi / 4.0, -1.0, C=2.0) == pytest.approx(
        2.0, rel=1e-14)
    small = capacity_lower_bound(1.0, math.pi / 4.0, math.log(1e-9))
    tiny = capacity_lower_bound(1.0, math.pi / 4.0, math.log(1e-18))
    assert tiny < small < 1.0
    # far past the underflow of diam E itself
    assert capacity_lower_bound(1.0, math.pi / 4.0, -1e6) == pytest.approx(1e-12, rel=1e-14)
    with pytest.raises(DomainError):
        capacity_lower_bound(1.0, math.pi / 4.0, math.log(2.0))  # log argument <= 1


def test_capacity_lower_bound_independent_reimplementation():
    for lam, mass, diam, c in ((0.7, 2.0, 0.01, 1.3), (2.0, 9.0, 0.3, 0.5)):
        independent = c * lam / math.log(math.sqrt(4.0 * mass / math.pi) / diam) ** 2
        assert capacity_lower_bound(lam, mass, math.log(diam), c) == pytest.approx(
            independent, rel=1e-15)


def test_preimage_diameter_bound_formula():
    # exponent forced to -1: bound = C / e
    assert preimage_diameter_bound_log(math.sqrt(2.0), 1.0, 1.0, C=1.0, Ctilde=2.0) == (
        pytest.approx(-1.0, rel=1e-14))
    assert preimage_diameter_bound_log(0.2, 1.0, 1.0) > preimage_diameter_bound_log(0.1, 1.0, 1.0)
    assert preimage_diameter_bound_log(0.1, 1.0, 1.0) == pytest.approx(-100.0, rel=1e-14)
    # deep underflow: the bound itself is below the subnormals, its log stays exact
    assert preimage_diameter_bound_log(0.01, 1.0, 1.0) == pytest.approx(-1e4, rel=1e-14)
    # past the largest double the log is -inf, not an OverflowError
    assert preimage_diameter_bound_log(1e-200, 1.0, 1.0) == -math.inf
    for lam, eps, c, ct, d in ((0.5, 2.0, 1.1, 0.9, 0.35),):
        independent = c * math.exp(-ct / d ** ((1.0 + eps) / lam))
        assert preimage_diameter_bound_log(d, lam, eps, c, ct) == pytest.approx(
            math.log(independent), rel=1e-15)


def test_tip_capacity_experiment_small():
    chain = MapChain.default()
    rows = tip_capacity_experiment([0.25, 0.125, 0.0625], chain,
                                   GridSolverConfig(resolution=48), arc_samples=24)
    caps = [r.capacity for r in rows]
    assert all(c > 0.0 for c in caps)
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(caps[:-1], caps[1:]))
    assert all(r.diam_image_arc <= 2.0 * r.t for r in rows)
    assert all(b.log_diam_preimage < a.log_diam_preimage for a, b in zip(rows[:-1], rows[1:]))
    # determinism of the full pipeline
    again = tip_capacity_experiment([0.25, 0.125, 0.0625], chain,
                                    GridSolverConfig(resolution=48), arc_samples=24)
    assert [r.capacity for r in again] == caps


def test_tip_lower_bound_follows_the_preimage_log_diameter():
    # the reference bound lam (0.5 log(4 L / pi) - log diam)^-2 with lam = 1 and
    # L = e pi, taken from the exact log-diameter after the double one underflows
    rows = tip_capacity_experiment([0.125, 0.0625], MapChain.default(),
                                   GridSolverConfig(resolution=16), arc_samples=24)
    mass = math.e * math.pi
    for r in rows:
        assert r.diam_preimage == 0.0
        want = (0.5 * math.log(4.0 * mass / math.pi) - r.log_diam_preimage) ** -2.0
        assert r.lower_bound_ref == pytest.approx(want, rel=1e-15)
    assert rows[0].lower_bound_ref > rows[1].lower_bound_ref > 0.0


def test_capacity_lower_bound_log_formula():
    for lam, mass, diam, c in ((0.7, 2.0, 0.01, 1.3), (2.0, 9.0, 0.3, 0.5)):
        assert capacity_lower_bound_log(lam, mass, math.log(diam), c) == pytest.approx(
            math.log(capacity_lower_bound(lam, mass, math.log(diam), c)), rel=1e-14)
    # the bound is 1e-600, below the smallest double
    assert capacity_lower_bound_log(1.0, math.pi / 4.0, -1e300) == pytest.approx(
        -600.0 * math.log(10.0), rel=1e-14)
    with pytest.raises(DomainError):
        capacity_lower_bound_log(1.0, math.pi / 4.0, -1.0, C=0.0)


def test_tip_lower_bound_log_stays_finite_where_the_bound_underflows():
    rows = tip_capacity_experiment([2.0**-8, 2.0**-9], MapChain.default(),
                                   GridSolverConfig(resolution=16), arc_samples=8)
    mass = math.e * math.pi
    for r in rows:
        log_arg = 0.5 * math.log(4.0 * mass / math.pi) - r.log_diam_preimage
        assert math.isfinite(r.log_lower_bound_ref)
        assert r.log_lower_bound_ref == pytest.approx(-2.0 * math.log(log_arg), rel=1e-15)
    assert rows[0].lower_bound_ref > 0.0 == rows[1].lower_bound_ref
    assert rows[0].log_lower_bound_ref == pytest.approx(math.log(rows[0].lower_bound_ref),
                                                        rel=1e-12)
    assert rows[1].log_lower_bound_ref < rows[0].log_lower_bound_ref


def test_square_grids_past_the_node_ceiling_are_domain_errors():
    # a Grid2D holds scalars only: no case here allocates an array
    ceiling = capacity_module._MAX_GRID_NODES
    assert Grid2D.square(1.0, 2047).nx ** 2 <= ceiling
    for half_extent, res in ((1.0, 2048), (1.02, 100000), (1.02e300, 16), (1.02e308, 16),
                             (1.0, 10**400)):
        with pytest.raises(DomainError, match=f"more than {ceiling} nodes"):
            Grid2D.square(half_extent, res)


def test_grid2d_geometry():
    grid = Grid2D.square(1.0, 32)
    X, Y = np.meshgrid(*grid.axes(), indexing="ij")
    assert X.shape == (grid.nx, grid.ny)
    assert X.min() == pytest.approx(-1.0) and X.max() == pytest.approx(1.0)
    assert grid.h == pytest.approx(1.0 / 32.0)
