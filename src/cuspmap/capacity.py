"""Weighted 2-capacity: explicit test functions, closed-form bounds, grid solves.

Three layers:

  * the exact Dirichlet energy of the explicit Lipschitz test function on the
    exponential-cusp domain (a reciprocal of an integral of e^{1/t}; the
    energy decays faster than every power of the cutoff, so values are kept
    in log space alongside doubles);

  * closed-form bound evaluators with all unspecified constants exposed as
    parameters defaulting to 1;

  * a deterministic 5-point grid minimizer of the weighted Dirichlet energy
    (uniform, or given edge weights; conjugate gradients from a zero
    start), plus the pullback capacity experiment toward the cusp tip. CG,
    its products, its stopping test and the final residual run in float64;
    only the preconditioner, a multigrid V-cycle, runs in float32, on flat
    contiguous levels padded to even sides, down to a level small enough for
    a dense float64 inverse. Its rounding can cost CG an iteration or two,
    but not accuracy. Each product is one pass of numpy's einsum, never BLAS,
    so the bits do not depend on the thread count; their views are taken
    once per solve. A condenser that is its own mirror image
    along a grid axis is solved on one half of that axis: the annulus on a
    quarter grid, the tip condenser on a half grid, whose 1/K is sampled
    only on the edges the solve reads, on one half of the disk.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass, fields

import numpy as np

from .distortion import chain_distortion_values
from .domains import arc_diameter, preimage_arc
from .errors import ConvergenceError, DomainError, MaskError
from .maps import MapChain, _over_square
from .quadrature import gauss_legendre

__all__ = [
    "CapacityEstimate",
    "cusp_test_energy",
    "DecayCheck",
    "DecayReport",
    "superpolynomial_decay_check",
    "GridSolverConfig",
    "Grid2D",
    "grid_capacity",
    "annulus_condenser",
    "capacity_lower_bound",
    "capacity_lower_bound_log",
    "preimage_diameter_bound_log",
    "ExperimentRow",
    "experiment_table",
    "tip_capacity_experiment",
]


@dataclass(frozen=True)
class CapacityEstimate:
    """Capacity value with provenance; log_value stays finite past underflow."""

    value: float
    log_value: float = None
    iterations: int = None         # preconditioned CG iterations (grid solves)
    residual: float = None         # final ||b - A u|| / ||b|| (grid solves)

    def __post_init__(self):
        if self.log_value is None:
            object.__setattr__(
                self, "log_value", math.log(self.value) if self.value > 0.0 else -math.inf
            )


# ---------------------------------------------------------------------------
# The energy of the explicit test function
# ---------------------------------------------------------------------------

def _log_width_integral(a: float, b: float) -> float:
    """log of int_a^b e^{1/t} dt, to ~1e-10 relative accuracy.

    Substituting s = 1/t gives int e^s / s^2 ds over [1/b, 1/a]; panels of
    bounded width in s with Gauss nodes keep the exponential tame, and the
    panel contributions combine by log-sum-exp. Only the panels that reach
    above s_hi - 800 - 2 log(s_hi / s_lo) are built: below that, each term
    is e^-750 or less of the largest and adds exactly 0 to the sum. The edges
    are those of np.linspace over all panels, so the cost stays bounded as
    a -> 0; edges that round onto each other bound no panel.

    The integral is e^S / S^2 (1 + 2/S + ...) - (the same at s_lo) with
    S = s_hi, so from S = 2^52 on, where 2/S is far below half an ulp of S,
    and with s_lo at least 64 below S, its log is S - 2 log S to double
    precision.
    """
    if not (0.0 < a < b):
        raise DomainError(f"need 0 < a < b, got ({a}, {b})")
    s_lo, s_hi = 1.0 / b, 1.0 / a
    if not s_lo < s_hi:
        raise DomainError(f"1/a and 1/b round to the same double for a={a}, b={b}")
    if s_hi >= 2.0**52 and s_hi - s_lo >= 64.0:
        # s_hi is inf for a below 1 / DBL_MAX, and so is the log
        return s_hi - 2.0 * math.log(s_hi) if s_hi < math.inf else math.inf
    panels = max(8, int(math.ceil((s_hi - s_lo) / 4.0)))
    step = (s_hi - s_lo) / panels
    cut = s_hi - 800.0 - 2.0 * math.log(s_hi / s_lo)
    first = min(max(int((cut - s_lo) / step) - 1, 0), panels - 1)
    edges = np.arange(first, panels + 1) * step + s_lo
    edges[-1] = s_hi
    lo, hi = edges[:-1], edges[1:]
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    xg, wg = gauss_legendre(16)
    s = 0.5 * (hi - lo)[:, None] * (xg + 1.0) + lo[:, None]
    # math.log, not np.log: the two can differ in the last bit
    lw = np.array([math.log(v) for v in (0.5 * (hi - lo)).tolist()])
    allv = (s - 2.0 * np.log(s) + np.log(wg) + lw[:, None]).ravel()
    m = float(np.max(allv))
    return m + math.log(float(np.sum(np.exp(allv - m))))


def _check_test_radii(r: float, d: float) -> None:
    if not (0.0 < r < d / 2.0 <= 0.5):
        raise DomainError(f"need 0 < r < d/2 <= 1/2, got r={r}, d={d}")


def cusp_test_energy(r: float, d: float) -> CapacityEstimate:
    """Exact Dirichlet energy 1 / int_r^{d/2} e^{1/t} dt of the test function.

    The test function is 1 for x1 <= r, 0 for x1 >= d/2 and
    1 - int_r^{x1} e^{1/t} dt / int_r^{d/2} e^{1/t} dt in between; with
    d = min(1, distance of the far set from the tip) it is admissible for any
    condenser pairing the tip arc against that far set. The double value
    underflows to 0 for r below ~0.0007; log_value is exact regardless.
    """
    _check_test_radii(r, d)
    log_energy = -_log_width_integral(r, d / 2.0)
    with np.errstate(under="ignore"):
        value = float(np.exp(log_energy))
    return CapacityEstimate(value=value, log_value=log_energy)


@dataclass(frozen=True)
class DecayCheck:
    s: float
    log_ratios: tuple
    passed: bool


@dataclass(frozen=True)
class DecayReport:
    checks: tuple
    passed: bool


def superpolynomial_decay_check(s_list, r_list, log_energy_fn=None) -> DecayReport:
    """Check energy(r) / r^s -> 0 for every s, on log scale (test energy, d = 1).

    A check passes when the tail of the log-ratio sequence decreases
    monotonically and ends below its start. log_energy_fn can substitute a
    surrogate energy (negative controls); it is called once per cutoff.
    """
    rs = [float(r) for r in r_list]
    if len(rs) < 4 or any(b >= a for a, b in zip(rs[:-1], rs[1:])):
        raise DomainError("r_list must be strictly decreasing with >= 4 entries")
    if any(not (0.0 < r < 0.25) for r in rs):
        raise DomainError("cutoffs must lie in (0, 1/4)")
    if log_energy_fn is None:
        log_energy_fn = lambda r: cusp_test_energy(r, 1.0).log_value
    log_energies = [log_energy_fn(r) for r in rs]
    checks = []
    for s in s_list:
        lr = [e - s * math.log(r) for e, r in zip(log_energies, rs)]
        tail = lr[len(lr) // 2 :]
        decreasing = all(b < a for a, b in zip(tail[:-1], tail[1:]))
        checks.append(DecayCheck(s=float(s), log_ratios=tuple(lr),
                                 passed=bool(decreasing and lr[-1] < lr[0])))
    return DecayReport(checks=tuple(checks), passed=all(c.passed for c in checks))


# ---------------------------------------------------------------------------
# Grid solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSolverConfig:
    resolution: int = 256          # cells per unit length
    tolerance = 1e-8               # relative residual target: a constant, not a field

    def __post_init__(self):
        if self.resolution < 16:
            raise DomainError("resolution must be >= 16 cells per unit")


# CG iterations before ConvergenceError, and the most nodes of a grid: a
# solve holds about a dozen float64 arrays that long, 1.6 GB
_MAX_ITERATIONS = 50000
_MAX_GRID_NODES = 2**24


@dataclass(frozen=True)
class Grid2D:
    """Uniform node grid: node (i, j) sits at (x0 + i h, y0 + j h); see `axes`."""

    x0: float
    y0: float
    h: float
    nx: int
    ny: int

    def axes(self):
        """Node coordinates along x and along y.

        Node i of an axis of n nodes sits at c + h (i - (n - 1)/2) about the
        axis's centre c = x0 + h (n - 1)/2: nodes at mirror positions get
        exactly opposite offsets from c for every h, where x0 + h i mirrors
        exactly only for h a power of two.
        """
        return tuple(x0 + self.h * (n - 1) / 2.0 + self.h * (np.arange(n) - (n - 1) / 2.0)
                     for x0, n in ((self.x0, self.nx), (self.y0, self.ny)))

    @classmethod
    def square(cls, half_extent: float, resolution: int) -> "Grid2D":
        """The grid covering [-half_extent, half_extent]^2 at `resolution` cells per
        unit; DomainError, before any array exists, past _MAX_GRID_NODES nodes."""
        h = 1.0 / resolution if resolution <= sys.float_info.max else 0.0
        cells = half_extent / h if h else math.inf
        n = 2 * int(math.ceil(cells)) + 1 if cells <= _MAX_GRID_NODES else math.inf
        if n * n > _MAX_GRID_NODES:
            raise DomainError(f"a grid would hold more than {_MAX_GRID_NODES} nodes")
        x0 = -h * (n - 1) / 2.0
        return cls(x0=x0, y0=x0, h=h, nx=n, ny=n)


# Grid rows' worth of points per call of a weight function: 1/K holds about
# 20 arrays of its input's size in temporaries, so a whole-grid call would
# need more memory than the solve.
_WEIGHT_ROWS = 32


def _edge_midpoint_weights(grid: Grid2D, weight, where):
    """x-edge (nx-1, ny) and y-edge (nx, ny-1) arrays of the vectorized weight(x, y) at
    the midpoints of the edges with both ends in the node mask `where`, 0 elsewhere."""
    xs, ys = grid.axes()
    out = []
    for x, y, keep in ((0.5 * (xs[:-1] + xs[1:]), ys, where[:-1, :] & where[1:, :]),
                       (xs, 0.5 * (ys[:-1] + ys[1:]), where[:, :-1] & where[:, 1:])):
        w, k = np.zeros(keep.shape), np.flatnonzero(keep)
        for part in np.split(k, range(_WEIGHT_ROWS * grid.ny, k.size, _WEIGHT_ROWS * grid.ny)):
            i, j = np.divmod(part, y.size)
            w.flat[part] = weight(x[i], y[j])
        out.append(w)
    return tuple(out)


# Preconditioner: a symmetric V-cycle over 2x2 aggregates, in float32. Damped
# Jacobi smooths before and after the coarse correction; the correction is
# scaled up because a piecewise-constant prolongation undershoots smooth
# errors. The hierarchy ends at the first level of at most this many nodes,
# which a dense inverse solves exactly: the annulus ends at 10 x 10 nodes and
# the tip condenser at 18 x 10, where one Jacobi step on a 2 x 2 level cost
# them 3 and 5 CG iterations. With one BLAS thread the inverse takes about
# 0.3 ms at 100 nodes, 1.4 ms at 180 and 6.8 ms at 324, where it eats the gain.
_JACOBI_DAMPING = 0.85
_COARSE_SCALE = 1.6
_COARSEST_NODES = 200
# float32's resolution: the float32 V-cycle resolves no mode of a level whose
# Jacobi-scaled eigenvalue lies below it
_FLOAT32_EPS = float(np.finfo(np.float32).eps)


def _dot(a, b):
    """a . b in one pass. einsum sums in numpy's own loop, not BLAS, whose ddot
    splits the sum across threads: the bits would depend on the thread count."""
    return float(np.einsum("i,i->", a, b))


class _Level:
    """(A u)_k = g_k u_k + sum_j w_kj (u_k - u_j) on one flat n0 x n1 grid.

    n0 and n1 are even, so 2x2 aggregates tile the grid; node (i, j) is entry
    i n1 + j. wx[k] weighs the edge from k to k + n1 and wy[k] the edge from
    k to k + 1, both zero where the edge would leave the grid. The ground g
    lives only next to the plates, so it is kept sparse (gidx, gval). Nodes
    with no edges and no ground (fixed, padded) have zero rows: the values
    they hold never reach another row. `smooth` is the damped inverse
    diagonal, 0 on such nodes, and `bottom` the dense inverse of the coarsest
    level; `x`, `rhs`, `res` and `tmp` are the V-cycle's buffers, and `res`
    and `tmp` (one entry longer, for `bind`) are views of one buffer that all
    levels share. `down` and `up` hold the views the V-cycle works through on
    this level, taken once by `_hierarchy`.
    """

    def __init__(self, shape, wx, wy, gidx, gval):
        self.shape, self.wx, self.wy, self.gidx, self.gval = shape, wx, wy, gidx, gval
        self.smooth = self.bottom = self.x = self.rhs = self.res = self.tmp = None
        self.down = self.up = None

    def bind(self, u, out):
        """out = A u as a function of no arguments, its slices taken once."""
        n, n1, gidx, gval = u.size, self.shape[1], self.gidx, self.gval
        # y-fluxes between zero ends: out_k = flux_{k-1} - flux_k in one pass,
        # the bits of -flux_k + flux_{k-1}; -0.0 matches even a zero's sign.
        # The ends are written on every call: the levels' tmp views overlap.
        pad = self.tmp[: n + 1]
        y = (u[1:], u[:-1], pad[1:n], self.wy[:-1], pad[:-1], pad[1:])
        x = (u[n1:], u[:-n1], self.tmp[: n - n1], self.wx[:-n1], out[:-n1], out[n1:])

        def run():
            pad[0] = pad[n] = -0.0
            hi, lo, flux, w, a, b = y
            np.multiply(np.subtract(hi, lo, out=flux), w, out=flux)
            np.subtract(a, b, out=out)
            hi, lo, flux, w, a, b = x
            np.multiply(np.subtract(hi, lo, out=flux), w, out=flux)
            np.subtract(a, flux, out=a)
            np.add(b, flux, out=b)
            out[gidx] += gval * u[gidx]
            return out

        return run

    def coarse(self):
        """The Galerkin product P^T A P for piecewise-constant P over 2x2 aggregates.

        A 5-point graph Laplacian whose edge weights sum the fine edges
        crossing between two aggregates, plus a ground summing the fine
        ground of each aggregate; padded to even sides.
        """
        n0, n1 = self.shape
        m0, m1 = n0 // 2, n1 // 2
        shape = (m0 + m0 % 2, m1 + m1 % 2)
        wx, wy = np.zeros((2,) + shape, self.wx.dtype)
        fx = self.wx.reshape(n0, n1)[1::2]
        wx[:m0, :m1] = fx[:, 0::2] + fx[:, 1::2]
        fy = self.wy.reshape(n0, n1)[:, 1::2]
        wy[:m0, :m1] = fy[0::2] + fy[1::2]
        i, j = np.divmod(self.gidx, n1)
        ground = np.bincount(i // 2 * shape[1] + j // 2, weights=self.gval,
                             minlength=shape[0] * shape[1])
        gidx = np.flatnonzero(ground)
        return _Level(shape, wx.ravel(), wy.ravel(), gidx, ground[gidx].astype(self.gval.dtype))

    def smoother(self):
        n1 = self.shape[1]
        diag = np.zeros_like(self.wx)
        diag[:-1] += self.wy[:-1]
        diag[1:] += self.wy[:-1]
        diag[:-n1] += self.wx[:-n1]
        diag[n1:] += self.wx[:-n1]
        diag[self.gidx] += self.gval
        # no step on a zero diagonal, nor on a subnormal one, whose damped
        # inverse would overflow
        diag[diag < np.finfo(diag.dtype).tiny] = np.inf
        return np.divide(_JACOBI_DAMPING, diag, out=diag)

    def inverse(self):
        """The dense float64 inverse of the level's matrix over the nodes whose
        row is nonzero, with zero rows and columns elsewhere.

        The diagonal is first raised by _FLOAT32_EPS of itself, below what the
        float32 V-cycle resolves: so the inverse stays finite on a part of the
        level with no ground (a piece of the domain away from both plates),
        whose matrix is singular, and on weights of any spread.
        """
        n, n1 = self.wx.size, self.shape[1]
        a = np.zeros((n, n))
        k = np.arange(n)
        for w, step in ((self.wy, 1), (self.wx, n1)):
            i, w = k[:-step], w[:-step]
            a[i, i + step] = a[i + step, i] = -w
            a[i, i] += w
            a[i + step, i + step] += w
        a[self.gidx, self.gidx] += self.gval
        active = np.flatnonzero(np.diagonal(a))
        a[active, active] *= 1.0 + _FLOAT32_EPS
        block = np.ix_(active, active)
        out = np.zeros((n, n))
        out[block] = np.linalg.inv(a[block])
        return out


def _edges_to(wx, wy, src, dst):
    """The edges from src to dst nodes of the 2-D grid as (flat src node
    indices, weights), one pair per direction x+, x-, y+, y-."""
    ny = src.shape[1]
    out = []
    for w, head, tail, di, dj in ((wx, src[:-1, :], dst[1:, :], 0, 0),
                                  (wx, src[1:, :], dst[:-1, :], 1, 0),
                                  (wy, src[:, :-1], dst[:, 1:], 0, 0),
                                  (wy, src[:, 1:], dst[:, :-1], 0, 1)):
        i, j = np.divmod(np.flatnonzero(head & tail), w.shape[1])
        out.append(((i + di) * ny + j + dj, w[i, j]))
    return out


def _sum_per_node(edges, nodes):
    """Per entry of the sorted `nodes`, the weights of its edges summed in order."""
    total = np.zeros(nodes.size)
    for k, w in edges:
        total[np.searchsorted(nodes, k)] += w
    return total


def _fine_level(wx, wy, F, E, free):
    """The finest level in float64, and the plate terms of the energy.

    Edges between free nodes stay edges; the weight of a free node's edges to
    the plates becomes its ground. Every weight is multiplied by `scale`, the
    power of two that brings the largest to [1/2, 1): exact, and it keeps
    CG's products and the float32 V-cycle clear of over- and underflow for
    weights of any double magnitude. Returns the level, (gidx, to_F, to_E,
    fixed_energy) and scale: per ground node the weight of its edges to F and
    to E (to_E is the right-hand side b), and the energy of the edges from F
    to E.
    """
    nx, ny = free.shape
    shape = (nx + nx % 2, ny + ny % 2)
    to_plate = [_edges_to(wx, wy, free, plate) for plate in (F, E)]
    near = np.zeros(nx * ny, bool)
    for edges in to_plate:
        for nodes, _ in edges:
            near[nodes] = True
    nodes = np.flatnonzero(near)
    to_f, to_e = (_sum_per_node(edges, nodes) for edges in to_plate)
    ground = to_f + to_e
    keep = np.flatnonzero(ground)
    nodes, to_f, to_e, ground = nodes[keep], to_f[keep], to_e[keep], ground[keep]
    # over all of F in flat order, so that np.sum groups as over a grid array
    fixed_energy = float(np.sum(_sum_per_node(_edges_to(wx, wy, F, E), np.flatnonzero(F))))
    ex, ey = np.zeros(shape), np.zeros(shape)
    np.copyto(ex[: nx - 1, :ny], wx, where=free[:-1, :] & free[1:, :])
    np.copyto(ey[:nx, : ny - 1], wy, where=free[:, :-1] & free[:, 1:])
    top = max(ex.max(), ey.max(), ground.max(initial=0.0))
    scale = math.ldexp(1.0, -math.frexp(top)[1])
    ex *= scale
    ey *= scale
    i, j = np.divmod(nodes, ny)
    gidx = i * shape[1] + j
    plates = (gidx, to_f * scale, to_e * scale, fixed_energy * scale)
    fine = _Level(shape, ex.ravel(), ey.ravel(), gidx, ground * scale)
    fine.tmp = np.empty(fine.wx.size + 1)
    return fine, plates, scale


def _hierarchy(fine):
    """The V-cycle's float32 levels, finest first, with their work buffers;
    the last, of at most _COARSEST_NODES nodes, carries its dense inverse.

    Their `res` and `tmp` share the memory of the float64 level's `tmp`,
    which the V-cycle and the CG products use in turn. The buffers stay put
    from here on, so the views `_precondition` works through are taken here.
    """
    levels = [_Level(fine.shape, fine.wx.astype(np.float32), fine.wy.astype(np.float32),
                     fine.gidx, fine.gval.astype(np.float32))]
    while levels[-1].wx.size > _COARSEST_NODES:
        levels.append(levels[-1].coarse())
    levels[-1].bottom = levels[-1].inverse()
    shared = fine.tmp.view(np.float32)
    n = fine.wx.size
    for level in levels:
        size = level.wx.size
        level.smooth = level.smoother()
        level.x = np.empty(size, np.float32)
        level.rhs = np.zeros(size, np.float32)  # padding stays 0
        level.res, level.tmp = shared[:size], shared[n : n + size + 1]
    for level, coarse in zip(levels, levels[1:]):
        (n0, n1), apply = level.shape, level.bind(level.x, level.res)
        m0, m1 = n0 // 2, n1 // 2
        rows = level.res.reshape(m0, 2 * n1)
        pairs = level.tmp[: m0 * n1].reshape(m0, m1, 2)
        level.down = (apply, rows[:, :n1], rows[:, n1:], pairs.reshape(m0, n1), pairs[..., 0],
                      pairs[..., 1], coarse.rhs.reshape(coarse.shape)[:m0, :m1])
        level.up = (apply, coarse.x, coarse.x.reshape(coarse.shape)[:m0, :m1], pairs[..., 0],
                    pairs[..., 1], level.x.reshape(m0, 2, n1), pairs.reshape(m0, 1, n1))
    return levels


def _precondition(levels):
    """Symmetric V-cycle on levels[0].rhs from a zero start, exact on the last
    level; the result is levels[0].x."""
    # restriction: sums over 2x2 aggregates, first of row pairs, then of column pairs
    for level in levels[:-1]:
        apply, lo, hi, pairs, even, odd, coarse_rhs = level.down
        np.multiply(level.smooth, level.rhs, out=level.x)
        np.subtract(level.rhs, apply(), out=level.res)
        np.add(lo, hi, out=pairs)
        np.add(even, odd, out=coarse_rhs)
    # the coarsest level solved exactly; einsum, not a BLAS matvec, as in _dot
    last = levels[-1]
    np.copyto(last.x, np.einsum("ij,j->i", last.bottom, last.rhs))
    # prolongation: one row of column pairs, added to both rows of each pair
    for level in levels[-2::-1]:
        apply, xc, window, even, odd, blocks, row = level.up
        np.multiply(xc, _COARSE_SCALE, out=xc)
        np.copyto(even, window)
        np.copyto(odd, window)
        np.add(blocks, row, out=blocks)
        res = np.subtract(level.rhs, apply(), out=level.res)
        np.add(level.x, np.multiply(level.smooth, res, out=res), out=level.x)
    return levels[0].x


def _norm(r, lines):
    """sqrt(sum_i 2^k_i r_i^2), k_i the number of mirror `lines` through node i.

    `lines` are slices of the flat level; a node on two lines takes a third
    slice of its own, so that it counts 1 + 1 + 1 + 1 times. Without lines
    this is the plain 2-norm.
    """
    total = _dot(r, r)
    for line in lines:
        total += _dot(r[line], r[line])
    return math.sqrt(total)


def _pcg(fine, r, cfg: GridSolverConfig, lines=()):
    """CG in float64 on the finest level from u = 0, preconditioned by the V-cycle.

    r holds b on entry and the recurrence residual b - A u on exit; the loop
    stops when ||r|| <= cfg.tolerance ||b||, both norms weighted by `_norm`
    over the mirror `lines` of a folded grid. Each step casts r into the
    float32 V-cycle and adds its output z into the float64 p, so the
    preconditioner's rounding changes the iteration count, not the solution.
    A residual norm that is not finite raises ConvergenceError. Returns u,
    the iteration count and ||b||.
    """
    levels = _hierarchy(fine)

    def precondition():
        np.copyto(levels[0].rhs, r)
        return _precondition(levels)

    u = np.zeros_like(r)
    ap = np.empty_like(r)
    p = precondition().astype(r.dtype)
    product, step = fine.bind(p, ap), fine.tmp[: u.size]
    rz = _dot(r, p)
    b_norm = r_norm = _norm(r, lines)
    threshold = cfg.tolerance * max(b_norm, 1e-300)
    iterations = 0
    while not r_norm <= threshold:
        if not math.isfinite(r_norm):
            raise ConvergenceError(f"CG residual {r_norm} after {iterations} iterations")
        if iterations >= _MAX_ITERATIONS:
            raise ConvergenceError(
                f"CG residual {r_norm:.3e} above {threshold:.3e} "
                f"after {_MAX_ITERATIONS} iterations"
            )
        product()
        alpha = rz / _dot(p, ap)
        u += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=ap)
        z = ap  # free until the next A p: z in float64 for the products
        np.copyto(z, precondition())
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
        r_norm = _norm(r, lines)
        iterations += 1
    return u, iterations, b_norm


_FLIPS = ((slice(None, None, -1),), (slice(None), slice(None, None, -1)))


def _mirror_axes(F, E, dom, wx, wy):
    """The grid axes along which the condenser is its own mirror image.

    F, E and dom must equal their mirror images, and so must the weights of
    the kept edges, those with both ends in dom; the others never enter the
    problem.
    """
    kept = (dom[:-1, :] & dom[1:, :], dom[:, :-1] & dom[:, 1:])
    return [axis for axis, flip in enumerate(_FLIPS)
            if all(np.array_equal(a, a[flip]) for a in (F, E, dom))
            and all(np.all((w == w[flip]) | ~k) for w, k in zip((wx, wy), kept))]


def _fold(F, E, dom, wx, wy, axis):
    """The first half of a condenser that is mirror-symmetric along `axis`.

    The folded energy is half the full one. An odd side 2m + 1 keeps nodes
    0..m: node m lies on the mirror line, and the edges along the line, each
    its own mirror image, carry half their weight. An even side 2m keeps
    nodes 0..m-1 and drops the edges across the line, which join a node to
    its mirror image: the symmetric solution puts no energy on them.
    """
    if axis == 1:
        F, E, dom, wy, wx = _fold(F.T, E.T, dom.T, wy.T, wx.T, 0)
        return F.T, E.T, dom.T, wx.T, wy.T
    n = F.shape[0]
    keep = (n + 1) // 2
    wy = np.array(wy[:keep], float)
    if n % 2:
        wy[-1] *= 0.5
    return F[:keep], E[:keep], dom[:keep], wx[: keep - 1], wy


def grid_capacity(weight, F_mask, E_mask, domain_mask, grid: Grid2D,
                  cfg: GridSolverConfig) -> CapacityEstimate:
    """Minimize the discrete weighted Dirichlet energy with u=0 on F, u=1 on E.

    5-point stencil; `weight` is None for unit weights, which allocates no
    weight array, or a pair (wx, wy) of x- and y-edge weight arrays of shapes
    (nx-1, ny) and (nx, ny-1) (see `_edge_midpoint_weights`). Edges with
    either end outside the domain are dropped (natural boundary). Conjugate
    gradients in float64 preconditioned by a float32 multigrid V-cycle, from
    a zero start, stopped when the unpreconditioned residual falls to
    `cfg.tolerance` relative to the right-hand side; the estimate records the
    iterations and the final relative residual ||b - A u|| / ||b||,
    recomputed from u. In two dimensions the grid spacing cancels: the energy
    is a plain weighted sum of squared differences.

    Along each axis where F, E, the domain and the kept edge weights equal
    their mirror images, the solution is symmetric too, and the problem is
    folded onto the first half of the axis (see `_fold`); the energy is then
    2^folds times the folded one, exactly. The stopping test and `residual`
    stay those of the mirrored solution on the full grid: a node on k mirror
    lines counts 2^k times in ||r|| and ||b||, since its folded row is 2^-k
    times its full one. Other inputs are solved on the full grid.
    """
    F = np.asarray(F_mask, bool)
    E = np.asarray(E_mask, bool)
    dom = np.asarray(domain_mask, bool)
    if F.shape != (grid.nx, grid.ny) or E.shape != F.shape or dom.shape != F.shape:
        raise MaskError("mask shapes must match the grid")
    if not F.any() or not E.any():
        raise MaskError("both condenser plates must be nonempty")
    if (F & E).any():
        raise MaskError("condenser plates overlap")
    if (F & ~dom).any() or (E & ~dom).any():
        raise MaskError("plates must be contained in the domain")

    if weight is None:  # unit weights as read-only views of one 1.0
        weight = (np.broadcast_to(1.0, (grid.nx - 1, grid.ny)),
                  np.broadcast_to(1.0, (grid.nx, grid.ny - 1)))
    if not isinstance(weight, tuple):
        raise TypeError("weight must be None or a pair (wx, wy) of edge weight arrays")
    wx, wy = weight
    if wx.shape != (grid.nx - 1, grid.ny) or wy.shape != (grid.nx, grid.ny - 1):
        raise MaskError("edge weight shapes must match the grid")
    # min is NaN if any entry is, and the empty weights of a one-node-wide grid pass
    if not all(w.min(initial=0.0) >= 0.0 and math.isfinite(w.max(initial=0.0)) for w in (wx, wy)):
        raise MaskError("weight must be finite and nonnegative on the grid")

    axes = _mirror_axes(F, E, dom, wx, wy)
    for axis in axes:
        F, E, dom, wx, wy = _fold(F, E, dom, wx, wy, axis)
    # every edge from a free node ends in the domain, as do the plates
    fine, (gidx, to_f, to_e, fixed_energy), scale = _fine_level(wx, wy, F, E, dom & ~F & ~E)
    del wx, wy  # frees the copies a fold made
    # the mirror lines of folded odd sides: the last row and the last column
    (nx, ny), n1 = F.shape, fine.shape[1]
    lines = [(slice((nx - 1) * n1, nx * n1), slice(ny - 1, None, n1))[axis]
             for axis in axes if (grid.nx, grid.ny)[axis] % 2]
    if len(lines) == 2:  # their crossing counts four times
        lines.append(slice((nx - 1) * n1 + ny - 1, (nx - 1) * n1 + ny))
    r = np.zeros(fine.wx.size)
    r[gidx] = to_e
    u, iterations, b_norm = _pcg(fine, r, cfg, lines)
    # b - A u; rows of nodes without unknowns are 0
    r = fine.bind(u, r)()
    r[gidx] -= to_e
    residual = _norm(r, lines) / max(b_norm, 1e-300)
    del r
    # edges between free nodes, then from free nodes to F (u = 0) and E (u = 1)
    ug = u[gidx]
    energy = float(np.sum(fine.wy[:-1] * np.square(u[1:] - u[:-1]))
                   + np.sum(fine.wx[:-n1] * np.square(u[n1:] - u[:-n1]))
                   + np.sum(to_f * ug**2) + np.sum(to_e * (1.0 - ug) ** 2) + fixed_energy) / scale
    energy = math.ldexp(energy, len(axes))  # each fold halved the energy
    return CapacityEstimate(value=energy, iterations=iterations, residual=residual)


def _annulus_grid(rho: float, R: float, resolution: int) -> Grid2D:
    if not (0.0 < rho < R < math.inf):
        raise DomainError(f"need 0 < rho < R < inf, got ({rho}, {R})")
    return Grid2D.square(R * 1.02, resolution)


def annulus_condenser(rho: float, R: float, resolution: int):
    """Grid and masks for the classical annulus condenser (F = inner disk)."""
    grid = _annulus_grid(rho, R, resolution)
    x, y = grid.axes()
    rr = np.hypot(x[:, None], y[None, :])
    dom, F = rr <= R + grid.h, rr <= rho
    E = (rr >= R) & dom
    return grid, F, E, dom


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------

def _bound_log_argument(lam: float, exp_mass: float, log_diam_e: float, C: float) -> float:
    """log(sqrt(4 L / pi) / diam E), checked to be positive, as are lam, L and C."""
    if not (lam > 0.0 and exp_mass > 0.0 and C > 0.0):
        raise DomainError("lambda, the exponential mass and C must be positive")
    log_arg = 0.5 * math.log(4.0 * exp_mass / math.pi) - log_diam_e
    if not (log_arg > 0.0):
        raise DomainError(f"sqrt(4 L / pi) / diam E must exceed 1, got exp({log_arg})")
    return log_arg


def capacity_lower_bound(lam: float, exp_mass: float, log_diam_e: float, C: float = 1.0) -> float:
    """C * lam * (log(sqrt(4 L / pi) / diam E))^-2 with L the exp-distortion mass.

    Takes log diam E, so the bound stays exact after diam E underflows.
    """
    return C * lam * _bound_log_argument(lam, exp_mass, log_diam_e, C) ** -2.0


def capacity_lower_bound_log(lam: float, exp_mass: float, log_diam_e: float,
                             C: float = 1.0) -> float:
    """log of capacity_lower_bound; finite where the bound itself underflows."""
    log_arg = _bound_log_argument(lam, exp_mass, log_diam_e, C)
    return math.log(C) + math.log(lam) - 2.0 * math.log(log_arg)


def preimage_diameter_bound_log(diam_eprime: float, lam: float, eps: float,
                                C: float = 1.0, Ctilde: float = 1.0) -> float:
    """log of C * exp(-Ctilde / diam'^{(1+eps)/lam}); finite past underflow."""
    if not all(v > 0.0 for v in (diam_eprime, lam, eps, C, Ctilde)):
        raise DomainError("all bound parameters must be positive")
    try:
        return math.log(C) - Ctilde * diam_eprime ** (-(1.0 + eps) / lam)
    except OverflowError:  # the power passes the largest double
        return -math.inf


# ---------------------------------------------------------------------------
# Capacity experiment toward the cusp tip
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentRow:
    """One row of the tip experiment; the fields in output column order."""

    t: float
    capacity: float
    capacity_over_t: float
    capacity_over_t2: float
    diam_image_arc: float
    diam_preimage: float
    log_diam_preimage: float
    lower_bound_ref: float
    log_lower_bound_ref: float
    log_diam_bound: float


def experiment_table(rows):
    """Header and value tuples of tip-experiment rows, for csv_text."""
    return [f.name for f in fields(ExperimentRow)], [astuple(r) for r in rows]


def _tip_grid(resolution: int) -> Grid2D:
    return Grid2D.square(1.0, resolution)  # over the source disk


def tip_capacity_experiment(t_list, chain: MapChain, cfg: GridSolverConfig,
                            arc_samples: int = 64) -> list:
    """Pullback condenser capacities for a shrinking tip arc.

    For each cutoff t: the image boundary arc within |w| <= t is pulled back
    to the source disk, paired against the central disk of radius 1/4, and
    the 1/K-weighted grid capacity of that condenser is solved; 1/K is
    sampled once, on the edges inside the disk with y <= 0, and mirrored
    (the solve reads no other edge). The row also
    carries both arc diameters (the preimage one additionally as a log value,
    since it collapses double-exponentially), the classical lower-bound
    formula at the preimage log-diameter with its log (finite after the bound
    underflows, from t = 1/512 on), and the log of the
    preimage-diameter bound at the image-arc diameter. Both bounds take the
    reference constants lambda = eps = C = Ctilde = 1 and the exponential
    mass L = e pi of a conformal reference map.
    """
    ts = [float(t) for t in t_list]
    if len(ts) < 1 or any(b >= a for a, b in zip(ts[:-1], ts[1:])):
        raise DomainError("t_list must be strictly decreasing")
    if not chain.has_cusp():
        raise DomainError("experiment needs the full chain")

    grid = _tip_grid(cfg.resolution)
    x, y = grid.axes()
    rr = np.hypot(x[:, None], y[None, :])
    dom, F = rr < 1.0, rr <= 0.25
    del rr  # not held through the solves
    # the solve reads only edges inside dom; K(conj z) = K(z) and the node
    # coordinates mirror about y = 0, so sample the half y <= 0 and mirror it
    m = grid.ny // 2
    wx, wy = weights = _edge_midpoint_weights(
        grid, lambda x, y: 1.0 / chain_distortion_values(x + 1j * y, chain),
        dom & (np.arange(grid.ny) <= m))
    wx[:, m + 1 :] = wx[:, m - 1 :: -1]
    wy[:, m:] = wy[:, m - 1 :: -1]
    # the nearest node to a point lies between the midpoints around it
    x_cuts, y_cuts = 0.5 * (x[:-1] + x[1:]), 0.5 * (y[:-1] + y[1:])

    mass = math.e * math.pi
    rows = []
    prev_E = cap = None
    for t in ts:
        arc = preimage_arc(t, chain, arc_samples)
        z = arc.samples
        i, j = np.searchsorted(x_cuts, z.real), np.searchsorted(y_cuts, z.imag)
        # boundary samples: step inward toward the center
        i = np.where(dom[i, j], i, i + np.where(z.real < 0.0, 1, -1))
        E = np.zeros_like(dom)
        E[i, j] = dom[i, j] & ~F[i, j]
        # the solve sees t only through E: an unchanged mask keeps the capacity
        if prev_E is None or not np.array_equal(E, prev_E):
            cap = grid_capacity(weights, F, E, dom, grid, cfg)
        prev_E = E
        d_img = arc_diameter(arc.image_samples)
        rows.append(ExperimentRow(
            t=t,
            capacity=cap.value,
            capacity_over_t=cap.value / t,
            capacity_over_t2=_over_square(cap.value, t),
            diam_image_arc=d_img,
            diam_preimage=arc.diameter,
            log_diam_preimage=arc.log_diameter,
            lower_bound_ref=capacity_lower_bound(1.0, mass, arc.log_diameter),
            log_lower_bound_ref=capacity_lower_bound_log(1.0, mass, arc.log_diameter),
            log_diam_bound=preimage_diameter_bound_log(d_img, 1.0, 1.0),
        ))
    return rows
