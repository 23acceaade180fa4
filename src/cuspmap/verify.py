"""Built-in certification suite: ten numbered criteria, one PASS/FAIL each.

Every criterion is a pure function of its configuration: it returns its
`Evidence`, a verdict, the details `summary.json` reports and its artifacts
as deterministic CSV/JSON texts by file name. `run_criterion` alone times a
criterion against its wall-clock budget, judges it and writes its artifacts.
The determinism criterion runs the other nine twice and compares the two
runs' artifact texts in memory.

Three criteria encode fixed numerical targets that direct evaluation of the
map shows to be unattainable (see README, "Honest failures"); they are
implemented exactly as stated and report FAIL rather than being weakened.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .capacity import (
    GridSolverConfig,
    annulus_condenser,
    experiment_table,
    grid_capacity,
    superpolynomial_decay_check,
    tip_capacity_experiment,
)
from .distortion import (
    cusp_jacobian_fd_values,
    cusp_jacobian_values,
    distortion_table,
    fit_growth_envelope,
)
from .io_formats import csv_text, json_text, write
from .maps import (
    _HALF_PI,
    _SECTORS,
    MapChain,
    boundary_image_trace,
    chain_inverse_values,
    chain_values,
    fit_tip_curvature,
    inner_angle_map,
    normalize_angle,
    outer_angle_map,
)
from .profile import ProfileParams, _curves
from .quadrature import AnnularScheme, Verdict, distortion_exp_integrals, distortion_power_integrals

__all__ = ["CriterionResult", "CRITERIA", "Evidence", "run_criterion", "run_suite",
           "select_criteria", "halton", "disk_points"]


def halton(n: int, skip: int = 20) -> np.ndarray:
    """First n points of the (2, 3)-Halton sequence, shape (n, 2).

    Point i is the radical inverse of the index i + skip + 1 (0 for an index
    below 1). Each pass adds one digit of every index, so that each point
    sums the same terms in the same order as a digit loop on its own.
    """
    index = np.maximum(np.arange(skip + 1, skip + n + 1), 0)

    def axis(base):
        x, f, k = np.zeros(n), 1.0, index
        while k.any():
            f /= base
            x += f * (k % base)
            k = k // base
        return x

    return np.column_stack([axis(2), axis(3)])


def disk_points(n: int, skip: int) -> np.ndarray:
    """n quasi-random points of the disk |z| <= 0.99, uniform in area: the
    Halton points after `skip` as squared radius and angle."""
    pts = halton(n, skip)
    rad = 0.99 * np.sqrt(pts[:, 0])
    ang = 2.0 * math.pi * pts[:, 1]
    return rad * np.cos(ang) + 1j * (rad * np.sin(ang))


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    elapsed: float
    budget: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.index:2d} {self.name} ({self.elapsed:.1f}s)"


@dataclass(frozen=True)
class Evidence:
    """What a criterion found: its checks' verdict, the details reported in
    `summary.json`, and its artifacts, file name -> text."""

    passed: bool
    details: dict
    artifacts: dict


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _halton_polar(n, r_lo, r_hi, theta_lo, theta_hi, skip=20):
    pts = halton(n, skip)
    r = np.exp(math.log(r_lo) + pts[:, 0] * (math.log(r_hi) - math.log(r_lo)))
    t = theta_lo + pts[:, 1] * (theta_hi - theta_lo)
    return r, t


def criterion_1(cg: float) -> Evidence:
    """Analytic differential vs central finite differences of the raw map."""
    params = ProfileParams(cg=cg)
    margin = 1e-3
    devs, rows = [], []
    for sector, (tlo, thi) in zip(("inner", "outer"), _SECTORS):
        rs, ts = _halton_polar(1000, 1e-6, 0.9, tlo + margin, thi - margin, skip=17)
        theta = normalize_angle(ts)
        a = cusp_jacobian_values(rs, theta, params)
        f = cusp_jacobian_fd_values(rs, theta, params, h=1e-7)
        # Python's x**2, not a numpy square: the two can differ in the last bit
        fro = np.array([math.sqrt(a11**2 + a12**2 + a21**2 + a22**2)
                        for a11, a12, a21, a22 in zip(*(e.tolist() for e in a))])
        dev = np.max(np.abs(np.subtract(f, a)), axis=0) / fro
        devs.append(dev)
        rows.extend(zip([sector] * len(rs), rs.tolist(), ts.tolist(), dev.tolist()))
    # np.max keeps a NaN deviation, and a NaN fails the check
    worst = float(np.max(np.concatenate(devs)))
    return Evidence(worst <= 1e-6, {"worst_rel_deviation": worst, "points_per_sector": 1000},
                    {"jacobian_fd_deviations.csv":
                     csv_text(["sector", "r", "theta", "rel_deviation"], rows)})


def criterion_2(cg: float) -> Evidence:
    """Round trip, seam continuity, and orientation of the chain."""
    params = ProfileParams(cg=cg)
    chain = MapChain(params)

    x = disk_points(1000, skip=11)
    worst_rt = float(np.max(np.abs(chain_inverse_values(chain_values(x, chain), chain) - x)))

    log_radii = np.linspace(math.log(1e-12), 0.0, 200)
    a = np.arctan(_curves(log_radii, params.log_cg())[4])  # cusp half-angles
    gap_front = np.abs(inner_angle_map(_HALF_PI, a) - outer_angle_map(_HALF_PI, a))
    wrap = outer_angle_map(3 * _HALF_PI, a) - (inner_angle_map(-_HALF_PI, a) + 2.0 * math.pi)
    worst_seam = float(np.max([gap_front, np.abs(wrap)]))

    rs, ts = _halton_polar(1000, 1e-9, 1.0, -_HALF_PI, 3 * _HALF_PI, skip=29)
    min_det = float(np.min(distortion_table(np.log(rs), ts, params)[1]))

    details = {"worst_round_trip": worst_rt, "worst_seam_gap": worst_seam,
               "min_jacobian_det": min_det}
    passed = worst_rt <= 1e-9 and worst_seam <= 1e-12 and min_det > 0.0
    return Evidence(passed, details, {"homeomorphism_sanity.json": json_text(details)})


def criterion_3(cg: float) -> Evidence:
    """Distortion against the log * loglog envelope: band and theta=pi limit.

    Encodes the stated targets: every sampled ratio in [0.05, 2.0] over
    r in [1e-30, 1e-2] for rays in both sectors, and the theta=pi ratio at
    r = 1e-30 within 0.5 +- 0.05. Direct evaluation gives a theta=pi limit
    of 2 and inner-sector ratios below the floor; reported as-is.
    """
    params = ProfileParams(cg=cg)
    r_values = np.geomspace(1e-30, 1e-2, 29)
    thetas = [0.0, math.pi / 4, _HALF_PI, 3 * math.pi / 4, math.pi, 5 * math.pi / 4, 4.712]
    fits = [fit_growth_envelope(r_values, th, params) for th in thetas]
    band_ok = all(f.passed for f in fits)
    pi_fit = fit_growth_envelope(np.array([1e-30]), math.pi, params)
    pi_limit = pi_fit.ratios[0]
    limit_ok = abs(pi_limit - 0.5) <= 0.05
    rows = [(f.theta, r, ratio) for f in fits for r, ratio in zip(f.r_values, f.ratios)]
    return Evidence(band_ok and limit_ok,
                    {"band_ok": band_ok, "theta_pi_ratio_at_1e-30": pi_limit,
                     "ratio_min": min(f.ratio_min for f in fits),
                     "ratio_max": max(f.ratio_max for f in fits)},
                    {"envelope_ratios.csv": csv_text(["theta", "r", "ratio"], rows)})


def criterion_4(cg: float) -> Evidence:
    """Every power of the distortion integrates: convergent verdicts."""
    chain = MapChain.default(cg)
    scheme = AnnularScheme.dyadic(64)
    rows, ok = [], True
    for rep in distortion_power_integrals((0.5, 1.0, 2.0, 4.0, 8.0), scheme, chain):
        last_ratio = rep.ratio_stats[-1]
        good = rep.verdict is Verdict.CONVERGENT and last_ratio <= 0.9
        ok = ok and good
        rows.append((rep.parameter, rep.verdict.value, last_ratio, rep.partials[-1][1]))
    return Evidence(ok, {"rows": [(r[0], r[1]) for r in rows]},
                    {"power_integrals.csv":
                     csv_text(["p", "verdict", "last_increment_ratio", "total"], rows)})


def criterion_5(cg: float) -> Evidence:
    """Exponential integrals diverge at the matched dyadic scheme.

    Stated for lambda in {0.01, 0.1, 1} at eps down to 2^-64. The increments
    of the two smaller lambdas genuinely shrink at those radii (their growth
    regime starts near 2^-23000 and 2^-10^46; see the deep-scheme tests), so
    this criterion reports FAIL for them; lambda = 1 passes.
    """
    chain = MapChain.default(cg)
    scheme = AnnularScheme.dyadic(64)
    rows, ok = [], True
    for rep in distortion_exp_integrals((0.01, 0.1, 1.0), scheme, chain):
        increasing = all(b > a for a, b in zip(rep.log_partials[:-1], rep.log_partials[1:]))
        growing = all(r >= 1.1 for r in rep.ratio_stats[-3:])
        good = rep.verdict is Verdict.DIVERGENT and increasing and growing
        ok = ok and good
        rows.append((rep.parameter, rep.verdict.value, increasing, rep.ratio_stats[-1],
                     rep.log_partials[-1]))
    return Evidence(ok, {"rows": [(r[0], r[1]) for r in rows]},
                    {"exp_integrals.csv":
                     csv_text(["lambda", "verdict", "log_partials_increasing",
                               "last_increment_ratio", "log_total"], rows)})


def criterion_6(cg: float) -> Evidence:
    """Test-function energy decays faster than every power; negative control."""
    rs = [2.0**-k for k in range(3, 13)]
    report = superpolynomial_decay_check([0.5, 1.0, 2.0, 5.0, 10.0], rs)
    control = superpolynomial_decay_check([10.0], rs, log_energy_fn=lambda r: 2.0 * math.log(r))
    rows = [(c.s, c.passed) + c.log_ratios for c in report.checks]
    return Evidence(report.passed and not control.passed,
                    {"all_pass": report.passed, "control_fails": not control.passed},
                    {"decay_check.csv":
                     csv_text(["s", "passed"] + [f"log_ratio_k{k}" for k in range(3, 13)], rows)})


def criterion_7(cg: float) -> Evidence:
    """Grid solver calibration on the classical annulus condenser."""
    exact = 2.0 * math.pi / math.log(4.0)
    errors = {}
    rows = []
    for res in (128, 256, 512):
        grid, F, E, dom = annulus_condenser(0.25, 1.0, res)
        cap = grid_capacity(None, F, E, dom, grid, GridSolverConfig(resolution=res))
        errors[res] = abs(cap.value - exact) / exact
        rows.append((res, cap.value, errors[res]))
    passed = errors[512] <= 0.02 and errors[128] > errors[256] > errors[512]
    return Evidence(passed, {"exact": exact, "rel_errors": errors},
                    {"annulus_calibration.csv":
                     csv_text(["resolution", "capacity", "rel_error"], rows)})


def criterion_8(cg: float) -> Evidence:
    """Tip condenser capacities: monotone column and power-law decay targets.

    The decay target capacity(t)/t^s -> 0 cannot materialize on a grid: the
    pulled-back arc collapses double-exponentially below one cell, freezing
    the condenser. The monotonicity half holds; the decay half reports FAIL.
    """
    chain = MapChain.default(cg)
    ts = [2.0**-k for k in range(3, 9)]
    rows = tip_capacity_experiment(ts, chain, GridSolverConfig(resolution=256))
    caps = [r.capacity for r in rows]
    monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(caps[:-1], caps[1:]))
    decay_ok = True
    for s in (1.0, 2.0):
        seq = [r.capacity / r.t**s for r in rows]
        decay_ok = decay_ok and all(b < a for a, b in zip(seq[:-1], seq[1:])) and seq[-1] <= 0.1 * seq[0]
    return Evidence(monotone and decay_ok,
                    {"monotone": monotone, "decay_ok": decay_ok, "capacities": caps},
                    {"tip_experiment.csv": csv_text(*experiment_table(rows))})


def criterion_9(cg: float) -> Evidence:
    """The final Mobius stage keeps the cusp boundary quadratically close."""
    ts = np.geomspace(1e-4, 1e-1, 61)
    rows = boundary_image_trace(ts)
    c_narrow = fit_tip_curvature(rows, (1e-4, 1e-2))
    c_wide = fit_tip_curvature(rows, (1e-3, 1e-1))
    stable = abs(c_narrow / c_wide - 1.0) <= 0.2
    c_cap = 1.05 * max(c_narrow, c_wide, max(abs(r.residual) / r.t**2 for r in rows))
    contained = all(abs(r.residual) <= c_cap * r.t**2 for r in rows)
    return Evidence(stable and contained, {"C_narrow_window": c_narrow, "C_wide_window": c_wide},
                    {"boundary_trace.csv": csv_text(
                        ["t", "x1", "x2", "residual"],
                        [(r.t, r.x1, r.x2, r.residual) for r in rows])})


def criterion_10(cg: float) -> Evidence:
    """Two consecutive runs of criteria 1-9 produce byte-identical artifacts."""
    run1, run2 = ({f"criterion-{i:02d}/{name}": text
                   for i in sorted(CRITERIA)[:-1]  # all but this one
                   for name, text in CRITERIA[i][2](cg).artifacts.items()}
                  for _ in range(2))
    if run1.keys() != run2.keys():
        mismatches = ["file sets differ"]
    else:
        mismatches = [rel for rel in sorted(run1) if run1[rel] != run2[rel]]
    details = {"compared_files": len(run1), "mismatches": mismatches}
    return Evidence(not mismatches, details, {"determinism.json": json_text(details)})


# criterion number -> (name, wall-clock budget in seconds, function of cg)
CRITERIA = {
    1: ("jacobian-fd-agreement", 5.0, criterion_1),
    2: ("homeomorphism-sanity", 5.0, criterion_2),
    3: ("distortion-envelope", 10.0, criterion_3),
    4: ("power-integrability", 60.0, criterion_4),
    5: ("exp-divergence", 60.0, criterion_5),
    6: ("test-function-decay", 5.0, criterion_6),
    7: ("capacity-calibration", 120.0, criterion_7),
    8: ("tip-capacity-scaling", 600.0, criterion_8),
    9: ("boundary-asymptotics", 2.0, criterion_9),
    10: ("determinism", math.inf, criterion_10),
}


def run_criterion(index: int, out_dir=None, cg: float = ProfileParams.cg) -> CriterionResult:
    """Criterion `index`, timed on the monotonic clock: PASS needs its checks
    and its wall-clock budget. With out_dir, its artifacts are written to
    out_dir/criterion-NN/."""
    name, budget, criterion = CRITERIA[index]
    t0 = time.perf_counter()
    evidence = criterion(cg)
    elapsed = time.perf_counter() - t0
    if out_dir is not None:
        out = os.path.join(out_dir, f"criterion-{index:02d}")
        os.makedirs(out, exist_ok=True)
        for file_name, text in evidence.artifacts.items():
            write(os.path.join(out, file_name), text)
    return CriterionResult(index, name, evidence.passed and elapsed < budget, elapsed, budget,
                           evidence.details)


def select_criteria(only=None) -> list:
    """Indices of the criteria matching `only` (all for None): a number selects
    its criterion, any other text the criteria whose names contain it.

    Raises KeyError when nothing matches.
    """
    selected = sorted(CRITERIA)
    if only:
        needle = str(only).lower()
        selected = [i for i in selected if needle == str(i) or needle in CRITERIA[i][0]]
        if not selected:
            raise KeyError(f"no criterion matches {only!r}")
    return selected


def run_suite(out_dir=None, cg: float = ProfileParams.cg, only=None):
    """Run selected criteria (all by default), printing each PASS/FAIL line;
    returns the result list. An out_dir that cannot be made ("" or a file)
    raises OSError before any criterion runs."""
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    results = []
    for idx in select_criteria(only):
        res = run_criterion(idx, out_dir, cg)
        results.append(res)
        print(res.line())
    if out_dir is not None:
        write(os.path.join(out_dir, "summary.json"), json_text({
            "cg": cg,
            "criteria": [{"index": r.index, "name": r.name, "passed": r.passed,
                          "details": r.details} for r in results],
            "all_passed": all(r.passed for r in results),
        }))
    return results
