"""Built-in certification suite: ten numbered criteria, one PASS/FAIL each.

Every criterion is a pure function of its configuration, writes its evidence
as deterministic CSV/JSON artifacts, and carries a wall-clock budget. The
determinism criterion runs the other nine twice, into two directories, and
byte-compares the artifact trees.

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
from .io_formats import csv_text, json_text
from .maps import (
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

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_suite", "select_criteria",
           "halton"]

_HALF_PI = math.pi / 2.0


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


def _result(index: int, passed: bool, elapsed: float, details: dict) -> CriterionResult:
    """PASS needs the checks and the criterion's wall-clock budget."""
    name, budget, _ = CRITERIA[index]
    return CriterionResult(index, name, passed and elapsed < budget, elapsed, budget, details)


def _write(out_dir, name, text_or_bytes):
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    mode = "wb" if isinstance(text_or_bytes, bytes) else "w"
    with open(path, mode, newline="\n" if mode == "w" else None) as fh:
        fh.write(text_or_bytes)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _halton_polar(n, r_lo, r_hi, theta_lo, theta_hi, skip=20):
    pts = halton(n, skip)
    r = np.exp(math.log(r_lo) + pts[:, 0] * (math.log(r_hi) - math.log(r_lo)))
    t = theta_lo + pts[:, 1] * (theta_hi - theta_lo)
    return r, t


def criterion_1(out_dir=None, cg: float = 16.0, jacobian_fn=None) -> CriterionResult:
    """Analytic differential vs central finite differences of the raw map.

    `jacobian_fn(r, theta, params)` returns the analytic entries
    (a11, a12, a21, a22) at arrays of radii and normalized angles.
    """
    t0 = time.perf_counter()
    params = ProfileParams(cg=cg)
    jacobian_fn = jacobian_fn or cusp_jacobian_values
    margin = 1e-3
    devs, rows = [], []
    for sector, (tlo, thi) in (("inner", (-_HALF_PI + margin, _HALF_PI - margin)),
                               ("outer", (_HALF_PI + margin, 3 * _HALF_PI - margin))):
        rs, ts = _halton_polar(1000, 1e-6, 0.9, tlo, thi, skip=17)
        theta = normalize_angle(ts)
        a = jacobian_fn(rs, theta, params)
        f = cusp_jacobian_fd_values(rs, theta, params, h=1e-7)
        # Python's x**2, not a numpy square: the two can differ in the last bit
        fro = np.array([math.sqrt(a11**2 + a12**2 + a21**2 + a22**2)
                        for a11, a12, a21, a22 in zip(*(e.tolist() for e in a))])
        dev = np.max(np.abs(np.subtract(f, a)), axis=0) / fro
        devs.append(dev)
        rows.extend(zip([sector] * len(rs), rs.tolist(), ts.tolist(), dev.tolist()))
    # np.max keeps a NaN deviation, and a NaN fails the check
    worst = float(np.max(np.concatenate(devs)))
    passed = worst <= 1e-6
    elapsed = time.perf_counter() - t0
    _write(out_dir, "jacobian_fd_deviations.csv",
           csv_text(["sector", "r", "theta", "rel_deviation"], rows))
    return _result(1, passed, elapsed,
                   {"worst_rel_deviation": worst, "points_per_sector": 1000})


def criterion_2(out_dir=None, cg: float = 16.0) -> CriterionResult:
    """Round trip, seam continuity, and orientation of the chain."""
    t0 = time.perf_counter()
    params = ProfileParams(cg=cg)
    chain = MapChain(params)

    pts = halton(1000, skip=11)
    rad = 0.99 * np.sqrt(pts[:, 0])
    ang = 2.0 * math.pi * pts[:, 1]
    x = rad * np.cos(ang) + 1j * (rad * np.sin(ang))
    worst_rt = float(np.max(np.abs(chain_inverse_values(chain_values(x, chain), chain) - x)))

    log_radii = np.linspace(math.log(1e-12), 0.0, 200)
    a = np.arctan(_curves(log_radii, params.log_cg())[4])  # cusp half-angles
    gap_front = np.abs(inner_angle_map(_HALF_PI, a) - outer_angle_map(_HALF_PI, a))
    wrap = outer_angle_map(3 * _HALF_PI, a) - (inner_angle_map(-_HALF_PI, a) + 2.0 * math.pi)
    worst_seam = float(np.max([gap_front, np.abs(wrap)]))

    rs, ts = _halton_polar(1000, 1e-9, 1.0, -_HALF_PI, 3 * _HALF_PI, skip=29)
    min_det = float(np.min(distortion_table(np.log(rs), ts, params)[1]))

    passed = worst_rt <= 1e-9 and worst_seam <= 1e-12 and min_det > 0.0
    elapsed = time.perf_counter() - t0
    _write(out_dir, "homeomorphism_sanity.json", json_text({
        "worst_round_trip": worst_rt, "worst_seam_gap": worst_seam, "min_jacobian_det": min_det,
    }))
    return _result(2, passed, elapsed,
                   {"worst_round_trip": worst_rt, "worst_seam_gap": worst_seam,
                    "min_jacobian_det": min_det})


def criterion_3(out_dir=None, cg: float = 16.0) -> CriterionResult:
    """Distortion against the log * loglog envelope: band and theta=pi limit.

    Encodes the stated targets: every sampled ratio in [0.05, 2.0] over
    r in [1e-30, 1e-2] for rays in both sectors, and the theta=pi ratio at
    r = 1e-30 within 0.5 +- 0.05. Direct evaluation gives a theta=pi limit
    of 2 and inner-sector ratios below the floor; reported as-is.
    """
    t0 = time.perf_counter()
    params = ProfileParams(cg=cg)
    r_values = np.geomspace(1e-30, 1e-2, 29)
    thetas = [0.0, math.pi / 4, _HALF_PI, 3 * math.pi / 4, math.pi, 5 * math.pi / 4, 4.712]
    fits = [fit_growth_envelope(r_values, th, params) for th in thetas]
    band_ok = all(f.passed for f in fits)
    pi_fit = fit_growth_envelope(np.array([1e-30]), math.pi, params)
    pi_limit = pi_fit.ratios[0]
    limit_ok = abs(pi_limit - 0.5) <= 0.05
    rows = [(f.theta, r, ratio) for f in fits for r, ratio in zip(f.r_values, f.ratios)]
    elapsed = time.perf_counter() - t0
    _write(out_dir, "envelope_ratios.csv", csv_text(["theta", "r", "ratio"], rows))
    return _result(3, band_ok and limit_ok, elapsed,
                   {"band_ok": band_ok, "theta_pi_ratio_at_1e-30": pi_limit,
                    "ratio_min": min(f.ratio_min for f in fits),
                    "ratio_max": max(f.ratio_max for f in fits)})


def criterion_4(out_dir=None, cg: float = 16.0) -> CriterionResult:
    """Every power of the distortion integrates: convergent verdicts."""
    t0 = time.perf_counter()
    chain = MapChain.default(cg)
    scheme = AnnularScheme.dyadic(64)
    rows, ok = [], True
    for rep in distortion_power_integrals((0.5, 1.0, 2.0, 4.0, 8.0), scheme, chain):
        last_ratio = rep.ratio_stats[-1]
        good = rep.verdict is Verdict.CONVERGENT and last_ratio <= 0.9
        ok = ok and good
        rows.append((rep.parameter, rep.verdict.value, last_ratio, rep.partials[-1][1]))
    elapsed = time.perf_counter() - t0
    _write(out_dir, "power_integrals.csv",
           csv_text(["p", "verdict", "last_increment_ratio", "total"], rows))
    return _result(4, ok, elapsed,
                   {"rows": [(r[0], r[1]) for r in rows]})


def criterion_5(out_dir=None, cg: float = 16.0) -> CriterionResult:
    """Exponential integrals diverge at the matched dyadic scheme.

    Stated for lambda in {0.01, 0.1, 1} at eps down to 2^-64. The increments
    of the two smaller lambdas genuinely shrink at those radii (their growth
    regime starts near 2^-23000 and 2^-10^46; see the deep-scheme tests), so
    this criterion reports FAIL for them; lambda = 1 passes.
    """
    t0 = time.perf_counter()
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
    elapsed = time.perf_counter() - t0
    _write(out_dir, "exp_integrals.csv",
           csv_text(["lambda", "verdict", "log_partials_increasing",
                     "last_increment_ratio", "log_total"], rows))
    return _result(5, ok, elapsed,
                   {"rows": [(r[0], r[1]) for r in rows]})


def criterion_6(out_dir=None, cg: float = 16.0) -> CriterionResult:
    """Test-function energy decays faster than every power; negative control."""
    t0 = time.perf_counter()
    rs = [2.0**-k for k in range(3, 13)]
    report = superpolynomial_decay_check([0.5, 1.0, 2.0, 5.0, 10.0], rs)
    control = superpolynomial_decay_check([10.0], rs, log_energy_fn=lambda r: 2.0 * math.log(r))
    passed = report.passed and not control.passed
    elapsed = time.perf_counter() - t0
    rows = [(c.s, c.passed) + c.log_ratios for c in report.checks]
    _write(out_dir, "decay_check.csv",
           csv_text(["s", "passed"] + [f"log_ratio_k{k}" for k in range(3, 13)], rows))
    return _result(6, passed, elapsed,
                   {"all_pass": report.passed, "control_fails": not control.passed})


def criterion_7(out_dir=None, cg: float = 16.0) -> CriterionResult:
    """Grid solver calibration on the classical annulus condenser."""
    t0 = time.perf_counter()
    exact = 2.0 * math.pi / math.log(4.0)
    errors = {}
    rows = []
    for res in (128, 256, 512):
        grid, F, E, dom = annulus_condenser(0.25, 1.0, res)
        cap = grid_capacity(None, F, E, dom, grid, GridSolverConfig(resolution=res))
        errors[res] = abs(cap.value - exact) / exact
        rows.append((res, cap.value, errors[res]))
    passed = errors[512] <= 0.02 and errors[128] > errors[256] > errors[512]
    elapsed = time.perf_counter() - t0
    _write(out_dir, "annulus_calibration.csv",
           csv_text(["resolution", "capacity", "rel_error"], rows))
    return _result(7, passed, elapsed,
                   {"exact": exact, "rel_errors": errors})


def criterion_8(out_dir=None, cg: float = 16.0) -> CriterionResult:
    """Tip condenser capacities: monotone column and power-law decay targets.

    The decay target capacity(t)/t^s -> 0 cannot materialize on a grid: the
    pulled-back arc collapses double-exponentially below one cell, freezing
    the condenser. The monotonicity half holds; the decay half reports FAIL.
    """
    t0 = time.perf_counter()
    chain = MapChain.default(cg)
    ts = [2.0**-k for k in range(3, 9)]
    rows = tip_capacity_experiment(ts, chain, GridSolverConfig(resolution=256))
    caps = [r.capacity for r in rows]
    monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(caps[:-1], caps[1:]))
    decay_ok = True
    for s in (1.0, 2.0):
        seq = [r.capacity / r.t**s for r in rows]
        decay_ok = decay_ok and all(b < a for a, b in zip(seq[:-1], seq[1:])) and seq[-1] <= 0.1 * seq[0]
    passed = monotone and decay_ok
    elapsed = time.perf_counter() - t0
    _write(out_dir, "tip_experiment.csv", csv_text(*experiment_table(rows)))
    return _result(8, passed, elapsed,
                   {"monotone": monotone, "decay_ok": decay_ok, "capacities": caps})


def criterion_9(out_dir=None, cg: float = 16.0) -> CriterionResult:
    """The final Mobius stage keeps the cusp boundary quadratically close."""
    t0 = time.perf_counter()
    ts = np.geomspace(1e-4, 1e-1, 61)
    rows = boundary_image_trace(ts)
    c_narrow = fit_tip_curvature(rows, (1e-4, 1e-2))
    c_wide = fit_tip_curvature(rows, (1e-3, 1e-1))
    stable = abs(c_narrow / c_wide - 1.0) <= 0.2
    c_cap = 1.05 * max(c_narrow, c_wide, max(abs(r.residual) / r.t**2 for r in rows))
    contained = all(abs(r.residual) <= c_cap * r.t**2 for r in rows)
    passed = stable and contained
    elapsed = time.perf_counter() - t0
    _write(out_dir, "boundary_trace.csv", csv_text(
        ["t", "x1", "x2", "residual"], [(r.t, r.x1, r.x2, r.residual) for r in rows]))
    return _result(9, passed, elapsed,
                   {"C_narrow_window": c_narrow, "C_wide_window": c_wide})


def criterion_10(out_dir=None, cg: float = 16.0) -> CriterionResult:
    """Two consecutive runs of the suite produce byte-identical artifacts."""
    t0 = time.perf_counter()
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        run1, run2 = os.path.join(tmp, "run1"), os.path.join(tmp, "run2")
        for run in (run1, run2):
            for idx in sorted(CRITERIA)[:-1]:  # all but this one
                run_criterion(idx, run, cg)
        mismatches = []
        files1, files2 = (sorted(os.path.relpath(os.path.join(d, f), run)
                                 for d, _, fs in os.walk(run) for f in fs)
                          for run in (run1, run2))
        if files1 != files2:
            mismatches.append("file sets differ")
        else:
            for rel in files1:
                with open(os.path.join(run1, rel), "rb") as fa, \
                        open(os.path.join(run2, rel), "rb") as fb:
                    if fa.read() != fb.read():
                        mismatches.append(rel)
    passed = not mismatches
    elapsed = time.perf_counter() - t0
    _write(out_dir, "determinism.json", json_text(
        {"compared_files": len(files1), "mismatches": mismatches}))
    return _result(10, passed, elapsed,
                   {"compared_files": len(files1), "mismatches": mismatches})


# criterion number -> (name, wall-clock budget in seconds, function)
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


def run_criterion(index: int, out_dir=None, cg: float = 16.0) -> CriterionResult:
    target = os.path.join(out_dir, f"criterion-{index:02d}") if out_dir else None
    return CRITERIA[index][2](target, cg)


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


def run_suite(out_dir=None, cg: float = 16.0, only=None, report=print):
    """Run selected criteria (all by default); returns the result list."""
    results = []
    for idx in select_criteria(only):
        res = run_criterion(idx, out_dir, cg)
        results.append(res)
        report(res.line())
    if out_dir is not None:
        summary = {
            "cg": cg,
            "criteria": [
                {"index": r.index, "name": r.name, "passed": r.passed,
                 "details": _plain(r.details)}
                for r in results
            ],
            "all_passed": all(r.passed for r in results),
        }
        _write(out_dir, "summary.json", json_text(summary))
    return results


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    return obj
