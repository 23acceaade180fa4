"""Correctness oracle: which operations of a pass produced a wrong output.

Every check reads an operation's observation (see workloads.py) and never
`CriterionResult.passed`, which folds in wall-clock budgets and is False by
design for criteria 3 and 5. Tolerances come from the criterion thresholds in
`cuspmap.verify`, the README's "Honest failures" section and the solver's CG
tolerance; none is fitted to a run of the benchmark.

`failures(workload, obs, reference)` maps each operation to the list of
reasons it failed; an empty list means the output is correct.
"""

from __future__ import annotations

import math

# criteria 1 and 2 (cuspmap.verify)
FD_DEVIATION_MAX = 1e-6
ROUND_TRIP_MAX = 1e-9
SEAM_GAP_MAX = 1e-12
# README, "Honest failures": the theta = pi ratio K / (log * loglog) at r = 1e-30
THETA_PI_RATIO = 1.9397672989
THETA_PI_RATIO_TOL = 1e-10
# criterion 9: fitted tip constants of the two windows agree within 20%
WINDOW_STABILITY = 0.2
# criterion 8's monotonicity slack
MONOTONE_SLACK = 1e-12

# Verdicts the mathematics fixes at the stated refinements (README, criteria 4
# and 5 and the deep-scheme note). exp(0.01 K) starts to grow only near
# radius 2^-10^46, beyond any scheme here, so its verdict is not checked.
CRITERION_4_VERDICTS = ["convergent"] * 5
CRITERION_5_VERDICTS = ["convergent", "convergent", "divergent"]
DEEP_EXP_DIVERGENT = (0.1, 1.0)

ANNULUS_EXACT = 2.0 * math.pi / math.log(4.0)
# Relative discretisation error |capacity - 2 pi / log 4| / (2 pi / log 4) of
# the seed solver (5-point stencil, CG to relative residual 1e-8) per
# resolution. A correct solver of the same discretisation may not do worse.
SEED_ANNULUS_ERROR = {
    32: 4.1508549238917725e-2,
    64: 2.1995606324062975e-2,
    128: 1.0440878175009457e-2,
    256: 5.402041874504485e-3,
}
CG_TOLERANCE = 1e-8
# Two solvers that both stop at relative residual 1e-8 give energies far
# closer than 100 tolerances.
ANNULUS_SLACK = 100 * CG_TOLERANCE
LOG_DIAM_REL_TOL = 1e-9


def failures(workload: str, obs: dict, reference: dict | None = None) -> dict:
    """Reasons per operation; `reference` is the first pass's observations."""
    out = {op: ([o["error"]] if "error" in o else []) for op, o in obs.items()}
    good = {op: o for op, o in obs.items() if "error" not in o}
    _CHECKS[workload](good, out)
    if reference is not None:
        for op, o in good.items():
            ref = reference.get(op, {})
            if "artifacts" in ref and o.get("artifacts") != ref["artifacts"]:
                changed = sorted(k for k in set(o.get("artifacts", {})) | set(ref["artifacts"])
                                 if o.get("artifacts", {}).get(k) != ref["artifacts"].get(k))
                out[op].append(f"artifact digest changed between passes: {changed}")
    return out


def _expect(out, op, ok, reason):
    if not ok:
        out[op].append(reason)


def _check_certify(obs, out):
    for op, o in obs.items():
        if op.startswith("criterion_"):
            _check_criterion(int(op[-2:]), o["details"], out[op])
        elif op.startswith("cli."):
            _check_cli(op, o, out)


def _check_criterion(idx, d, reasons):
    checks = {
        1: [(d.get("worst_rel_deviation", math.inf) <= FD_DEVIATION_MAX,
             "finite-difference deviation above 1e-6")],
        2: [(d.get("worst_round_trip", math.inf) <= ROUND_TRIP_MAX, "round trip above 1e-9"),
            (d.get("worst_seam_gap", math.inf) <= SEAM_GAP_MAX, "seam gap above 1e-12"),
            (d.get("min_jacobian_det", -1.0) > 0.0, "non-positive Jacobian determinant")],
        3: [(abs(d.get("theta_pi_ratio_at_1e-30", math.inf) - THETA_PI_RATIO)
             <= THETA_PI_RATIO_TOL, "theta = pi ratio differs from 1.9397672989")],
        4: [([v for _, v in d.get("rows", [])] == CRITERION_4_VERDICTS,
             "K^p verdicts are not all convergent")],
        5: [([v for _, v in d.get("rows", [])] == CRITERION_5_VERDICTS,
             "exp(lambda K) verdicts differ from (convergent, convergent, divergent)")],
        6: [(d.get("all_pass") is True, "test-function energy not superpolynomial"),
            (d.get("control_fails") is True, "power-law negative control passed")],
        9: [(abs(d.get("C_narrow_window", math.nan) / d.get("C_wide_window", math.nan) - 1.0)
             <= WINDOW_STABILITY, "tip curvature constant unstable across windows")],
    }
    reasons.extend(reason for ok, reason in checks[idx] if not ok)


def _check_cli(op, o, out):
    _expect(out, op, o.get("exit_code") == 0, f"exit code {o.get('exit_code')}")
    if op == "cli.map_sample":
        _expect(out, op, o["rows"] == o["requested_rows"], "wrong number of rows")
        _expect(out, op, o["all_finite"], "non-finite value")
        _expect(out, op, o["max_roundtrip"] <= ROUND_TRIP_MAX, "round trip above 1e-9")
    elif op == "cli.distortion_field":
        _expect(out, op, o["rows"] == o["requested_rows"], "wrong number of rows")
        _expect(out, op, o["nonfinite_rows"] == 0,
                f"{o['nonfinite_rows']} of {o['rows']} rows hold a non-finite value")
        _expect(out, op, o["min_K"] >= 1.0, "distortion below 1 in a finite row")
        _expect(out, op, o["min_jac_det"] > 0.0, "non-positive Jacobian determinant")
    elif op == "cli.distortion_field_deep":
        n = o["requested_rows"]  # --nr and --ntheta are equal
        _expect(out, op, (o["magic"], o["maxval"]) == ("P5", 255), "not an 8-bit binary PGM")
        _expect(out, op, o["shape"] == [n, n] and o["pixels"] == n * n,
                f"image shape {o['shape']} with {o['pixels']} pixels, not {n} x {n}")
        # The heatmap scales log10 K onto [0, 255] with hi = its maximum, and K
        # grows without bound towards the tip: the deepest radius holds the
        # maximum and no shallower row exceeds a deeper one. A non-finite K
        # breaks the scaling.
        row_max = o.get("row_max", [])
        _expect(out, op, bool(row_max) and row_max[0] == 255,
                "deepest radius does not hold the largest distortion")
        _expect(out, op, all(a >= b for a, b in zip(row_max, row_max[1:])),
                "distortion does not grow towards the tip")
    elif o.get("kind") == "K^p":
        _expect(out, op, o["verdict"] == "convergent", f"K^p verdict {o['verdict']}")
    elif o.get("parameter") in DEEP_EXP_DIVERGENT:
        _expect(out, op, o["verdict"] == "divergent", f"exp(lambda K) verdict {o['verdict']}")


def _check_annulus(obs, out):
    errors = {}
    for op, o in sorted(obs.items(), key=lambda kv: kv[1]["resolution"]):
        res = o["resolution"]
        err = abs(o["capacity"] - ANNULUS_EXACT) / ANNULUS_EXACT
        _expect(out, op, err <= SEED_ANNULUS_ERROR[res] + ANNULUS_SLACK,
                f"relative error {err:.6e} worse than the seed's {SEED_ANNULUS_ERROR[res]:.6e}")
        if errors:
            prev = errors[max(errors)]
            _expect(out, op, err < prev, "error does not decrease with resolution")
        errors[res] = err


def _check_tip(obs, out):
    # E lies on the unit circle and F is the disk of radius 1/4, and 1/K <= 1,
    # so no capacity can exceed the unweighted annulus value 2 pi / log 4.
    prev = None
    for op, o in sorted(obs.items(), key=lambda kv: -kv[1]["t"]):
        cap = o["capacity"]
        _expect(out, op, 0.0 < cap <= ANNULUS_EXACT, f"capacity {cap!r} outside (0, 2 pi / log 4]")
        if prev is not None:
            _expect(out, op, cap <= prev * (1.0 + MONOTONE_SLACK), "capacity increased as t fell")
        prev = cap
        ref = reference_log_diameter(o["t"], o["cg"])
        _expect(out, op, abs(o["log_diam_preimage"] - ref) <= LOG_DIAM_REL_TOL * max(1.0, abs(ref)),
                f"log_diam_preimage {o['log_diam_preimage']!r} differs from {ref!r}")


def reference_log_diameter(t: float, cg: float) -> float:
    """log of the diameter of the pulled-back tip arc {|w| <= t}.

    The image arc's outermost point is f3(x + i e^{-1/x}) with |f3| = t,
    f3(z) = z / (z + 1), and x capped at the depth of radius 1. It comes from
    the source-circle point at r = cg exp(-exp(1/x)) of f1's image, and the
    arc's two branches are mirror images, so the diameter is 4 r / (1 + r^2).
    """
    x_cap = 1.0 / math.log(math.log(cg))

    def image_norm(x):
        z = complex(x, math.exp(-1.0 / x))
        return abs(z / (z + 1.0))

    lo, hi = 1e-12, x_cap
    if image_norm(hi) > t:
        while hi - lo > 1e-17 * hi:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (lo, mid) if image_norm(mid) > t else (mid, hi)
    log_r = math.log(cg) - math.exp(1.0 / hi)
    return math.log(4.0) + log_r - math.log1p(math.exp(2.0 * log_r))


_CHECKS = {"certify": _check_certify, "annulus": _check_annulus, "tip": _check_tip}
