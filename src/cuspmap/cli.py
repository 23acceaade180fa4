"""Command-line surface: sampling, fields, integrals, capacity, verification.

Machine-readable outputs only (CSV / canonical JSON / binary PGM); identical
invocations produce byte-identical files. Exit codes: 0 success or all
criteria PASS, 1 verification FAIL, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import cmath
import errno
import functools
import math
import re
import sys

import numpy as np

from . import __version__
from .capacity import (
    GridSolverConfig,
    _annulus_grid,
    _check_test_radii,
    _tip_grid,
    annulus_condenser,
    cusp_test_energy,
    experiment_table,
    grid_capacity,
    tip_capacity_experiment,
)
from .distortion import distortion_table, fit_growth_envelope
from .domains import preimage_arc
from .errors import DomainError, ToolkitError
from .io_formats import csv_text, json_text, pgm_bytes, write
from .maps import (
    MapChain,
    MapStage,
    boundary_image_trace,
    chain_inverse_values,
    chain_values,
)
from .profile import ProfileParams
from .quadrature import (
    AnnularScheme,
    _check_parameter,
    distortion_exp_integral,
    distortion_power_integral,
)
from .verify import disk_points, run_suite, select_criteria

__all__ = ["main"]

# errnos of a write that failed after its file was opened: numeric, not usage
_WRITE_FAILURES = {errno.ENOSPC, errno.EDQUOT, errno.EFBIG, errno.EIO}

# the most points a command turns into arrays: about 400 B each, 1 GB in all
_MAX_POINTS = 2**21


def _number(text: str, kind=float, what: str = "a number"):
    """kind(text), or the argparse error naming what was expected.

    Without it argparse reports a ValueError as "invalid <function name> value".
    """
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}") from None


def _parse_theta(text: str) -> float:
    """Angles like '1.2', 'pi', '3pi/4', '-pi/2'."""
    s = text.strip().replace(" ", "")
    if "pi" not in s:
        return _number(s, what="an angle")
    m = re.fullmatch(r"([+-]?\d*\.?\d*)pi(?:/(\d*\.?\d+))?", s)
    if not m:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}")
    coef = m.group(1)
    num = (_number(coef, what="a multiple of pi") if coef not in ("", "+", "-")
           else (-1.0 if coef == "-" else 1.0))
    den = float(m.group(2)) if m.group(2) else 1.0
    if den == 0.0:
        raise argparse.ArgumentTypeError(f"angle {text!r} divides by zero")
    return num * math.pi / den


def _parse_points(text: str):
    pts = []
    for chunk in text.split(";"):
        coords = chunk.split(",")
        if len(coords) != 2:
            raise argparse.ArgumentTypeError(f"point {chunk!r} is not 'x1,x2'")
        z = complex(*(_number(c, what="a coordinate") for c in coords))
        if not cmath.isfinite(z):
            raise argparse.ArgumentTypeError(f"point {chunk!r} is not finite")
        pts.append(z)
    return pts


def _int_in(low: int, high: float = math.inf):
    """argparse type: an integer in [low, high]."""

    def parse(text: str) -> int:
        value = _number(text, int, "an integer")
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {low}")
        if value > high:
            raise argparse.ArgumentTypeError(f"{value} is above the maximum {high}")
        return value

    return parse


def _checked(check, parse=_number):
    """argparse type: parse(text), with each of its values passed to a library
    range check; the check's DomainError is the usage message."""

    def run(text: str):
        value = parse(text)
        try:
            for v in value if isinstance(value, list) else [value]:
                check(v)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(exc.args[0]) from None
        return value

    return run


def _criterion_filter(text: str) -> str:
    """argparse type: a criterion number or name fragment that matches one."""
    try:
        select_criteria(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return text


def _parse_floats(text: str):
    values = [_number(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} holds no number")
    return values


def _band(text: str) -> list:
    """argparse type: two finite numbers LO,HI with LO < HI."""
    band = _parse_floats(text)
    if len(band) != 2:
        raise argparse.ArgumentTypeError(f"{text!r} is not two numbers LO,HI")
    lo, hi = band
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise argparse.ArgumentTypeError(f"{text!r} is not a band of finite LO < HI")
    return band


def _chain_stages(text: str) -> tuple:
    """argparse type: the stages of a comma list of tokens, e.g. f1,f2,f3."""
    try:
        return MapChain(ProfileParams(), [MapStage(t.strip()) for t in text.split(",")]).stages
    except DomainError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _chain_from(args) -> MapChain:
    params = ProfileParams(cg=args.cg)
    if getattr(args, "chain", None):
        return MapChain(params, args.chain)
    return MapChain(params)


def _emit_table(args, header, rows) -> None:
    """Rows (row sequences or a 2-D float array) as CSV, or with --format json
    as a list of objects."""
    if args.format == "json":
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        write(args.out, json_text([dict(zip(header, row)) for row in rows]))
    else:
        write(args.out, csv_text(header, rows))


def _fold_config(argv, parser, pre):
    """Pre-scan for --config and splice key=value pairs in as trailing flags.

    `pre` parses --config alone. Explicit command-line flags win; boolean keys
    take true/yes/1 to set the flag and false/no/0 to leave it off.
    """
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        parser.error(f"argument --config: {exc}")
    extra = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        flag = "--" + key.strip().replace("_", "-")
        if flag in argv or any(a.startswith(flag + "=") for a in argv):
            continue
        value = value.strip()
        switch = key.strip() in ("roundtrip",)
        if switch and value.lower() in ("false", "no", "0"):
            continue
        if switch and value.lower() in ("true", "yes", "1"):
            extra.append(flag)
        else:
            extra.extend([flag, value])
    return argv + extra


def _check_radii(args) -> None:
    if not (0.0 < args.r_lo < args.r_hi < math.inf):
        raise DomainError(f"need 0 < --r-min < --r-max < inf, got {args.r_lo} and {args.r_hi}")
    # fit-bound, and field without --chain, use the squeeze; its closed form
    # covers r <= 1 only
    if args.r_hi > 1.0 and MapStage.CUSP in (getattr(args, "chain", None) or (MapStage.CUSP,)):
        raise DomainError(f"--r-max {args.r_hi} is above 1; with the squeeze (f2) "
                          "the distortion needs r <= 1")


def _check_points(count: int, flags: str) -> None:
    if count > _MAX_POINTS:
        raise DomainError(f"{flags} make {count} points, above the maximum {_MAX_POINTS}")


def _check_field(args) -> None:
    _check_radii(args)
    _check_points(args.nr * args.ntheta, "--nr x --ntheta")
    if args.format == "pgm" and args.out == "-":
        raise DomainError("--format pgm needs --out FILE")


def _check_sample(args) -> None:
    if args.points is None and args.grid is None and args.random is None:
        raise DomainError("map sample needs --points, --grid or --random")
    if args.seed is not None and args.random is None:
        raise DomainError("--seed needs --random")
    _check_points(len(args.points or []) + (args.grid or 0) ** 2 + (args.random or 0),
                  "--points, --grid squared and --random")


def _check_integrate(args) -> None:
    if args.geometric_depth is None and args.steps is not None:
        raise DomainError("--steps needs --geometric-depth")
    if args.geometric_depth is not None and args.depth is not None:
        raise DomainError("--depth and --geometric-depth exclude each other")


def _check_theorem1(args) -> None:
    _tip_grid(args.resolution)
    if len(set(args.t)) < len(args.t):
        raise DomainError("argument --t: a cutoff is listed twice")


def _command(sub, name, run, check=lambda args: None, formats=(), cg=False, **kw):
    """A subcommand parser bound to its body, its cross-option check and its
    own error report, with --out, --config and, where the body reads them,
    --format and --cg."""
    p = sub.add_parser(name, **kw)
    p.set_defaults(run=run, check=check, error=p.error)
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.add_argument("--config", default=None, help="plain key=value file supplying flag defaults")
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])
    if cg:
        p.add_argument("--cg", type=_checked(lambda cg: ProfileParams(cg=cg)), default=ProfileParams.cg,
                       help=f"cusp constant in the double logarithm (default {ProfileParams.cg:g})")
    return p


@functools.lru_cache(maxsize=1)
def _build_parser():
    """The command-line parser and the --config pre-parser, built on first use.

    argparse keeps no state between parse_args calls, so one pair serves every
    main() call of a process. A one-shot command builds them once either way;
    in-process callers (tests, benchmarks, notebooks) skip about 3 ms of
    parser construction per call, and the cached pair keeps about 0.24 MB of
    argparse objects alive. Building it lazily keeps that cost out of
    `import cuspmap.cli`.
    """
    parser = argparse.ArgumentParser(
        prog="cuspmap",
        description="Plane homeomorphism with an exponential-cusp image: "
                    "maps, distortion, integrability, capacity.",
    )
    parser.add_argument("--version", action="version", version=f"cuspmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    table = ("csv", "json")

    p_map = sub.add_parser("map", help="sample the chain and trace the image boundary")
    map_sub = p_map.add_subparsers(dest="subcommand", required=True)
    ms = _command(map_sub, "sample", _cmd_map_sample, _check_sample, table, cg=True)
    ms.add_argument("--points", type=_parse_points, default=None,
                    help="semicolon-separated x1,x2 pairs")
    ms.add_argument("--grid", type=_int_in(1), default=None,
                    help="NxN Cartesian grid over the disk")
    ms.add_argument("--random", type=_int_in(1), default=None,
                    help="N quasi-random disk points (offset by --seed)")
    ms.add_argument("--seed", type=_int_in(0, 2**62), default=None,
                    help="offset of the --random sequence, 0 (default) to 2^62")
    ms.add_argument("--roundtrip", action="store_true", help="append inverse-error column")
    mt = _command(map_sub, "trace-boundary", _cmd_map_trace, formats=table)
    mt.add_argument("--t", required=True, help="comma-separated boundary parameters in (0, 1)",
                    type=_checked(lambda t: boundary_image_trace([t]), _parse_floats))

    p_dist = sub.add_parser("distortion", help="distortion field and growth-envelope fit")
    dist_sub = p_dist.add_subparsers(dest="subcommand", required=True)
    df = _command(dist_sub, "field", _cmd_distortion_field, _check_field,
                  ("csv", "json", "pgm"), cg=True)
    df.add_argument("--r-min", dest="r_lo", type=float, default=1e-8)
    df.add_argument("--r-max", dest="r_hi", type=float, default=1.0)
    df.add_argument("--nr", type=_int_in(1), default=64)
    df.add_argument("--ntheta", type=_int_in(1), default=64)
    df.add_argument("--chain", type=_chain_stages, default=None,
                    help="comma list of stages, e.g. f1,f2,f3")
    fb = _command(dist_sub, "fit-bound", _cmd_distortion_fit, _check_radii, table, cg=True)
    fb.add_argument("--theta", required=True, type=_checked(
        lambda theta: fit_growth_envelope([1.0], theta, ProfileParams()), _parse_theta))
    fb.add_argument("--r-min", dest="r_lo", type=float, default=1e-30)
    fb.add_argument("--r-max", dest="r_hi", type=float, default=1e-2)
    fb.add_argument("--n", type=_int_in(1, _MAX_POINTS), default=29)
    fb.add_argument("--band", type=_band, default=[0.05, 2.0])

    p_int = _command(sub, "integrate", _cmd_integrate, _check_integrate, cg=True,
                     help="partial integrals of K^p or exp(lambda K)")
    group = p_int.add_mutually_exclusive_group(required=True)
    group.add_argument("--kpow", type=_checked(lambda p: _check_parameter("exponent", p)))
    group.add_argument("--explambda", type=_checked(lambda lam: _check_parameter("lambda", lam)))
    # the growth classifier needs at least six partial integrals
    # and 2^16 annuli, about 1.7 KB each, are 1.7e7 quadrature nodes
    p_int.add_argument("--depth", type=_int_in(6, 2**16), default=None,
                       help="dyadic refinement depth (default 64)")
    p_int.add_argument("--geometric-depth", type=_checked(AnnularScheme.geometric), default=None,
                       help="deep log-radius scheme: reach 2^-DEPTH geometrically")
    p_int.add_argument("--steps", type=_int_in(6, 2**16), default=None,
                       help="partial integrals of --geometric-depth (default 48)")
    p_int.add_argument("--chain", type=_chain_stages, default=None)

    p_cap = sub.add_parser("capacity", help="test functions, grid solves, tip experiment")
    cap_sub = p_cap.add_subparsers(dest="subcommand", required=True)
    ct = _command(cap_sub, "test-fn", _cmd_capacity_testfn,
                  lambda args: _check_test_radii(args.r, args.d))
    ct.add_argument("--r", type=float, required=True)
    ct.add_argument("--d", type=float, required=True)
    cg_ = _command(cap_sub, "grid", _cmd_capacity_grid,
                   lambda args: _annulus_grid(*args.annulus, args.resolution))
    cg_.add_argument("--annulus", type=float, nargs=2, metavar=("RHO", "R"), required=True)
    cg_.add_argument("--resolution", type=_int_in(16), default=512)
    th = _command(cap_sub, "theorem1", _cmd_capacity_theorem1, _check_theorem1, table, cg=True)
    th.add_argument("--t", required=True, type=_checked(
        lambda t: preimage_arc(t, MapChain.default(), 2), _parse_floats))
    th.add_argument("--resolution", type=_int_in(16), default=256)
    # an arc sample holds about 33 KB of diameter blocks
    th.add_argument("--arc-samples", type=_int_in(2, 2**14), default=64)

    p_ver = _command(sub, "verify", _cmd_verify, cg=True, help="run the certification suite")
    p_ver.add_argument("--only", type=_criterion_filter, default=None,
                       help="criterion number or name fragment")

    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    return parser, pre


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------

def _cmd_map_sample(args) -> int:
    chain = _chain_from(args)
    parts = [np.array(args.points or [], dtype=complex)]
    if args.grid:
        a, b = np.meshgrid(np.linspace(-0.99, 0.99, args.grid),
                           np.linspace(-0.99, 0.99, args.grid), indexing="ij")
        grid = a + 1j * b
        parts.append(grid[np.hypot(a, b) <= 0.99])
    if args.random:
        parts.append(disk_points(args.random, skip=20 + (args.seed or 0)))
    z = np.concatenate(parts)
    w = chain_values(z, chain)
    header = ["x1", "x2", "fx1", "fx2"]
    columns = [z.real, z.imag, w.real, w.imag]
    if args.roundtrip:
        header.append("roundtrip_error")
        columns.append(np.abs(chain_inverse_values(w, chain) - z))
    _emit_table(args, header, np.column_stack(columns))
    return 0


def _cmd_map_trace(args) -> int:
    rows = boundary_image_trace(sorted(args.t, reverse=True))
    header = ["t", "x1", "x2", "residual", "residual_over_t2"]
    table = [(r.t, r.x1, r.x2, r.residual, r.residual_over_t2) for r in rows]
    _emit_table(args, header, table)
    return 0


def _cmd_distortion_field(args) -> int:
    chain = _chain_from(args)
    rs = np.geomspace(args.r_lo, args.r_hi, args.nr)
    thetas = -math.pi / 2.0 + 2.0 * math.pi * (np.arange(args.ntheta) + 0.5) / args.ntheta
    r, theta = np.meshgrid(rs, thetas, indexing="ij")
    if chain.has_cusp():
        table = distortion_table(np.log(r), theta, chain.params)
    else:
        table = np.ones((3,) + r.shape)
    if args.format == "pgm":
        write(args.out, pgm_bytes(np.log10(table[2])))
    else:
        header = ["r", "theta", "op_norm", "jac_det", "K"]
        _emit_table(args, header, np.column_stack([v.ravel() for v in (r, theta, *table)]))
    return 0


def _cmd_distortion_fit(args) -> int:
    params = ProfileParams(cg=args.cg)
    rs = np.geomspace(args.r_lo, args.r_hi, args.n)
    fit = fit_growth_envelope(rs, args.theta, params, band=tuple(args.band))
    payload = {
        "theta": fit.theta,
        "band": list(fit.band),
        "ratio_min": fit.ratio_min,
        "ratio_max": fit.ratio_max,
        "passed": fit.passed,
        "rows": [{"r": r, "ratio": q} for r, q in zip(fit.r_values, fit.ratios)],
    }
    if args.format == "csv":
        write(args.out, csv_text(["r", "ratio"], list(zip(fit.r_values, fit.ratios))))
    else:
        write(args.out, json_text(payload))
    return 0


def _cmd_integrate(args) -> int:
    chain = _chain_from(args)
    if args.geometric_depth is not None:
        scheme = AnnularScheme.geometric(args.geometric_depth, args.steps or 48)
    else:
        scheme = AnnularScheme.dyadic(args.depth or 64)
    if args.kpow is not None:
        rep = distortion_power_integral(args.kpow, scheme, chain)
    else:
        rep = distortion_exp_integral(args.explambda, scheme, chain)
    payload = {
        "kind": rep.kind,
        "parameter": rep.parameter,
        "verdict": rep.verdict.value,
        "partials": [[e, v] for e, v in rep.partials],
        "log_partials": list(rep.log_partials),
        "increment_ratios": list(rep.ratio_stats),
    }
    write(args.out, json_text(payload))
    return 0


def _cmd_capacity_testfn(args) -> int:
    est = cusp_test_energy(args.r, args.d)
    write(args.out, json_text({
        "r": args.r, "d": args.d, "energy": est.value, "log_energy": est.log_value,
        "method": "closed-form",
    }))
    return 0


def _cmd_capacity_grid(args) -> int:
    rho, R = args.annulus
    grid, F, E, dom = annulus_condenser(rho, R, args.resolution)
    cap = grid_capacity(None, F, E, dom, grid, GridSolverConfig(resolution=args.resolution))
    # R / rho overflows to inf for rho below about R * 5.6e-309; only there
    # take the difference of logs, so that every finite quotient keeps its bits
    ratio = R / rho
    exact = 2.0 * math.pi / (math.log(ratio) if ratio < math.inf else math.log(R) - math.log(rho))
    write(args.out, json_text({
        "rho": rho, "R": R, "resolution": args.resolution,
        "capacity": cap.value, "exact_continuum": exact,
        "rel_error": abs(cap.value - exact) / exact,
        "iterations": cap.iterations, "residual": cap.residual,
    }))
    return 0


def _cmd_capacity_theorem1(args) -> int:
    chain = _chain_from(args)
    rows = tip_capacity_experiment(sorted(args.t, reverse=True), chain,
                                   GridSolverConfig(resolution=args.resolution),
                                   arc_samples=args.arc_samples)
    _emit_table(args, *experiment_table(rows))
    return 0


def _cmd_verify(args) -> int:
    out_dir = None if args.out == "-" else args.out
    results = run_suite(out_dir=out_dir, cg=args.cg, only=args.only)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, pre = _build_parser()
    args = parser.parse_args(_fold_config(argv, parser, pre))
    try:  # the range checks on values that only make sense together
        args.check(args)
    except DomainError as exc:
        args.error(exc.args[0])
    try:
        return args.run(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # io_formats.write, the one writer of --out outputs
        if exc.errno in _WRITE_FAILURES:
            path = "stdout" if args.out == "-" else args.out
            print(f"error: writing {path}: {exc.strerror}", file=sys.stderr)
            return 3
        args.error(f"argument --out: {exc}")


if __name__ == "__main__":
    sys.exit(main())
