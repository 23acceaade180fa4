"""Command-line surface: subcommands, formats, exit codes, determinism."""

import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cuspmap import cli
from cuspmap.cli import main
from cuspmap.distortion import distortion_table
from cuspmap.io_formats import pgm_bytes
from cuspmap.profile import ProfileParams
from cuspmap.verify import select_criteria

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"
_spec = importlib.util.spec_from_file_location("artifact_digests", _TOOL)
artifact_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digests)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def rows_of(csv):
    lines = [l for l in csv.strip().split("\n")]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


def test_map_sample_boundary_point(capsys):
    code, out = run(["map", "sample", "--points=-1,0"], capsys)
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["x1", "x2", "fx1", "fx2"]
    assert float(rows[0]["fx1"]) == 0.0 and float(rows[0]["fx2"]) == 0.0


def test_map_sample_grid_roundtrip(capsys):
    code, out = run(["map", "sample", "--grid", "32", "--roundtrip"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert len(rows) > 700
    assert max(float(r["roundtrip_error"]) for r in rows) <= 1e-9


def test_map_sample_random_seeded(capsys):
    code, out_a = run(["map", "sample", "--random", "20", "--roundtrip"], capsys)
    assert code == 0
    _, rows = rows_of(out_a)
    assert len(rows) == 20
    assert max(float(r["roundtrip_error"]) for r in rows) <= 1e-9
    # same seed reproduces bytes; another seed moves the sample
    code, out_b = run(["map", "sample", "--random", "20", "--roundtrip"], capsys)
    assert out_a == out_b
    code, out_c = run(["map", "sample", "--random", "20", "--seed", "7"], capsys)
    assert out_c != out_a


def test_map_trace_boundary(capsys):
    code, out = run(["map", "trace-boundary", "--t", "1e-1,1e-2,1e-3"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert len(rows) == 3
    # quadratic closeness: residual/t^2 stays order one
    assert all(abs(float(r["residual_over_t2"])) < 1.5 for r in rows)


def test_distortion_field_all_k_at_least_one(capsys):
    code, out = run(["distortion", "field", "--r-min", "1e-8", "--nr", "12",
                     "--ntheta", "16"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert len(rows) == 12 * 16
    assert all(float(r["K"]) >= 1.0 for r in rows)


def test_distortion_field_conformal_chain(capsys):
    code, out = run(["distortion", "field", "--chain", "f1", "--nr", "4",
                     "--ntheta", "4"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert all(float(r["K"]) == 1.0 for r in rows)


def default_field(nr, ntheta):
    """r, theta and distortion_table of `distortion field --nr NR --ntheta NTHETA`."""
    rs = np.geomspace(1e-8, 1.0, nr)
    thetas = -math.pi / 2.0 + 2.0 * math.pi * (np.arange(ntheta) + 0.5) / ntheta
    r, theta = np.meshgrid(rs, thetas, indexing="ij")
    return r, theta, distortion_table(np.log(r), theta, ProfileParams())


def test_distortion_field_pgm(tmp_path, capsys):
    out_file = tmp_path / "field.pgm"
    code, _ = run(["distortion", "field", "--nr", "32", "--ntheta", "48",
                   "--format", "pgm", "--out", str(out_file)], capsys)
    assert code == 0
    blob = out_file.read_bytes()
    assert blob.startswith(b"P5\n48 32\n255\n")
    assert len(blob.split(b"255\n", 1)[1]) == 32 * 48
    assert blob == pgm_bytes(np.log10(default_field(32, 48)[2][2]))


def test_distortion_fit_bound_passes_on_outer_ray(capsys):
    code, out = run(["distortion", "fit-bound", "--theta", "pi", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert 0.05 <= payload["ratio_min"] <= payload["ratio_max"] <= 2.0


def test_integrate_kpow_convergent(capsys):
    code, out = run(["integrate", "--kpow", "2", "--depth", "32"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "convergent"


def test_integrate_explambda_divergent(capsys):
    code, out = run(["integrate", "--explambda", "0.5", "--depth", "64"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "divergent"


def test_integrate_conformal_chain_area(capsys):
    code, out = run(["integrate", "--kpow", "2", "--chain", "f1", "--depth", "12"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["partials"][-1][1] == pytest.approx(math.pi, rel=1e-6)


def test_capacity_test_fn(capsys):
    code, out = run(["capacity", "test-fn", "--r", "0.2", "--d", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["energy"] == pytest.approx(0.10819071635468618, rel=1e-8)


def test_capacity_grid_annulus(capsys):
    code, out = run(["capacity", "grid", "--annulus", "0.25", "1",
                     "--resolution", "128"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["rel_error"] <= 0.02
    # solver provenance
    assert 0 < payload["iterations"] < 50
    assert 0.0 < payload["residual"] <= 1e-8


@pytest.mark.parametrize("rho, exact", [("0.25", "4.5323601418271942"),
                                         ("1e-320", "0.0085273520826699319"),
                                         ("5e-324", "0.0084401492399016655")])
def test_capacity_grid_exact_capacity(rho, exact, capsys):
    # R / rho overflows to inf for the two tiny radii: the exact capacity
    # comes from the difference of logs there, and keeps its bits elsewhere
    code, out = run(["capacity", "grid", "--annulus", rho, "1", "--resolution", "16"], capsys)
    assert code == 0
    assert f'"exact_continuum":{exact},' in out
    assert math.isfinite(json.loads(out)["rel_error"])


def test_capacity_theorem1_monotone_column(capsys):
    code, out = run(["capacity", "theorem1", "--t", "0.25,0.125,0.0625",
                     "--resolution", "48", "--arc-samples", "16"], capsys)
    assert code == 0
    header, rows = rows_of(out)
    # the column table criterion 8's tip_experiment.csv shares
    assert header == ["t", "capacity", "capacity_over_t", "capacity_over_t2", "diam_image_arc",
                      "diam_preimage", "log_diam_preimage", "lower_bound_ref",
                      "log_lower_bound_ref", "log_diam_bound"]
    caps = [float(r["capacity"]) for r in rows]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(caps[:-1], caps[1:]))


def test_verify_single_fast_criterion(tmp_path, capsys):
    code, out = run(["verify", "--only", "9", "--out", str(tmp_path / "v")], capsys)
    assert code == 0
    assert "PASS" in out and "boundary-asymptotics" in out
    assert (tmp_path / "v" / "criterion-09" / "boundary_trace.csv").exists()
    assert (tmp_path / "v" / "summary.json").exists()


def test_verify_only_name_fragment(capsys):
    # the distortion-envelope criterion encodes unattainable pinned targets
    # and honestly reports FAIL, so the subset run exits 1
    code, out = run(["verify", "--only", "distortion"], capsys)
    assert code == 1
    assert "FAIL" in out and "distortion-envelope" in out


def test_verify_negative_control_detects_wrong_derivative(monkeypatch):
    from cuspmap import verify
    from cuspmap.distortion import cusp_jacobian_values

    def wrong(r, theta, params):
        a11, a12, a21, a22 = cusp_jacobian_values(r, theta, params)
        return a11 * (1.0 + 1e-4), a12, a21, a22

    def nan_at_one_point(r, theta, params):
        a11, a12, a21, a22 = cusp_jacobian_values(r, theta, params)
        a11[500] = math.nan
        return a11, a12, a21, a22

    monkeypatch.setattr(verify, "cusp_jacobian_values", wrong)
    assert verify.criterion_1(16.0).passed is False
    monkeypatch.setattr(verify, "cusp_jacobian_values", nan_at_one_point)
    assert verify.criterion_1(16.0).passed is False
    monkeypatch.undo()
    assert verify.criterion_1(16.0).passed is True


def test_determinism_criterion_detects_a_changing_artifact(monkeypatch):
    from cuspmap import verify

    def noisy(cg):
        return verify.Evidence(True, {}, {"noise.txt": os.urandom(16).hex()})

    runs = itertools.count()

    def renamed(cg):
        return verify.Evidence(True, {}, {f"run-{next(runs)}.txt": "same"})

    table = {i: verify.CRITERIA[i] for i in (9, 10)}
    monkeypatch.setattr(verify, "CRITERIA", table)
    assert verify.criterion_10(16.0).passed is True
    table[4] = ("noisy", math.inf, noisy)
    evidence = verify.criterion_10(16.0)
    assert evidence.passed is False
    assert evidence.details == {"compared_files": 2, "mismatches": ["criterion-04/noise.txt"]}
    assert json.loads(evidence.artifacts["determinism.json"]) == evidence.details
    table[4] = ("renamed", math.inf, renamed)
    evidence = verify.criterion_10(16.0)
    assert evidence.passed is False and evidence.details["mismatches"] == ["file sets differ"]


def halton_reference(n, skip):
    """The (2, 3)-Halton points one index and one digit at a time."""
    def radical_inverse(k, base):
        f, x = 1.0, 0.0
        while k > 0:
            f /= base
            x += f * (k % base)
            k //= base
        return x

    return [[radical_inverse(i + skip + 1, 2), radical_inverse(i + skip + 1, 3)]
            for i in range(n)]


@pytest.mark.parametrize("n,skip", [(0, 20), (1, 0), (50, 17), (1000, 20), (300, 5000),
                                    (40, -25)])
def test_halton_equals_the_point_by_point_loop(n, skip):
    from cuspmap.verify import halton

    pts = halton(n, skip)
    assert pts.shape == (n, 2)
    assert pts.tolist() == halton_reference(n, skip)


def test_cli_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _ = run(["map", "sample", "--grid", "16", "--roundtrip",
                       "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("depth=12\n")
    code, out = run(["integrate", "--kpow", "1", "--config", str(cfg)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["partials"]) == 12
    # explicit flags win over the config file
    code, out = run(["integrate", "--kpow", "1", "--depth", "8",
                     "--config", str(cfg)], capsys)
    payload = json.loads(out)
    assert len(payload["partials"]) == 8


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["integrate"])  # missing required --kpow/--explambda
    assert exc.value.code == 2


def usage_exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_config_flag_without_a_file_is_a_usage_error(capsys):
    assert usage_exit_code(["integrate", "--kpow", "1", "--config"]) == 2


@pytest.mark.parametrize("value,on", [("true", True), ("yes", True), ("1", True),
                                      ("false", False), ("no", False), ("0", False)])
def test_config_boolean_key_sets_or_leaves_off_its_flag(value, on, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"roundtrip={value}\n")
    code, out = run(["map", "sample", "--points=0.1,0.2", "--config", str(cfg)], capsys)
    assert code == 0
    assert (rows_of(out)[0][-1] == "roundtrip_error") is on


def test_config_equals_form_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("depth=12\n")
    code, out = run(["integrate", "--kpow", "1", f"--config={cfg}"], capsys)
    assert code == 0
    assert len(json.loads(out)["partials"]) == 12


@pytest.mark.parametrize("key,argv,message", [
    ("steps=10", ["integrate", "--kpow", "2"], "--steps needs --geometric-depth"),
    ("depth=12", ["integrate", "--kpow", "2", "--geometric-depth", "100"],
     "--depth and --geometric-depth exclude each other"),
    ("seed=5", ["map", "sample", "--points=0.1,0.2"], "--seed needs --random"),
])
def test_config_key_the_chosen_mode_ignores_is_a_usage_error(key, argv, message, tmp_path,
                                                             capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(key + "\n")
    assert usage_exit_code(argv + ["--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,prog", [
    (["map", "sample", "--grid", "1449"], "cuspmap map sample"),
    (["distortion", "field", "--r-max", "2"], "cuspmap distortion field"),
])
def test_failed_cross_option_check_reports_under_the_subcommand(argv, prog, capsys):
    # as a flag's own type error does: the subcommand's usage line and prefix
    assert usage_exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {prog} [-h]")
    assert f"\n{prog}: error: " in err


def test_default_cusp_constant_is_the_profile_default():
    import inspect

    from cuspmap import verify
    from cuspmap.maps import MapChain

    cg = ProfileParams().cg
    parser = cli._build_parser()[0]
    for argv in (["map", "sample"], ["distortion", "field"], ["integrate", "--kpow", "1"],
                 ["distortion", "fit-bound", "--theta", "pi"],
                 ["capacity", "theorem1", "--t", "0.25"], ["verify"]):
        assert parser.parse_args(argv).cg == cg
    for fn in (verify.run_criterion, verify.run_suite):
        assert inspect.signature(fn).parameters["cg"].default == cg
    assert MapChain.default().params.cg == cg


def test_non_finite_point_is_a_usage_error(capsys):
    assert usage_exit_code(["map", "sample", "--points=nan,0"]) == 2


def test_empty_field_is_a_usage_error(capsys):
    assert usage_exit_code(["distortion", "field", "--nr", "0"]) == 2


@pytest.mark.parametrize("argv", [
    ["capacity", "grid", "--annulus", "0.25", "1", "--resolution", "8"],
    ["integrate", "--kpow", "1", "--depth", "3"],
    ["map", "sample", "--grid", "0"],
    ["distortion", "fit-bound", "--theta", "pi", "--n", "0"],
    ["capacity", "theorem1", "--t", "0.25", "--arc-samples", "1"],
])
def test_sizes_below_the_minimum_are_usage_errors(argv, capsys):
    assert usage_exit_code(argv) == 2


@pytest.mark.parametrize("argv", [
    ["capacity", "grid", "--annulus", "0.25", "1e300", "--resolution", "16"],
    ["capacity", "grid", "--annulus", "0.25", "1", "--resolution", "100000"],
    ["capacity", "theorem1", "--t", "0.25", "--resolution", "2048"],
    ["capacity", "theorem1", "--t", "0.25", "--resolution", "1" + "0" * 400],
])
def test_grids_past_the_node_ceiling_are_usage_errors(argv, capsys, monkeypatch):
    # the ceiling is checked before any grid array exists; the condensers
    # must not even be built
    for name in ("annulus_condenser", "tip_capacity_experiment"):
        monkeypatch.setattr(cli, name, lambda *args, **kw: pytest.fail("grid built"))
    assert usage_exit_code(argv) == 2
    assert "nodes" in capsys.readouterr().err


@pytest.fixture
def bodies_fail(monkeypatch):
    """Every command body fails the test, in a parser built around them."""
    for name in list(vars(cli)):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(cli, name, lambda args: pytest.fail("command body ran"))
    cli._build_parser.cache_clear()
    yield
    cli._build_parser.cache_clear()  # before monkeypatch restores the bodies


@pytest.mark.parametrize("argv", [
    ["map", "sample", "--grid", "1449"],
    ["map", "sample", "--random", "2097153"],
    ["map", "sample", "--points=0,0", "--grid", "1024", "--random", "1048576"],
    ["distortion", "field", "--nr", "1", "--ntheta", "2097153"],
    ["distortion", "fit-bound", "--theta", "pi", "--n", "2097153"],
    ["integrate", "--kpow", "2", "--depth", "65537"],
    ["integrate", "--kpow", "2", "--geometric-depth", "100", "--steps", "65537"],
    ["capacity", "theorem1", "--t", "0.25", "--arc-samples", "16385"],
])
def test_counts_past_their_ceiling_are_usage_errors(argv, bodies_fail, capsys):
    # one above each ceiling, refused before the body builds an array
    assert usage_exit_code(argv) == 2
    (line,) = [l for l in capsys.readouterr().err.splitlines() if "error:" in l]
    assert "above the maximum" in line


@pytest.mark.parametrize("argv", [
    ["distortion", "field", "--r-min", "0"],
    ["distortion", "field", "--r-min", "-1e-3"],
    ["distortion", "field", "--r-min", "2"],
    ["distortion", "field", "--r-min", "0.5", "--r-max", "0.5"],
    ["distortion", "fit-bound", "--theta", "pi", "--r-min", "0"],
])
def test_radii_outside_the_open_range_are_usage_errors(argv, capsys):
    assert usage_exit_code(argv) == 2
    assert "--r-min" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["distortion", "field", "--r-max", "2"],
    ["distortion", "fit-bound", "--theta", "0", "--r-max", "2"],
    ["distortion", "field", "--chain", "f1,f2", "--r-max", "2"],
])
def test_radii_above_one_with_the_squeeze_are_usage_errors(argv, capsys):
    assert usage_exit_code(argv) == 2
    assert "--r-max" in capsys.readouterr().err


def test_radii_above_one_without_the_squeeze(capsys):
    code, out = run(["distortion", "field", "--chain", "f1,f3", "--r-max", "2",
                     "--nr", "2", "--ntheta", "2"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert [float(r["r"]) for r in rows] == [1e-8, 1e-8, 2.0, 2.0]


@pytest.mark.parametrize("cg", ["-1", "0", "nan", "inf", "2"])
@pytest.mark.parametrize("command", [
    ["distortion", "field", "--nr", "2", "--ntheta", "2"],
    ["integrate", "--kpow", "1"],
])
def test_cusp_constant_the_profile_rejects_is_a_usage_error(command, cg, capsys):
    assert usage_exit_code(command + ["--cg", cg]) == 2
    assert "argument --cg" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["distortion", "field", "--cg", "abc"], "argument --cg: 'abc' is not a number"),
    (["map", "sample", "--grid", "x"], "argument --grid: 'x' is not an integer"),
    (["map", "sample", "--random", "1.5"], "argument --random: '1.5' is not an integer"),
    (["capacity", "theorem1", "--t", "abc"], "argument --t: 'abc' is not a number"),
    (["capacity", "theorem1", "--t", "0.25,q"], "argument --t: 'q' is not a number"),
    (["map", "sample", "--points=1,x"], "argument --points: 'x' is not a coordinate"),
    (["distortion", "fit-bound", "--theta", "zz"], "argument --theta: 'zz' is not an angle"),
    (["distortion", "fit-bound", "--theta", ".pi"],
     "argument --theta: '.' is not a multiple of pi"),
    (["capacity", "theorem1", "--t", ","], "argument --t: ',' holds no number"),
    (["distortion", "fit-bound", "--theta", "pi", "--band", "1"],
     "argument --band: '1' is not two numbers LO,HI"),
    *((["distortion", "fit-bound", "--theta", "pi", f"--band={band}"],
       f"argument --band: '{band}' is not a band of finite LO < HI")
      for band in ("2,1", "1,1", "nan,1", "0,nan", "-inf,1", "0,inf")),
    *((["distortion", "fit-bound", "--theta", theta], f"argument --theta: angle '{theta}' "
       "divides by zero") for theta in ("pi/0", "3pi/0.0")),
    # a negative seed gave repeated points at the origin, one past the int64
    # Halton index wrapped it, and one past int64 raised from numpy
    (["map", "sample", "--random", "3", "--seed", "-100"],
     "argument --seed: -100 is below the minimum 0"),
    *((["map", "sample", "--random", "3", "--seed", seed],
       f"argument --seed: {seed} is above the maximum {2**62}")
      for seed in ("9223372036854775790", "100000000000000000000000")),
    # a flag the chosen mode would ignore
    (["integrate", "--kpow", "2", "--steps", "10"], "--steps needs --geometric-depth"),
    (["integrate", "--kpow", "2", "--depth", "12", "--geometric-depth", "100"],
     "--depth and --geometric-depth exclude each other"),
    (["map", "sample", "--points=0.1,0.2", "--seed", "5"], "--seed needs --random"),
])
def test_malformed_numbers_are_plain_usage_errors(argv, message, capsys):
    assert usage_exit_code(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    # argparse names the type function of a ValueError it catches itself
    assert "invalid" not in err and "_" not in err.split("error:")[1]


@pytest.mark.parametrize("argv", [
    ["distortion", "fit-bound", "--theta", "inf"],
    ["capacity", "theorem1", "--t", "nan"],
    ["capacity", "theorem1", "--t", "0.7"],
    ["capacity", "theorem1", "--t", "0.3,0.3"],
    ["map", "trace-boundary", "--t", "1.5"],
    ["capacity", "grid", "--annulus", "nan", "1"],
    ["capacity", "grid", "--annulus", "2", "1"],
    ["capacity", "grid", "--annulus", "1", "inf"],
    ["capacity", "test-fn", "--r", "nan", "--d", "1"],
    ["integrate", "--kpow", "-1"],
    ["integrate", "--kpow", "inf"],
    ["integrate", "--explambda", "nan"],
    ["integrate", "--kpow", "1", "--geometric-depth", "-3"],
    ["integrate", "--kpow", "1", "--geometric-depth", "0.5"],
    ["integrate", "--kpow", "1", "--geometric-depth", "1e308"],
])
def test_values_out_of_the_library_range_are_usage_errors(argv, capsys):
    assert usage_exit_code(argv) == 2


def test_largest_seed_gives_distinct_points(capsys):
    code, out = run(["map", "sample", "--random", "3", "--seed", str(2**62)], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert len({(r["x1"], r["x2"]) for r in rows}) == 3


@pytest.mark.parametrize("argv", [
    ["capacity", "grid", "--annulus", "0.25", "1", "--format", "csv"],
    ["integrate", "--kpow", "1", "--format", "json"],
    ["verify", "--seed", "1"],
    ["map", "trace-boundary", "--t", "0.1", "--cg", "3"],
    ["capacity", "test-fn", "--r", "0.2", "--d", "1", "--cg", "20"],
    ["map", "sample", "--points=0.1,0.2", "--format", "pgm"],
])
def test_options_a_command_does_not_read_are_usage_errors(argv, capsys):
    assert usage_exit_code(argv) == 2


@pytest.mark.parametrize("argv,message", [
    (["map", "sample"], "map sample needs --points, --grid or --random"),
    (["distortion", "field", "--format", "pgm"], "--format pgm needs --out FILE"),
])
def test_options_missing_their_companion_are_usage_errors(argv, message, capsys):
    assert usage_exit_code(argv) == 2
    assert message in capsys.readouterr().err


def test_unknown_chain_stage_is_a_usage_error(capsys):
    assert usage_exit_code(["integrate", "--kpow", "1", "--chain", "f1,f4"]) == 2
    assert "unknown stage token 'f4'" in capsys.readouterr().err


def test_verify_only_without_a_match_is_a_usage_error(capsys):
    assert usage_exit_code(["verify", "--only", "nosuch"]) == 2
    assert "no criterion matches 'nosuch'" in capsys.readouterr().err


@pytest.mark.parametrize("only,selected", [("1", [1]), ("10", [10]), ("9", [9]),
                                           ("distortion", [3]), ("cap", [7, 8])])
def test_verify_only_selects_a_number_or_a_printed_name(only, selected):
    assert select_criteria(only) == selected


@pytest.mark.parametrize("only", ["0", "criterion_1"])
def test_verify_only_matches_no_function_name(only, capsys):
    # function names do not match: both are substrings of criterion_10
    assert usage_exit_code(["verify", "--only", only]) == 2
    assert f"no criterion matches {only!r}" in capsys.readouterr().err


def test_map_sample_round_trip_next_to_the_pole(capsys):
    # f1 sends this point to radius 2e12, far out on the radial extension
    code, out = run(["map", "sample", "--points=0.999999999999,0", "--roundtrip"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert float(rows[0]["roundtrip_error"]) <= 1e-9


def test_distortion_field_csv_finite_down_to_1e_300(capsys):
    code, out = run(["distortion", "field", "--r-min", "1e-300", "--nr", "16",
                     "--ntheta", "8"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert len(rows) == 16 * 8
    for r in rows:
        assert math.isfinite(float(r["K"])) and float(r["K"]) >= 1.0
        assert math.isfinite(float(r["op_norm"]))
        # jac_det ~ r^-2 leaves the double range below r of about 1e-155
        assert float(r["jac_det"]) > 0.0


def test_numeric_error_exit_code(capsys):
    # p log K overflows at the quadrature nodes
    code = main(["integrate", "--kpow", "1e308"])
    assert code == 3


@pytest.mark.parametrize("flag", ["--kpow", "--explambda"])
def test_overflowing_log_integrand_is_a_numeric_failure(flag, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["integrate", flag, "1e308"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "non-finite integrand" in captured.err


def test_cutoffs_whose_square_underflows(capsys):
    code, out = run(["capacity", "theorem1", "--t", "1e-200", "--resolution", "16",
                     "--arc-samples", "2"], capsys)
    assert code == 0
    (row,) = rows_of(out)[1]
    assert float(row["capacity_over_t2"]) == math.inf
    assert float(row["diam_image_arc"]) <= 1e-200 * (1.0 + 1e-13)
    code, out = run(["map", "trace-boundary", "--t", "1e-300"], capsys)
    assert code == 0
    (row,) = rows_of(out)[1]
    # y = exp(-1/t) is 0, so residual / t^2 is exactly -1 / (1 + t)
    assert float(row["residual"]) == 0.0
    assert float(row["residual_over_t2"]) == pytest.approx(-1.0 / (1.0 + 1e-300),
                                                           rel=2 * sys.float_info.epsilon)


@pytest.mark.parametrize("t", [1e-150, 1e-154, 1e-160, 1e-170, 5e-324])
def test_trace_residual_over_t2_at_cutoffs_near_and_below_the_normal_square(t, capsys):
    code, out = run(["map", "trace-boundary", "--t", repr(t)], capsys)
    assert code == 0
    (row,) = rows_of(out)[1]
    exact = -1.0 / (1.0 + t)
    assert abs(float(row["residual_over_t2"]) - exact) <= 2 * math.ulp(exact)


@pytest.mark.parametrize("argv", [
    ["capacity", "test-fn", "--r", "0.1", "--d", "1", "--out", "{missing}/x.json"],
    ["distortion", "field", "--format", "pgm", "--out", "{missing}/x.pgm"],
    ["verify", "--only", "9", "--out", "{file}"],
    ["verify", "--only", "9", "--out", ""],  # refused before criterion 9 prints its line
    ["map", "trace-boundary", "--t", "0.1", "--out", ""],
])
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    # reported like every other usage error: the subcommand's usage line and prefix
    prog = " ".join(["cuspmap", *itertools.takewhile(lambda a: not a.startswith("--"), argv)])
    existing = tmp_path / "file"
    existing.write_text("")
    argv = [a.format(missing=tmp_path / "nodir", file=existing) for a in argv]
    assert usage_exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: {prog} [-h]")
    assert captured.err.splitlines()[-1].startswith(f"{prog}: error: argument --out: ")
    assert existing.read_text() == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["capacity", "test-fn", "--r", "0.1", "--d", "1", "--out", "/dev/full"],
    ["distortion", "field", "--nr", "4", "--ntheta", "4", "--format", "pgm", "--out", "/dev/full"],
])
def test_a_write_that_fails_after_the_open_is_a_numeric_failure(argv, capsys):
    # /dev/full opens, and every write to it fails with ENOSPC
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: writing /dev/full: No space left on device"]


def test_distortion_field_csv_is_the_per_cell_rendering_of_the_table(capsys):
    code, out = run(["distortion", "field", "--nr", "64", "--ntheta", "64",
                     "--format", "csv"], capsys)
    assert code == 0
    r, theta, table = default_field(64, 64)
    columns = [v.ravel().tolist() for v in (r, theta, *table)]
    expected = "r,theta,op_norm,jac_det,K\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in zip(*columns))
    assert out == expected


def test_repeated_calls_share_one_parser_and_leak_no_state(tmp_path, capsys):
    # --roundtrip, then a call without it
    _, out = run(["map", "sample", "--points=0.1,0.2", "--roundtrip"], capsys)
    assert rows_of(out)[0][-1] == "roundtrip_error"
    _, out = run(["map", "sample", "--points=0.1,0.2"], capsys)
    assert rows_of(out)[0] == ["x1", "x2", "fx1", "fx2"]
    # --config FILE, then no config
    cfg = tmp_path / "run.cfg"
    cfg.write_text("depth=12\n")
    _, out = run(["integrate", "--kpow", "1", "--config", str(cfg)], capsys)
    assert len(json.loads(out)["partials"]) == 12
    _, out = run(["integrate", "--kpow", "1"], capsys)
    assert len(json.loads(out)["partials"]) == 64
    # a usage error, then a valid call
    assert usage_exit_code(["integrate", "--kpow", "1", "--depth", "2"]) == 2
    code, out = run(["integrate", "--kpow", "1", "--depth", "8"], capsys)
    assert code == 0 and len(json.loads(out)["partials"]) == 8
    assert cli._build_parser() is cli._build_parser()


def test_importing_the_cli_builds_no_parser():
    code = ("import cuspmap.cli as c; assert c._build_parser.cache_info().currsize == 0; "
            "c.main(['integrate', '--kpow', '1', '--depth', '6']); "
            "c.main(['integrate', '--kpow', '2', '--depth', '6']); "
            "assert c._build_parser.cache_info().misses == 1")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_capacity_test_fn_past_the_panel_spacing_of_doubles(capsys):
    # 1 / r beyond 2^52: the width integral takes its asymptote
    for r in ("1e-17", "1e-300"):
        code, out = run(["capacity", "test-fn", "--r", r, "--d", "1"], capsys)
        assert code == 0
        assert json.loads(out)["log_energy"] == -(1.0 / float(r) - 2.0 * math.log(1.0 / float(r)))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# the README's "Command line" block is parsed in one place, the digest tool
readme_commands = artifact_digests.readme_commands


def test_readme_lists_the_command_examples():
    assert len(readme_commands()) == 12


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_examples_run(argv, tmp_path, capsys):
    argv = [str(tmp_path / a) if a.endswith(".pgm") else a for a in argv]
    assert main(argv) == 0
    capsys.readouterr()
