"""Tests of the benchmark itself: tiny smoke runs, the oracle's negative cases,
artifact determinism and the refusal to run without the program.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, seed=3, trace=0, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd)


def result_of(done):
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    return line


def result_file(workload, seed, trace):
    return json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}-tiny.json").read_text())


@pytest.fixture
def bare_dir():
    (BENCH / "out").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=BENCH / "out"))
    yield path
    shutil.rmtree(path)


@pytest.mark.parametrize("workload", ["certify", "annulus", "tip"])
def test_smoke_untraced(workload):
    line = result_of(run_bench(workload))
    assert [*line["metrics"]] == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] > 0
    assert result_file(workload, 3, 0)["failures"] == []
    assert line["correct"] is True and line["failed"] == 0


@pytest.mark.parametrize("workload", ["certify", "annulus", "tip"])
def test_smoke_traced(workload):
    line = result_of(run_bench(workload, trace=1))
    assert [*line["metrics"]] == [m["name"] for m in SPEC["per_layer"]]
    share = line["metrics"]["trace.accounted_share"]["value"]
    assert 0.99 <= share <= 1.0 + 1e-9
    assert (BENCH / "out" / f"{workload}-seed3-trace1-tiny-spans.jsonl.gz").is_file()
    layer = {"certify": "profile.evaluate.calls", "annulus": "capacity.grid_capacity.calls",
             "tip": "domains.preimage_arc.calls"}[workload]
    assert line["metrics"][layer]["value"] > 0


def test_artifact_digests_repeat_across_processes():
    first = result_of(run_bench("certify", seed=5))
    digests = result_file("certify", 5, 0)["artifacts"]
    second = result_of(run_bench("certify", seed=5))
    assert result_file("certify", 5, 0)["artifacts"] == digests
    assert first["failed"] == second["failed"] == 0
    assert any(rel.startswith("cli/") for files in digests.values() for rel in files)


def test_refuses_to_run_without_the_program(bare_dir):
    shutil.copy(ROOT / "BENCHMARK.json", bare_dir)
    shutil.copytree(BENCH, bare_dir / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = run_bench("annulus", cwd=bare_dir, script=bare_dir / "perfbench" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()


# ---------------------------------------------------------------------------
# oracle: real outputs pass, perturbed outputs fail
# ---------------------------------------------------------------------------

def observe(workload, size):
    w = workloads.WORKLOADS[workload](size, 0)
    out = tempfile.mkdtemp(dir=BENCH / "out")
    try:
        return w.observe(out, w.run_pass(out))
    finally:
        shutil.rmtree(out)


@pytest.fixture(scope="module")
def certify_obs():
    (BENCH / "out").mkdir(exist_ok=True)
    return observe("certify", "full")


@pytest.fixture(scope="module")
def annulus_obs():
    (BENCH / "out").mkdir(exist_ok=True)
    return observe("annulus", "tiny")


@pytest.fixture(scope="module")
def tip_obs():
    (BENCH / "out").mkdir(exist_ok=True)
    return observe("tip", "tiny")


def failed_ops(workload, obs, reference=None):
    return {op for op, reasons in oracle.failures(workload, obs, reference).items() if reasons}


def test_real_outputs_pass(certify_obs, annulus_obs, tip_obs):
    assert failed_ops("certify", certify_obs, certify_obs) == set()
    assert failed_ops("annulus", annulus_obs) == set()
    assert failed_ops("tip", tip_obs) == set()


@pytest.mark.xfail(reason="known program defect: the scalar CSV path of `distortion field` "
                          "overflows and writes NaN K below r of about 1e-80", strict=False)
def test_csv_field_finite_down_to_1e_300():
    # The README calls radii down to 1e-300 first-class. certify samples the
    # CSV field from 1e-8 and takes 1e-300 through the log-space PGM path, so
    # this test keeps the scalar path's overflow in view until it is fixed.
    w = workloads.Certify("tiny", 0)
    out = tempfile.mkdtemp(dir=BENCH / "out")
    try:
        path = str(Path(out) / "field.csv")
        argv = ["distortion", "field", "--r-min", "1e-300", "--nr", "8", "--ntheta", "8",
                "--format", "csv", "--out", path]
        o = workloads._read_cli_output("cli.distortion_field", workloads._cli(argv), path,
                                       w.requested_rows["cli.distortion_field"])
    finally:
        shutil.rmtree(out)
    assert failed_ops("certify", {"cli.distortion_field": o}) == set()


def test_deep_field_nonfinite_distortion(certify_obs):
    # NaN in log10 K makes the heatmap's maximum NaN and its pixels meaningless
    obs = copy.deepcopy(certify_obs)
    obs["cli.distortion_field_deep"]["row_max"][0] = 0
    assert failed_ops("certify", obs) == {"cli.distortion_field_deep"}


def test_deep_field_growth_reversed(certify_obs):
    obs = copy.deepcopy(certify_obs)
    obs["cli.distortion_field_deep"]["row_max"].reverse()
    assert failed_ops("certify", obs) == {"cli.distortion_field_deep"}


def test_deep_field_wrong_shape(certify_obs):
    obs = copy.deepcopy(certify_obs)
    obs["cli.distortion_field_deep"]["shape"] = [64, 32]
    assert failed_ops("certify", obs) == {"cli.distortion_field_deep"}


def test_annulus_capacity_off_by_one_percent(annulus_obs):
    obs = copy.deepcopy(annulus_obs)
    op = max(obs, key=lambda k: obs[k]["resolution"])
    # the grid capacity lies below 2 pi / log 4; move it further away
    assert obs[op]["capacity"] < oracle.ANNULUS_EXACT
    obs[op]["capacity"] *= 0.99
    assert failed_ops("annulus", obs) == {op}


def test_tip_capacity_off_by_one_percent(tip_obs):
    obs = copy.deepcopy(tip_obs)
    last = min(obs, key=lambda k: obs[k]["t"])
    obs[last]["capacity"] *= 1.01
    assert failed_ops("tip", obs) == {last}


def test_tip_capacity_above_annulus_bound(tip_obs):
    obs = copy.deepcopy(tip_obs)
    first = max(obs, key=lambda k: obs[k]["t"])
    obs[first]["capacity"] = 1.01 * oracle.ANNULUS_EXACT
    assert first in failed_ops("tip", obs)


def test_tip_log_diameter_checked(tip_obs):
    obs = copy.deepcopy(tip_obs)
    op = min(obs, key=lambda k: obs[k]["t"])
    obs[op]["log_diam_preimage"] *= 1.0 + 1e-6
    assert failed_ops("tip", obs) == {op}


@pytest.mark.parametrize("op, index", [("criterion_04", 2), ("criterion_05", 2)])
def test_flipped_criterion_verdict(certify_obs, op, index):
    obs = copy.deepcopy(certify_obs)
    row = obs[op]["details"]["rows"][index]
    row[1] = "divergent" if row[1] == "convergent" else "convergent"
    assert op in failed_ops("certify", obs)


@pytest.mark.parametrize("op", ["cli.integrate-kpow_8", "cli.integrate-explambda_0.1"])
def test_flipped_deep_scheme_verdict(certify_obs, op):
    obs = copy.deepcopy(certify_obs)
    obs[op]["verdict"] = "inconclusive"
    assert op in failed_ops("certify", obs)


def test_round_trip_error_of_1e_6(certify_obs):
    obs = copy.deepcopy(certify_obs)
    obs["criterion_02"]["details"]["worst_round_trip"] = 1e-6
    obs["cli.map_sample"]["max_roundtrip"] = 1e-6
    assert {"criterion_02", "cli.map_sample"} <= failed_ops("certify", obs)


def test_failed_cli_exit_code(certify_obs):
    obs = copy.deepcopy(certify_obs)
    obs["cli.integrate-kpow_2"]["exit_code"] = 3
    assert "cli.integrate-kpow_2" in failed_ops("certify", obs)


def test_changed_artifact_digest(certify_obs):
    obs = copy.deepcopy(certify_obs)
    rel = next(iter(obs["criterion_04"]["artifacts"]))
    obs["criterion_04"]["artifacts"][rel]["sha256"] = "0" * 64
    assert failed_ops("certify", obs, certify_obs) == {"criterion_04"}


def test_raised_operation_counts_as_failed(annulus_obs):
    obs = copy.deepcopy(annulus_obs)
    op = next(iter(obs))
    obs[op] = {"error": "ConvergenceError: CG residual above threshold"}
    assert op in failed_ops("annulus", obs)
