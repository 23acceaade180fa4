"""The three benchmark workloads: inputs built from a seed, one pass, observations.

Each workload builds its inputs once (`__init__`, the timed set-up), runs one
pass of public cuspmap calls (`run_pass`, the timed work) and then turns the
pass's outputs into plain observations (`observe`, untimed) that
`oracle.py` checks. A pass is a list of named operations; an operation that
raises is recorded as `{"error": ...}` and counted as failed by the oracle.

Importing this module imports cuspmap, so callers put the checkout's `src`
directory on `sys.path` first.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from contextlib import nullcontext

import numpy as np
from cuspmap import capacity, cli, verify
from cuspmap.maps import MapChain

# Certify runs every criterion that solves no grid problem (7 and 8 do; 10
# reruns the others twice and is replaced by the artifact-digest check).
CERTIFY_CRITERIA = {"full": (1, 2, 3, 4, 5, 6, 9), "tiny": (3, 6, 9)}
KPOW = {"full": (0.5, 1.0, 2.0, 4.0, 8.0), "tiny": (2.0,)}
EXPLAMBDA = {"full": (0.01, 0.1, 1.0), "tiny": (1.0,)}
MAP_SAMPLE_POINTS = {"full": 2000, "tiny": 50}
FIELD_SIZE = {"full": 64, "tiny": 8}
GEOMETRIC_DEPTH = "65536"

ANNULUS_RESOLUTIONS = {"full": (128, 256), "tiny": (32, 64)}

TIP_RESOLUTION = {"full": 128, "tiny": 32}
# t = 0.45 gives a resolved plate; 0.3 and 0.125 stamp identical E masks.
TIP_TS = (0.45, 0.3, 0.125)

# The CLI's --seed offsets a Halton sequence, so it must be non-negative.
_SEED_MODULUS = 1_000_003


def _attempt(fn):
    """Run one operation; an exception becomes an observation, not a crash."""
    try:
        return fn()
    except Exception as exc:  # every failure of an operation is counted, not raised
        return {"error": f"{type(exc).__name__}: {exc}"}


class Certify:
    """Criteria 1-6 and 9 plus the CLI's map, field and integrate commands."""

    name = "certify"
    seed_use = f"offsets the Halton points of `map sample --random` (seed mod {_SEED_MODULUS})"

    def __init__(self, size: str, seed: int):
        self.criteria = CERTIFY_CRITERIA[size]
        cli_seed = str(seed % _SEED_MODULUS)
        n = str(FIELD_SIZE[size])
        # (operation, argv without --out, output file name)
        self.commands = [
            ("cli.map_sample",
             ["map", "sample", "--random", str(MAP_SAMPLE_POINTS[size]), "--roundtrip",
              "--seed", cli_seed], "map_sample.csv"),
            # The README's field example: the scalar path, one row per point.
            ("cli.distortion_field",
             ["distortion", "field", "--r-min", "1e-8", "--nr", n, "--ntheta", n,
              "--format", "csv"], "distortion_field.csv"),
            # Radii down to 1e-300 through the log-space path (log10 K heatmap).
            ("cli.distortion_field_deep",
             ["distortion", "field", "--r-min", "1e-300", "--nr", n, "--ntheta", n,
              "--format", "pgm"], "distortion_field_deep.pgm"),
        ]
        for flag, values in (("--kpow", KPOW[size]), ("--explambda", EXPLAMBDA[size])):
            for v in values:
                op = f"cli.integrate{flag[1:]}_{v:g}"
                self.commands.append(
                    (op, ["integrate", flag, f"{v:g}", "--geometric-depth", GEOMETRIC_DEPTH],
                     op[4:] + ".json"))
        self.requested_rows = {"cli.map_sample": MAP_SAMPLE_POINTS[size],
                               "cli.distortion_field": FIELD_SIZE[size] ** 2,
                               "cli.distortion_field_deep": FIELD_SIZE[size]}

    def run_pass(self, pass_dir: str, span=lambda name: nullcontext()):
        results = {}
        for idx in self.criteria:
            op = f"criterion_{idx:02d}"
            with span("verify." + op):
                results[op] = _attempt(lambda: verify.run_criterion(idx, pass_dir))
        cli_dir = os.path.join(pass_dir, "cli")
        os.makedirs(cli_dir, exist_ok=True)
        for op, argv, fname in self.commands:
            out = os.path.join(cli_dir, fname)
            with span("cli.main"):
                results[op] = _attempt(lambda: _cli(argv + ["--out", out]))
        return results

    def observe(self, pass_dir: str, results):
        obs = {}
        for idx in self.criteria:
            op = f"criterion_{idx:02d}"
            res = results[op]
            obs[op] = res if isinstance(res, dict) else {"details": _plain(res.details)}
        for op, _, fname in self.commands:
            res = results[op]
            if isinstance(res, dict):
                obs[op] = res
                continue
            path = os.path.join(pass_dir, "cli", fname)
            obs[op] = _attempt(
                lambda: _read_cli_output(op, res, path, self.requested_rows.get(op)))
        owner = {f"criterion-{i:02d}": f"criterion_{i:02d}" for i in self.criteria}
        owner.update({"cli/" + fname: op for op, _, fname in self.commands})
        for rel, digest in digest_tree(pass_dir).items():
            op = owner.get(rel) or owner.get(rel.split("/")[0])
            if op is not None and "error" not in obs[op]:
                obs[op].setdefault("artifacts", {})[rel] = digest
        return obs


def _cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments: a failed operation
        return exc.code


def _plain(obj):
    """Criterion details as JSON-ready data (tuples to lists, numpy scalars to float)."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return float(obj)


def _read_cli_output(op: str, exit_code: int, path: str, requested_rows) -> dict:
    out = {"exit_code": exit_code}
    if requested_rows is not None:
        out["requested_rows"] = requested_rows
    if op == "cli.map_sample":
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        values = [float(v) for row in rows for v in row.values()]
        out.update(rows=len(rows), all_finite=all(math.isfinite(v) for v in values),
                   max_roundtrip=max(float(r["roundtrip_error"]) for r in rows))
    elif op == "cli.distortion_field":
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        values = [[float(v) for v in row.values()] for row in rows]
        finite = [row for row in values if all(math.isfinite(v) for v in row)]
        out.update(rows=len(rows), nonfinite_rows=len(rows) - len(finite),
                   min_K=min((row[4] for row in finite), default=math.nan),
                   min_jac_det=min((row[3] for row in finite), default=math.nan))
    elif op == "cli.distortion_field_deep":
        with open(path, "rb") as fh:
            magic, dims, maxval, pixels = fh.read().split(b"\n", 3)
        ncols, nrows = (int(v) for v in dims.split())
        image = np.frombuffer(pixels, dtype=np.uint8)
        out.update(magic=magic.decode("ascii"), maxval=int(maxval), shape=[nrows, ncols],
                   pixels=image.size)
        if image.size == nrows * ncols:
            # row i holds the i-th radius of geomspace(r_min, r_max), deepest first
            out["row_max"] = image.reshape(nrows, ncols).max(axis=1).tolist()
    else:
        with open(path) as fh:
            payload = json.load(fh)
        out.update(kind=payload["kind"], parameter=payload["parameter"],
                   verdict=payload["verdict"])
    return out


class Annulus:
    """Unweighted annulus condenser (criterion 7's calibration problem)."""

    name = "annulus"
    seed_use = "none: a fixed problem"
    rho, R = 0.25, 1.0

    def __init__(self, size: str, seed: int):
        self.problems = [(res, capacity.annulus_condenser(self.rho, self.R, res),
                          capacity.GridSolverConfig(resolution=res))
                         for res in ANNULUS_RESOLUTIONS[size]]

    def run_pass(self, pass_dir: str, span=lambda name: nullcontext()):
        results = {}
        for res, (grid, F, E, dom), cfg in self.problems:
            results[f"res_{res}"] = _attempt(
                lambda: capacity.grid_capacity(None, F, E, dom, grid, cfg))
        return results

    def observe(self, pass_dir: str, results):
        return {op: res if isinstance(res, dict) else
                {"resolution": int(op[4:]), "capacity": res.value}
                for op, res in results.items()}


class Tip:
    """Tip condenser experiment: 1/K-weighted solves against shrinking arcs."""

    name = "tip"
    seed_use = "none: a fixed problem"

    def __init__(self, size: str, seed: int):
        self.ts = TIP_TS
        self.chain = MapChain.default()
        self.cfg = capacity.GridSolverConfig(resolution=TIP_RESOLUTION[size])

    def run_pass(self, pass_dir: str, span=lambda name: nullcontext()):
        with span("capacity.tip_capacity_experiment"):
            rows = _attempt(lambda: capacity.tip_capacity_experiment(
                self.ts, self.chain, self.cfg))
        return {"rows": rows}

    def observe(self, pass_dir: str, results):
        rows = results["rows"]
        if isinstance(rows, dict):
            return {f"t_{t:g}": rows for t in self.ts}
        return {f"t_{r.t:g}": {"t": r.t, "capacity": r.capacity,
                               "log_diam_preimage": r.log_diam_preimage,
                               "cg": self.chain.params.cg}
                for r in rows}


WORKLOADS = {w.name: w for w in (Certify, Annulus, Tip)}


def digest_tree(root: str) -> dict:
    """sha256 of every file under root, keyed by '/'-separated relative path."""
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            path = os.path.join(d, f)
            with open(path, "rb") as fh:
                data = fh.read()
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            out[rel] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return dict(sorted(out.items()))
