"""sha256 of every artifact and CLI output file, for a byte diff of two checkouts.

    python3 tools/artifact_digests.py OUTDIR [--src SRC] [--against PARENT_SRC]

Runs, each in its own process and writing through `--out` into OUTDIR:
`cuspmap verify`, every `cuspmap` example of the README's "Command line"
block, the CLI commands of perfbench's certify workload (`map sample
--random 2000 --roundtrip`, the two `distortion field` runs and the eight
`integrate --geometric-depth 65536`), perfbench's grid problems (`capacity
grid` on the annulus at 128 and 256, `capacity theorem1` at the tip
workload's cutoffs and resolution), and a group of small runs of the
options those leave out (JSON tables, `--chain`, a non-default `--cg`,
and cusp-curve points whose width e^{-1/x1} is near or below the smallest
normal double). The package is imported from SRC,
by default the `src` directory of this checkout; the command list always
comes from this checkout. Prints one `sha256  path` line per file, paths
relative to OUTDIR, sorted. A command that exits with an unexpected code
is named on stderr and makes the script exit 1.

To compare a change with its parent, name the parent's package directory:

    python3 tools/artifact_digests.py /tmp/digests --against ../parent/src

runs everything once with the package from PARENT_SRC (into OUTDIR/parent)
and once with the one from SRC (into OUTDIR/change), prints only the paths
whose sha256 differ, or that exist on one side only, and exits 1 if any do.

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CERTIFY = [
    ["map", "sample", "--random", "2000", "--roundtrip", "--seed", "1"],
    ["distortion", "field", "--r-min", "1e-8", "--nr", "64", "--ntheta", "64", "--format", "csv"],
    ["distortion", "field", "--r-min", "1e-300", "--nr", "64", "--ntheta", "64", "--format", "pgm"],
    *(["integrate", "--kpow", p, "--geometric-depth", "65536"] for p in ("0.5", "1", "2", "4", "8")),
    *(["integrate", "--explambda", v, "--geometric-depth", "65536"] for v in ("0.01", "0.1", "1")),
]

BENCH = [
    ["capacity", "grid", "--annulus", "0.25", "1", "--resolution", "128"],
    ["capacity", "grid", "--annulus", "0.25", "1", "--resolution", "256"],
    ["capacity", "theorem1", "--t", "0.45,0.3,0.125", "--resolution", "128"],
]

OPTIONS = [
    ["map", "sample", "--grid", "8", "--roundtrip", "--format", "json"],
    ["map", "sample", "--random", "50", "--roundtrip", "--cg", "100"],
    ["map", "trace-boundary", "--t", "0.1,0.01", "--format", "json"],
    ["distortion", "field", "--nr", "8", "--ntheta", "8", "--format", "json"],
    ["distortion", "field", "--cg", "100", "--nr", "8", "--ntheta", "8"],
    ["distortion", "field", "--chain", "f1,f3", "--r-max", "2", "--nr", "4", "--ntheta", "4"],
    ["distortion", "field", "--chain", "f2", "--nr", "8", "--ntheta", "8"],
    ["distortion", "fit-bound", "--theta", "pi", "--format", "json"],
    ["integrate", "--kpow", "2", "--depth", "12", "--chain", "f1,f3"],
    ["integrate", "--explambda", "1", "--depth", "12", "--cg", "100"],
    ["capacity", "theorem1", "--t", "0.25", "--resolution", "32", "--format", "json"],
    # cusp-curve points whose width e^{-1/x1} is near or below the smallest normal
    # double (3.5e-308 and 1.6e-320), on the trace and on the arc
    ["map", "trace-boundary", "--t", "0.0014125375446227555,0.001358039853299022"],
    ["capacity", "theorem1", "--t", "0.4,0.125", "--resolution", "16", "--arc-samples", "320"],
]


def readme_commands() -> list:
    """argv of each `cuspmap` example in the README's "Command line" block,
    without the `verify` synopsis (verify runs separately)."""
    block = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("cuspmap ") and not line.startswith("cuspmap verify")]


def jobs(out_dir: Path) -> list:
    """(argv, expected exit codes) of every command, each with its --out."""
    todo = [(["verify", "--out", str(out_dir / "verify")], (0, 1))]
    for group, commands in (("readme", readme_commands()), ("certify", CERTIFY),
                            ("bench", BENCH), ("options", OPTIONS)):
        for i, argv in enumerate(commands, 1):
            name = f"{i:02d}_" + re.sub(r"[^A-Za-z0-9.=,-]+", "_", " ".join(argv)).strip("_")
            if "--out" in argv:  # the README's PGM example names its own file
                argv = argv[:argv.index("--out")] + argv[argv.index("--out") + 2:]
            todo.append((argv + ["--out", str(out_dir / group / name)], (0,)))
    return todo


def digests(out_dir: Path) -> list:
    return sorted(
        (str(path.relative_to(out_dir)), hashlib.sha256(path.read_bytes()).hexdigest())
        for path in out_dir.rglob("*") if path.is_file())


def run_tree(src: Path, out_dir: Path):
    """Every job with the package from src; ({path: sha256}, whether a command
    exited with an unexpected code)."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    failed = False
    for command, expected in jobs(out_dir):
        Path(command[-1]).parent.mkdir(parents=True, exist_ok=True)  # the --out's directory
        code = subprocess.run([sys.executable, "-m", "cuspmap", *command], env=env,
                              stdout=subprocess.DEVNULL).returncode
        if code not in expected:
            print(f"exit {code}: cuspmap {shlex.join(command)}", file=sys.stderr)
            failed = True
    return dict(digests(out_dir)), failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out_dir", type=Path, help="directory for the outputs (created)")
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory holding the cuspmap package (default: this checkout's src)")
    p.add_argument("--against", type=Path, metavar="PARENT_SRC",
                   help="print only the paths whose sha256 differ from those of this package")
    args = p.parse_args(argv)
    if args.against is None:
        listing, failed = run_tree(args.src, args.out_dir)
        for rel, digest in sorted(listing.items()):
            print(f"{digest}  {rel}")
        return 1 if failed else 0
    parent, parent_failed = run_tree(args.against, args.out_dir / "parent")
    change, change_failed = run_tree(args.src, args.out_dir / "change")
    differ = sorted(rel for rel in parent.keys() | change.keys()
                    if parent.get(rel) != change.get(rel))
    for rel in differ:
        print(rel)
    return 1 if differ or parent_failed or change_failed else 0


if __name__ == "__main__":
    sys.exit(main())
