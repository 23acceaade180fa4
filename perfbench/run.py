"""cuspmap benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload certify|annulus|tip --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The program is imported from the checkout's
`src/` directory (nothing is installed); without it the runner exits 2.

One run sets up, then repeats whole workload passes until S seconds have
elapsed, checking every operation's output with `oracle.py`. With `--trace 0`
the last line of standard output is a JSON object carrying the end-to-end
metrics of BENCHMARK.json (wall_s: median pass time; setup_s: median of
separate set-ups, each in a fresh process; peak_rss_mb). With `--trace 1`
untraced and traced passes alternate and the object carries the per-layer
metrics of the traced passes, including the tracing overhead. Both modes
write a result file with provenance, failures and artifact digests under
`perfbench/out/`; traced runs also write their spans there.

BLAS/OpenMP thread counts are pinned to 1 before numpy is imported, so every
run is single-threaded, and the run and its set-up processes are pinned to the
highest-numbered CPU they may use. Left to the scheduler, a run lands on
either CPU of a shared 2-CPU Xeon host, whose speeds differed by up to a
third, and its times split into two modes.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("certify", "annulus", "tip")
NPROC = len(os.sched_getaffinity(0))  # before pin_to_one_cpu


class Unavailable(Exception):
    """The checkout lacks the program or the benchmark description."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Put the checkout's src/ first on sys.path and import cuspmap from it."""
    package = SRC / "cuspmap"
    if not (package / "__init__.py").is_file():
        raise Unavailable(f"no cuspmap package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cuspmap

    if Path(cuspmap.__file__).resolve().parent != package.resolve():
        raise Unavailable(f"cuspmap imported from {cuspmap.__file__}, not {package}")


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise Unavailable(f"missing {path}")
    with open(path) as fh:
        return json.load(fh)


def setup_probe(args):
    """Child process: time importing cuspmap and building the workload inputs."""
    t0 = time.perf_counter()
    import_program()
    import workloads

    workloads.WORKLOADS[args.workload](args.size, args.seed)
    print(repr(time.perf_counter() - t0))
    return 0


def timed_setup(args):
    """One set-up time, measured in a fresh child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
           "--size", args.size, "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def one_pass(workload, work_dir, tracer=None):
    """Run and observe one pass; returns (observations, wall ns, spans)."""
    from tracing import ROOT as ROOT_SPAN

    pass_dir = tempfile.mkdtemp(dir=work_dir)
    try:
        gc.collect()
        if tracer is None:
            t0 = time.perf_counter_ns()
            results = workload.run_pass(pass_dir)
            wall = time.perf_counter_ns() - t0
            spans = None
        else:
            tracer.clear()
            tracer.install()
            try:
                t0 = time.perf_counter_ns()
                with tracer.span(ROOT_SPAN):
                    results = workload.run_pass(pass_dir, tracer.span)
                wall = time.perf_counter_ns() - t0
            finally:
                tracer.uninstall()
            spans = tracer.spans
        return workload.observe(pass_dir, results), wall, spans
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def measure(args, workload, work_dir):
    """Repeat passes for args.seconds; alternate untraced/traced with --trace 1.

    A set-up probe follows every pass, and the run tops them up to
    SETUP_PROBES at the end, so the set-up samples spread over the whole run
    like the passes do rather than sharing one stretch of the host's speed.
    """
    import oracle
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    passes, failures, layer_samples, setup_samples = [], [], [], []
    reference, first_spans = None, None
    start = time.perf_counter()
    step_times = []
    while True:
        step_start = time.perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        obs, wall, spans = one_pass(workload, work_dir, tracer if traced else None)
        reasons = oracle.failures(workload.name, obs, reference)
        reference = reference or obs
        passes.append({"wall_s": wall / 1e9, "traced": traced,
                       "operations": len(reasons),
                       "failed": sum(1 for r in reasons.values() if r)})
        failures.extend({"pass": len(passes) - 1, "operation": op, "reasons": r}
                        for op, r in reasons.items() if r)
        if traced:
            layer_samples.append(tracing.layer_metrics(spans, wall))
            first_spans = first_spans or spans
        setup_samples.append(timed_setup(args))
        step_times.append(time.perf_counter() - step_start)
        # Stop at the pass count that ends nearest to args.seconds, so a run
        # lasts within half a pass of it whatever the pass length.
        enough = not args.trace or len(passes) >= 2
        elapsed = time.perf_counter() - start
        if enough and elapsed + 0.5 * statistics.median(step_times) >= args.seconds:
            break
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(timed_setup(args))
    missing = tracer.missing if tracer else []
    return passes, failures, reference, layer_samples, first_spans, missing, setup_samples


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "cuspmap").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, workload):
    import numpy
    from cuspmap import capacity

    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "solver_tolerance": capacity.GridSolverConfig().tolerance,
        "seed": args.seed,
        "seed_use": workload.seed_use,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def _median_metrics(samples):
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def pin_to_one_cpu():
    """Keep this process and the processes it starts on one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for k in THREAD_ENV:
        os.environ[k] = "1"
    pin_to_one_cpu()
    try:
        if args.setup_probe:
            return setup_probe(args)
        spec = load_spec()
        import_program()
    except Unavailable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.size, args.seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work_dir:
        passes, failures, reference, layer_samples, spans, missing, setup_samples = measure(
            args, workload, work_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    if args.trace:
        values = _median_metrics(layer_samples)
        values["trace.untraced_wall_s"] = statistics.median(untraced)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        wanted = spec["per_layer"]
    else:
        values = {"wall_s": statistics.median(untraced),
                  "setup_s": statistics.median(setup_samples),
                  "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted = sum(p["operations"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + (
        "" if args.size == "full" else f"-{args.size}")
    result = {
        "workload": args.workload, "size": args.size, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(args, workload),
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures[:100],
        "passes": passes, "setup_samples_s": setup_samples,
        "artifacts": {op: o["artifacts"] for op, o in reference.items() if "artifacts" in o},
        "computed_counters": list(tracing.COMPUTED_COUNTERS),
        "trace_points_missing": missing,
    }
    result_path = OUT / f"{stem}.json"
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if spans is not None:
        with gzip.open(OUT / f"{stem}-spans.jsonl.gz", "wt") as fh:
            for name, start, end, parent, sizes in spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "sizes": sizes}) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"  trace {'on' if args.trace else 'off'}")
    for name, m in metrics.items():
        print(f"  {name:50s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':50s} {failed / attempted:.6g} ratio"
          f"  ({failed} of {attempted} checked operations failed)")
    print(f"  result file {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
