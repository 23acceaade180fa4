"""Span tracer for the traced run, and the per-layer metrics derived from it.

`Tracer.install` replaces public cuspmap functions in the namespace of the
module that calls them (one entry of WRAP_POINTS each) with wrappers that
record a span: name, start, end, parent span and computed counters. Spans stay
in memory; `run.py` writes them out when the run ends. A layer's self time is
its span's duration minus the durations of its child spans (single-threaded,
so children never overlap).

Sizes are computed from the arguments or the result, never measured: points
of a distortion evaluation, quadrature nodes, free grid nodes and bytes of
text an io_formats writer returns.
"""

from __future__ import annotations

import importlib
import math
import time
from contextlib import contextmanager

import numpy as np

# io_formats.bytes equals the artifact bytes certify writes: every artifact
# and CLI output file is the text of one csv_text / json_text call.
COMPUTED_COUNTERS = (
    "distortion.distortion_values.points",
    "distortion.chain_distortion_values.points",
    "quadrature.integral.nodes",
    "capacity.grid_capacity.free_nodes",
    "capacity.grid_capacity.node_array_bytes",
    "io_formats.bytes",
)


def _points(args, kwargs, result):
    return {"points": int(np.asarray(result).size)}


def _quadrature_nodes(args, kwargs, result):
    # per reporting annulus: sub-bands x 2 sectors (split at the seams) x
    # radial x angular Gauss nodes; see cuspmap.quadrature
    scheme = args[1] if len(args) > 1 else kwargs["scheme"]
    return {"nodes": (len(scheme.log2_eps) - 1) * scheme.annuli_per_step * 2
            * scheme.radial_nodes * scheme.angular_nodes}


def _grid_sizes(args, kwargs, result):
    """Free nodes, and bytes of one float64 array over all grid nodes (the
    size of each vector the solver iterates on)."""
    F, E, dom = (np.asarray(a, bool) for a in args[1:4])
    return {"free_nodes": int(np.count_nonzero(dom & ~F & ~E)), "node_array_bytes": 8 * F.size}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode())}


# (module whose namespace is patched, attribute, span name, size function)
WRAP_POINTS = (
    ("cuspmap.maps", "evaluate", "profile.evaluate", None),
    ("cuspmap.distortion", "evaluate", "profile.evaluate", None),
    ("cuspmap.verify", "evaluate", "profile.evaluate", None),
    ("cuspmap.maps", "cusp_map", "maps.cusp_map", None),
    ("cuspmap.distortion", "cusp_map", "maps.cusp_map", None),
    ("cuspmap.verify", "apply_chain", "maps.apply_chain", None),
    ("cuspmap.cli", "apply_chain", "maps.apply_chain", None),
    ("cuspmap.verify", "apply_chain_inv", "maps.apply_chain_inv", None),
    ("cuspmap.cli", "apply_chain_inv", "maps.apply_chain_inv", None),
    ("cuspmap.verify", "cusp_jacobian", "distortion.cusp_jacobian", None),
    ("cuspmap.cli", "cusp_jacobian", "distortion.cusp_jacobian", None),
    ("cuspmap.verify", "cusp_jacobian_fd", "distortion.cusp_jacobian_fd", None),
    ("cuspmap.quadrature", "distortion_values", "distortion.distortion_values", _points),
    ("cuspmap.distortion", "distortion_values", "distortion.distortion_values", _points),
    ("cuspmap.capacity", "chain_distortion_values", "distortion.chain_distortion_values",
     _points),
    ("cuspmap.verify", "distortion_power_integral", "quadrature.integral", _quadrature_nodes),
    ("cuspmap.verify", "distortion_exp_integral", "quadrature.integral", _quadrature_nodes),
    ("cuspmap.cli", "distortion_power_integral", "quadrature.integral", _quadrature_nodes),
    ("cuspmap.cli", "distortion_exp_integral", "quadrature.integral", _quadrature_nodes),
    ("cuspmap.capacity", "cusp_test_energy", "capacity.cusp_test_energy", None),
    ("cuspmap.capacity", "grid_capacity", "capacity.grid_capacity", _grid_sizes),
    ("cuspmap.capacity", "preimage_arc", "domains.preimage_arc", None),
    ("cuspmap.verify", "halton", "verify.halton", None),
    ("cuspmap.verify", "csv_text", "io_formats", _text_bytes),
    ("cuspmap.verify", "json_text", "io_formats", _text_bytes),
    ("cuspmap.cli", "csv_text", "io_formats", _text_bytes),
    ("cuspmap.cli", "json_text", "io_formats", _text_bytes),
)

# Spans opened by the benchmark itself around its calls into cuspmap.
ROOT = "bench.pass"
CRITERIA = (1, 2, 3, 4, 5, 6, 9)


class Tracer:
    """Records nested spans as [name, start_ns, end_ns, parent index, sizes].

    `sizes` is None or a dict of computed counters for the call.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.missing = []

    def _open(self, name):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, fn, name, size_of):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if size_of is not None:
                rec[4] = size_of(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every wrap point; a point the program no longer has is listed
        in `missing` and its metrics read 0."""
        self.missing = []
        for module, attr, name, size_of in WRAP_POINTS:
            mod = importlib.import_module(module)
            if not callable(getattr(mod, attr, None)):
                self.missing.append(f"{module}.{attr}")
                continue
            original = getattr(mod, attr)
            setattr(mod, attr, self._wrap(original, name, size_of))
            self._patched.append((mod, attr, original))

    def uninstall(self):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def clear(self):
        self.spans = []


def _per_name(spans):
    """name -> calls, inclusive ns, self ns, summed counters, and durations."""
    durations = [s[2] - s[1] for s in spans]
    child = [0] * len(spans)
    for s, d in zip(spans, durations):
        if s[3] >= 0:
            child[s[3]] += d
    agg = {}
    for s, d, c in zip(spans, durations, child):
        a = agg.setdefault(s[0], _empty())
        a["calls"] += 1
        a["ns"] += d
        a["self_ns"] += d - c
        a["durations"].append(d)
        for k, v in (s[4] or {}).items():
            a[k] = a.get(k, 0) + v
    return agg


def _empty():
    return {"calls": 0, "ns": 0, "self_ns": 0, "durations": []}


def _percentile_us(durations, q):
    """Nearest-rank percentile in microseconds; 0 without samples."""
    if not durations:
        return 0.0
    ranked = sorted(durations)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)] / 1e3


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans, wall_ns: int) -> dict:
    """Per-layer metrics of one traced pass; a layer the pass never enters reads 0."""
    agg = _per_name(spans)

    def get(name):
        return agg.get(name, _empty())

    ev, cm = get("profile.evaluate"), get("maps.cusp_map")
    ac, aci = get("maps.apply_chain"), get("maps.apply_chain_inv")
    cj, cjfd = get("distortion.cusp_jacobian"), get("distortion.cusp_jacobian_fd")
    dv, cdv = get("distortion.distortion_values"), get("distortion.chain_distortion_values")
    qi, cte = get("quadrature.integral"), get("capacity.cusp_test_energy")
    io, gc = get("io_formats"), get("capacity.grid_capacity")
    tip, arc = get("capacity.tip_capacity_experiment"), get("domains.preimage_arc")
    root = get(ROOT)
    m = {
        "profile.evaluate.calls": ev["calls"],
        "profile.evaluate.us_per_call": _ratio(ev["ns"], ev["calls"], 1e-3),
        "maps.apply_chain.us_p50": _percentile_us(ac["durations"], 0.50),
        "maps.apply_chain.us_p99": _percentile_us(ac["durations"], 0.99),
        "maps.apply_chain.samples": ac["calls"],
        "maps.apply_chain_inv.us_p50": _percentile_us(aci["durations"], 0.50),
        "maps.apply_chain_inv.us_p99": _percentile_us(aci["durations"], 0.99),
        "maps.apply_chain_inv.samples": aci["calls"],
        "maps.cusp_map.calls": cm["calls"],
        "distortion.cusp_jacobian.us_per_call": _ratio(cj["ns"], cj["calls"], 1e-3),
        "distortion.cusp_jacobian_fd.us_per_call": _ratio(cjfd["ns"], cjfd["calls"], 1e-3),
        "distortion.distortion_values.points": dv.get("points", 0),
        "distortion.distortion_values.ns_per_point": _ratio(dv["ns"], dv.get("points", 0)),
        "quadrature.integral.calls": qi["calls"],
        "quadrature.integral.nodes": qi.get("nodes", 0),
        "quadrature.integral.self_ms": qi["self_ns"] / 1e6,
        "quadrature.integral.ns_per_node": _ratio(qi["ns"], qi.get("nodes", 0)),
        "capacity.cusp_test_energy.ms_per_call": _ratio(cte["ns"], cte["calls"], 1e-6),
        "verify.halton.ms": get("verify.halton")["ns"] / 1e6,
        "io_formats.bytes": io.get("bytes", 0),
        "io_formats.ms": io["ns"] / 1e6,
        "cli.main.self_ms": get("cli.main")["self_ns"] / 1e6,
        "capacity.grid_capacity.calls": gc["calls"],
        "capacity.grid_capacity.s_per_call": _ratio(gc["ns"], gc["calls"], 1e-9),
        "capacity.grid_capacity.free_nodes": gc.get("free_nodes", 0),
        "capacity.grid_capacity.ns_per_free_node": _ratio(gc["ns"], gc.get("free_nodes", 0)),
        "capacity.grid_capacity.node_array_bytes": _ratio(gc.get("node_array_bytes", 0),
                                                          gc["calls"]),
        "capacity.tip_capacity_experiment.self_s": tip["self_ns"] / 1e9,
        "domains.preimage_arc.calls": arc["calls"],
        "domains.preimage_arc.ms_per_call": _ratio(arc["ns"], arc["calls"], 1e-6),
        "distortion.chain_distortion_values.points": cdv.get("points", 0),
        "distortion.chain_distortion_values.ns_per_point": _ratio(cdv["ns"],
                                                                  cdv.get("points", 0)),
        "bench.self_s": root["self_ns"] / 1e9,
        "trace.wall_s": wall_ns / 1e9,
        "trace.accounted_share": _ratio(sum(a["self_ns"] for a in agg.values()), wall_ns),
    }
    for i in CRITERIA:
        m[f"verify.criterion_{i:02d}.self_s"] = get(f"verify.criterion_{i:02d}")["self_ns"] / 1e9
    return m
