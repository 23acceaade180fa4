"""Annular quadrature of distortion fields and integrability classification.

Integration happens in the squeeze's source polar plane around the singular
point, where the distortion is an exact closed form of (log r, theta). Annuli
refine dyadically toward the singularity; each annulus is integrated by
tensor Gauss-Legendre in (log r, theta), splitting the angular range at the
sector seams where the integrand kinks.

exp(lambda*K) reaches astronomical values long before the interesting regime,
so those integrals accumulate in log space (per-annulus log-sum-exp of node
contributions, max-shift combination across annuli). Schemes address annuli
by log2 of the inner radius and may descend far below the double-precision
radius floor: the integrand needs only log r.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, InsufficientData, NodeError
from .maps import _SECTORS, MapChain
from .distortion import distortion_values

__all__ = [
    "Verdict",
    "AnnularScheme",
    "IntegrabilityReport",
    "distortion_power_integral",
    "distortion_exp_integral",
    "distortion_power_integrals",
    "distortion_exp_integrals",
]

_LOG2 = math.log(2.0)
# Quadrature nodes per log-field call. A call holds about 80 bytes per node
# in temporaries, so this bounds a report's memory for deep dyadic schemes;
# the schemes of the verify suite and the README fit into one call.
_NODES_PER_CALL = 1 << 16


@functools.lru_cache(maxsize=8)
def gauss_legendre(n: int):
    """Gauss-Legendre (nodes, weights) of n points on [-1, 1], computed once per n.

    Every caller shares the arrays, so they are read-only.
    """
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


class Verdict(Enum):
    CONVERGENT = "convergent"
    DIVERGENT = "divergent"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class AnnularScheme:
    """Dyadic-style refinement toward the singular point.

    log2_eps lists the inner radii of the partial integrals as log2 values,
    strictly decreasing; each consecutive pair is one reporting annulus,
    subdivided into `annuli_per_step` equal log-width bands for quadrature.
    `dyadic` and `geometric` give the default node counts;
    `dataclasses.replace` sets others.
    """

    log2_eps: tuple
    annuli_per_step: int = 1
    radial_nodes: int = 8
    angular_nodes: int = 16

    def __post_init__(self):
        object.__setattr__(self, "log2_eps", tuple(float(v) for v in self.log2_eps))
        if len(self.log2_eps) < 2 or np.any(np.diff(self.log2_eps) >= 0.0):
            raise DomainError("log2_eps must be strictly decreasing with >= 2 entries")
        if self.log2_eps[0] > 0.0:
            raise DomainError("the outermost radius must be <= 1")
        if self.annuli_per_step < 1 or self.radial_nodes < 2 or self.angular_nodes < 2:
            raise DomainError("node and subdivision counts must be >= 2 (subdivision >= 1)")

    @classmethod
    def dyadic(cls, depth: int = 64) -> "AnnularScheme":
        """Octave-by-octave refinement: eps = 2^-1, ..., 2^-depth."""
        return cls(tuple(float(-k) for k in range(0, depth + 1)))

    @classmethod
    def geometric(cls, max_depth: float, steps: int = 48) -> "AnnularScheme":
        """Geometrically deepening exponents: reaches 2^-max_depth in `steps`.

        The deepest log-radius, -max_depth ln 2, may not pass -1e300, where
        `distortion_values` stops being finite.
        """
        if not (1.0 < max_depth and max_depth * math.log(2.0) <= 1e300):
            raise DomainError(
                f"geometric depth must be above 1 with depth * ln 2 <= 1e300, got {max_depth}")
        ks = -np.geomspace(1.0, max_depth, steps)
        return cls((0.0,) + tuple(ks))


def _annulus_nodes(u_in, u_out, bands, radial, angular):
    """Gauss nodes and log weights of int f * r dr dtheta over annuli.

    Substituting r = e^u turns the area element into e^{2u} du dtheta.
    `u_in` and `u_out` are arrays of the annuli's log-radii; `radial` and
    `angular` are Gauss-Legendre (nodes, weights) on [-1, 1]. Returns
    (us, ts, lwu, lwt), which broadcast over the axes (annulus, band,
    sector, radial, angular): the log of a node's term of
    int exp(log_f) * r dr dtheta is log_f(us, ts) + 2 us + lwu + lwt.
    """
    (xu, wu), (xt, wt) = radial, angular
    edges = np.linspace(u_in, u_out, bands + 1, axis=-1)
    lo, hi = edges[:, :-1, None], edges[:, 1:, None]
    us = (0.5 * (hi - lo) * (xu + 1.0) + lo)[:, :, None, :, None]
    lwu = np.log(0.5 * (hi - lo) * wu)[:, :, None, :, None]
    a, b = np.array(_SECTORS).T[:, :, None]
    ts = (0.5 * (b - a) * (xt + 1.0) + a)[:, None, :]
    lwt = np.log(0.5 * (b - a) * wt)[:, None, :]
    return us, ts, lwu, lwt


def _logsumexp(values: np.ndarray) -> list:
    """logsumexp of each row, as floats."""
    m = np.max(values, axis=1)
    finite = np.isfinite(m)
    with np.errstate(over="ignore"):
        sums = np.sum(np.exp(values - np.where(finite, m, 0.0)[:, None]), axis=1)
    return [mi + math.log(si) if ok else mi
            for mi, si, ok in zip(m.tolist(), sums.tolist(), finite.tolist())]


@dataclass(frozen=True)
class IntegrabilityReport:
    """Partial integrals toward the singularity with a growth verdict.

    partials: (eps, I(eps)) pairs, eps decreasing; I nondecreasing. For
    exp-integrals the linear values may overflow to inf; log_partials always
    carries the exact log values. ratio_stats are the successive-increment
    ratios feeding the classifier.
    """

    kind: str
    parameter: float
    partials: tuple
    log_partials: tuple
    ratio_stats: tuple
    verdict: Verdict


def _report(kind, parameter, scheme, log_increments) -> IntegrabilityReport:
    log_partials = []
    acc = -math.inf
    for li in log_increments:
        acc = li if acc == -math.inf else max(acc, li) + math.log1p(math.exp(-abs(acc - li)))
        log_partials.append(acc)
    with np.errstate(over="ignore", under="ignore"):
        partials = tuple(
            (float(2.0 ** scheme.log2_eps[i + 1]), float(np.exp(lp)))
            for i, lp in enumerate(log_partials)
        )
    ratios = _increment_ratios(log_increments)
    return IntegrabilityReport(
        kind=kind,
        parameter=parameter,
        partials=partials,
        log_partials=tuple(log_partials),
        ratio_stats=ratios,
        verdict=_verdict_from_ratios(ratios, len(log_partials)),
    )


def _increment_ratios(log_increments) -> tuple:
    out = []
    for prev, cur in zip(log_increments[:-1], log_increments[1:]):
        if cur == -math.inf:  # increment vanished (possibly below one ulp)
            out.append(0.0)
        elif prev == -math.inf:
            out.append(math.inf)
        else:
            d = cur - prev
            out.append(math.inf if d > 700.0 else math.exp(d))
    return tuple(out)


def _verdict_from_ratios(ratios, n_partials) -> Verdict:
    if n_partials < 6:
        raise InsufficientData(f"classifier needs >= 6 partials, got {n_partials}")
    tail = ratios[-3:]
    if all(r <= 0.9 for r in tail):
        return Verdict.CONVERGENT
    if all(r >= 1.1 for r in tail):
        return Verdict.DIVERGENT
    return Verdict.INCONCLUSIVE


def _chain_log_field(chain: MapChain):
    """log K(u, theta) with u = log r; identically 0 without the squeeze."""
    if not chain.has_cusp():
        return lambda u, t: np.zeros(np.broadcast_shapes(np.shape(u), np.shape(t)))
    params = chain.params
    return lambda u, t: np.log(distortion_values(u, t, params))


def _integral_reports(kind, parameters, transform, scheme, chain) -> list:
    """One report per parameter, of the log integrand transform(parameter, log K).

    log K is evaluated once per chunk of annuli and shared by every parameter,
    so each report equals the one of a call with that parameter alone.
    """
    log_k = _chain_log_field(chain)
    radial = gauss_legendre(scheme.radial_nodes)
    angular = gauss_legendre(scheme.angular_nodes)
    u = np.array(scheme.log2_eps) * _LOG2
    u_out, u_in = u[:-1], u[1:]
    nodes = scheme.annuli_per_step * len(_SECTORS) * scheme.radial_nodes * scheme.angular_nodes
    step = max(1, _NODES_PER_CALL // nodes)  # annuli per call
    log_increments = [[] for _ in parameters]
    for i in range(0, len(u_in), step):
        us, ts, lwu, lwt = _annulus_nodes(u_in[i:i + step], u_out[i:i + step],
                                          scheme.annuli_per_step, radial, angular)
        lk = log_k(us, ts)
        for parameter, increments in zip(parameters, log_increments):
            # one row of node terms per annulus; the annulus value is its logsumexp
            with np.errstate(over="ignore"):  # an overflow is reported below
                contribs = (transform(parameter, lk) + 2.0 * us + lwu + lwt).reshape(len(us), -1)
            if not np.isfinite(contribs).all():
                raise NodeError("non-finite integrand at a quadrature node")
            increments += _logsumexp(contribs)
    return [_report(kind, parameter, scheme, increments)
            for parameter, increments in zip(parameters, log_increments)]


def _check_parameter(name: str, value: float) -> None:
    if not (0.0 < value < math.inf):
        raise DomainError(f"{name} must be positive and finite, got {value}")


def distortion_power_integrals(ps, scheme: AnnularScheme, chain: MapChain) -> list:
    """Partial integrals of K^p over shrinking annuli at the singular point,
    one report per exponent in the sequence ps."""
    for p in ps:
        _check_parameter("exponent", p)
    return _integral_reports("K^p", ps, lambda p, lk: p * lk, scheme, chain)


def distortion_exp_integrals(lams, scheme: AnnularScheme, chain: MapChain) -> list:
    """Partial integrals of exp(lambda K), accumulated in log space, one
    report per lambda in the sequence lams."""
    for lam in lams:
        _check_parameter("lambda", lam)
    return _integral_reports("exp(lambda K)", lams, lambda lam, lk: lam * np.exp(lk),
                             scheme, chain)


def distortion_power_integral(p: float, scheme: AnnularScheme, chain: MapChain) -> IntegrabilityReport:
    """Partial integrals of K^p over shrinking annuli at the singular point."""
    return distortion_power_integrals([p], scheme, chain)[0]


def distortion_exp_integral(lam: float, scheme: AnnularScheme, chain: MapChain) -> IntegrabilityReport:
    """Partial integrals of exp(lambda K), accumulated in log space."""
    return distortion_exp_integrals([lam], scheme, chain)[0]
