"""Annular quadrature and the integrability dichotomy."""

import dataclasses
import math

import numpy as np
import pytest

from cuspmap import (
    AnnularScheme,
    DomainError,
    InsufficientData,
    MapChain,
    MapStage,
    NodeError,
    ProfileParams,
    Verdict,
    distortion_exp_integral,
    distortion_power_integral,
)
from cuspmap import quadrature
from cuspmap.distortion import distortion_values
from cuspmap.quadrature import (
    _annulus_nodes,
    _integral_reports,
    _logsumexp,
    _report,
    distortion_exp_integrals,
    distortion_power_integrals,
)

CHAIN = MapChain.default()
CONFORMAL = MapChain(ProfileParams(), (MapStage.DISK_TO_HALFPLANE,))


def annulus_integral(log_field, r_in, r_out, radial_nodes, angular_nodes):
    """Area integral of exp(log_field(log r, theta)) over an annulus, log-space path."""
    us, ts, lwu, lwt = _annulus_nodes(
        np.array([math.log(r_in)]), np.array([math.log(r_out)]), 1,
        np.polynomial.legendre.leggauss(radial_nodes),
        np.polynomial.legendre.leggauss(angular_nodes),
    )
    contribs = (log_field(us, ts) + 2.0 * us + lwu + lwt).reshape(1, -1)
    return math.exp(_logsumexp(contribs)[0])


def per_annulus_report(kind, parameter, transform, scheme):
    """Reference report of CHAIN: one log-field call per annulus, band and
    sector, node terms in that order, one log-sum-exp per annulus."""
    half_pi = math.pi / 2.0
    xu, wu = np.polynomial.legendre.leggauss(scheme.radial_nodes)
    xt, wt = np.polynomial.legendre.leggauss(scheme.angular_nodes)
    log_increments = []
    for k0, k1 in zip(scheme.log2_eps[:-1], scheme.log2_eps[1:]):
        edges = np.linspace(k1 * math.log(2.0), k0 * math.log(2.0), scheme.annuli_per_step + 1)
        pieces = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            us = 0.5 * (hi - lo) * (xu + 1.0) + lo
            lwu = np.log(0.5 * (hi - lo) * wu)
            for a, b in ((-half_pi, half_pi), (half_pi, 3.0 * half_pi)):
                ts = 0.5 * (b - a) * (xt + 1.0) + a
                lwt = np.log(0.5 * (b - a) * wt)
                lf = transform(np.log(distortion_values(us[:, None], ts[None, :], CHAIN.params)))
                pieces.append((lf + 2.0 * us[:, None] + lwu[:, None] + lwt[None, :]).ravel())
        values = np.concatenate(pieces)
        m = float(np.max(values))
        log_increments.append(m + math.log(float(np.sum(np.exp(values - m)))))
    return _report(kind, parameter, scheme, log_increments)


def classify(increments):
    """Verdict of the report built from linear increments of partial integrals."""
    log_inc = [math.log(v) if v > 0.0 else -math.inf for v in increments]
    scheme = AnnularScheme.dyadic(len(increments))
    return _report("test", 1.0, scheme, log_inc).verdict


def zero(u, t):
    return np.zeros(np.broadcast_shapes(np.shape(u), np.shape(t)))


def test_annulus_area():
    value = annulus_integral(zero, 0.5, 1.0, 24, 8)
    assert value == pytest.approx(3.0 * math.pi / 4.0, abs=1e-12)


def test_annulus_reciprocal_field():
    value = annulus_integral(lambda u, t: -u + zero(u, t), 0.2, 0.7, 24, 8)
    assert value == pytest.approx(2.0 * math.pi * 0.5, abs=1e-10)


def test_annulus_inverse_square_field():
    value = annulus_integral(lambda u, t: -2.0 * u + zero(u, t), 0.2, 0.7, 24, 8)
    assert value == pytest.approx(2.0 * math.pi * math.log(0.7 / 0.2), abs=1e-10)


def test_annulus_guards():
    # inner radius above the outer one
    with pytest.raises(DomainError):
        AnnularScheme((-1.0, 0.0))
    # a NaN integrand at a node
    with pytest.raises(NodeError):
        _integral_reports("K^p", [1.0], lambda p, lk: lk * math.nan, AnnularScheme.dyadic(6),
                          CHAIN)


def test_node_doubling_stability():
    log_k = lambda u, t: np.log(distortion_values(u, t, CHAIN.params))
    base = annulus_integral(log_k, 2.0**-6, 2.0**-5, 8, 16)
    fine = annulus_integral(log_k, 2.0**-6, 2.0**-5, 16, 32)
    assert abs(fine - base) / fine < 1e-3


@pytest.mark.parametrize("scheme", [
    AnnularScheme.dyadic(64),
    AnnularScheme.geometric(65536),
    dataclasses.replace(AnnularScheme.dyadic(64), annuli_per_step=2),
], ids=["dyadic64", "geometric65536", "dyadic64-2bands"])
@pytest.mark.parametrize("integral,kind,parameter,transform", [
    (distortion_power_integral, "K^p", 2.0, lambda lk: 2.0 * lk),
    (distortion_exp_integral, "exp(lambda K)", 0.1, lambda lk: 0.1 * np.exp(lk)),
], ids=["kpow", "explambda"])
def test_batched_report_equals_the_per_annulus_loop(scheme, integral, kind, parameter, transform):
    assert integral(parameter, scheme, CHAIN) == per_annulus_report(kind, parameter, transform,
                                                                     scheme)


@pytest.mark.parametrize("nodes_per_call", [600, 100])
def test_batched_report_split_over_several_calls(nodes_per_call, monkeypatch):
    # two annuli of 256 nodes per call, then one annulus per call
    monkeypatch.setattr(quadrature, "_NODES_PER_CALL", nodes_per_call)
    scheme = AnnularScheme.dyadic(64)
    assert distortion_power_integral(2.0, scheme, CHAIN) == per_annulus_report(
        "K^p", 2.0, lambda lk: 2.0 * lk, scheme)


@pytest.mark.parametrize("integrals,integral,parameters", [
    (distortion_power_integrals, distortion_power_integral, (0.5, 1.0, 2.0, 4.0, 8.0)),
    (distortion_exp_integrals, distortion_exp_integral, (0.01, 0.1, 1.0)),
], ids=["kpow", "explambda"])
def test_one_k_field_gives_the_reports_of_the_one_parameter_calls(integrals, integral,
                                                                  parameters):
    # criteria 4 and 5: all parameters share one evaluation of K per chunk
    scheme = AnnularScheme.dyadic(64)
    assert integrals(parameters, scheme, CHAIN) == [integral(v, scheme, CHAIN)
                                                    for v in parameters]


def test_one_k_field_per_chunk(monkeypatch):
    calls = []

    def counted(u, t, params):
        calls.append(np.broadcast_shapes(np.shape(u), np.shape(t)))
        return distortion_values(u, t, params)

    monkeypatch.setattr(quadrature, "distortion_values", counted)
    reports = distortion_power_integrals((0.5, 1.0, 2.0), AnnularScheme.dyadic(64), CHAIN)
    assert len(reports) == 3 and len(calls) == 1


def test_scheme_validation():
    with pytest.raises(DomainError):
        AnnularScheme((0.0, 0.0))
    with pytest.raises(DomainError):
        AnnularScheme((1.0, -1.0))
    with pytest.raises(DomainError):
        AnnularScheme((0.0, -1.0), radial_nodes=1)
    sch = AnnularScheme.dyadic(8)
    assert sch.log2_eps[0] == 0.0 and sch.log2_eps[-1] == -8.0


def test_classify_examples():
    # convergent when the last three increments each shrink by factor <= 0.9,
    # divergent when each grows by factor >= 1.1, inconclusive otherwise
    assert classify([1.0, 0.1, 0.01, 0.001, 1e-4, 1e-5]) is Verdict.CONVERGENT
    assert classify([1.0, 2.0, 4.0, 8.0, 16.0, 32.0]) is Verdict.DIVERGENT
    assert classify([1.0] * 7) is Verdict.INCONCLUSIVE
    assert classify([1.0, 1.0, 1.0, 1.0, 0.95, 0.9]) is Verdict.INCONCLUSIVE
    # an increment below one ulp counts as shrinking, a first nonzero one as growing
    assert classify([1.0, 0.5, 0.25, 0.0, 0.0, 0.0]) is Verdict.CONVERGENT
    assert classify([0.0, 0.0, 0.0, 1.0, 2.0, 4.0]) is Verdict.DIVERGENT
    with pytest.raises(InsufficientData):
        classify([1.0, 1.0])


def test_classify_log_domain():
    # the report accumulates log increments into log partials without overflow
    logs = [float(v) for v in np.log(np.cumsum([1.0, 2.0, 4.0, 8.0, 16.0, 32.0]))]
    rep = _report("test", 1.0, AnnularScheme.dyadic(6), [float(v) for v in np.log(
        [1.0, 2.0, 4.0, 8.0, 16.0, 32.0])])
    assert rep.verdict is Verdict.DIVERGENT
    assert rep.log_partials == pytest.approx(logs, rel=1e-15)
    huge = _report("test", 1.0, AnnularScheme.dyadic(6), [1e3 * k for k in range(1, 7)])
    assert huge.verdict is Verdict.DIVERGENT
    assert huge.partials[-1][1] == math.inf and huge.log_partials[-1] == pytest.approx(6e3)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_power_integrals_converge(p):
    rep = distortion_power_integral(p, AnnularScheme.dyadic(64), CHAIN)
    assert rep.verdict is Verdict.CONVERGENT
    assert rep.ratio_stats[-1] <= 0.9
    values = [v for _, v in rep.partials]
    assert all(b >= a for a, b in zip(values[:-1], values[1:]))
    # the verdict agrees with the one of the report's linear partials
    assert classify(np.diff([0.0] + values)) is Verdict.CONVERGENT


def test_exp_integral_divergent_at_unit_lambda():
    rep = distortion_exp_integral(1.0, AnnularScheme.dyadic(64), CHAIN)
    assert rep.verdict is Verdict.DIVERGENT
    assert all(b > a for a, b in zip(rep.log_partials[:-1], rep.log_partials[1:]))
    assert all(r >= 1.1 for r in rep.ratio_stats[-3:])


@pytest.mark.parametrize("lam", [0.01, 0.1])
def test_exp_integral_small_lambda_needs_deeper_radii(lam):
    # at 2^-64 the increments of these integrals still shrink: the growth
    # regime starts only near 2^-23000 (lam = 0.1) and 2^-10^46 (lam = 0.01)
    rep = distortion_exp_integral(lam, AnnularScheme.dyadic(64), CHAIN)
    assert rep.verdict is Verdict.CONVERGENT
    assert all(r < 1.0 for r in rep.ratio_stats[-3:])


def test_exp_integral_divergence_in_deep_log_schemes():
    deep = AnnularScheme.geometric(2.0**16, steps=40)
    assert distortion_exp_integral(0.1, deep, CHAIN).verdict is Verdict.DIVERGENT
    deeper = AnnularScheme.geometric(1e47, steps=40)
    assert distortion_exp_integral(0.01, deeper, CHAIN).verdict is Verdict.DIVERGENT
    # and the unit-lambda case stays divergent arbitrarily deep
    assert distortion_exp_integral(1.0, deep, CHAIN).verdict is Verdict.DIVERGENT


def test_geometric_depth_stops_where_distortion_values_stay_finite():
    # the deepest log-radius -depth ln 2 may reach -1e300, not beyond
    deepest = AnnularScheme.geometric(1e300 / math.log(2.0), steps=6)
    assert deepest.log2_eps[-1] * math.log(2.0) >= -1e300
    rep = distortion_power_integral(1.0, deepest, CHAIN)
    assert all(math.isfinite(v) for v in rep.log_partials)
    for depth in (1e308, 2e300):
        with pytest.raises(DomainError, match="depth"):
            AnnularScheme.geometric(depth)


def test_conformal_chain_power_integral_gives_disk_area():
    rep = distortion_power_integral(2.0, AnnularScheme.dyadic(12), CONFORMAL)
    assert rep.verdict is Verdict.CONVERGENT
    assert rep.partials[-1][1] == pytest.approx(math.pi * (1.0 - 4.0**-12), rel=1e-12)


def test_conformal_chain_exp_integral_converges_to_e_pi():
    rep = distortion_exp_integral(1.0, AnnularScheme.dyadic(12), CONFORMAL)
    assert rep.verdict is Verdict.CONVERGENT
    assert rep.partials[-1][1] == pytest.approx(math.e * math.pi * (1.0 - 4.0**-12), rel=1e-12)


def test_refinement_stability_of_partials():
    base = distortion_power_integral(2.0, AnnularScheme.dyadic(16), CHAIN)
    fine = distortion_power_integral(
        2.0, dataclasses.replace(AnnularScheme.dyadic(16), annuli_per_step=2, radial_nodes=16,
                                 angular_nodes=32),
        CHAIN)
    for (_, a), (_, b) in zip(base.partials, fine.partials):
        assert abs(a - b) / b < 5e-3


def test_parameter_guards():
    with pytest.raises(DomainError):
        distortion_power_integral(0.0, AnnularScheme.dyadic(8), CHAIN)
    with pytest.raises(DomainError):
        distortion_exp_integral(-1.0, AnnularScheme.dyadic(8), CHAIN)
    with pytest.raises(DomainError):
        distortion_power_integrals((1.0, math.inf), AnnularScheme.dyadic(8), CHAIN)
    with pytest.raises(DomainError):
        distortion_exp_integrals((0.1, math.nan), AnnularScheme.dyadic(8), CHAIN)


def test_gauss_legendre_rules_are_computed_once_and_read_only():
    rule = quadrature.gauss_legendre(16)
    assert quadrature.gauss_legendre(16) is rule
    for cached, fresh in zip(rule, np.polynomial.legendre.leggauss(16)):
        assert np.array_equal(cached, fresh)
        with pytest.raises(ValueError):
            cached[0] = 0.0
