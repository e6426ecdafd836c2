"""Measure-level machinery: tilted-power sides, tail integrals, fixed
product rules, bias variables, tilted first moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import expon, laplace, uniform

from levy_stein import (AtomicMeasure, BiasVariable, Gamma, InverseGaussian,
                        Laplace, LevyMeasure, NonConvergence, Poisson,
                        QuadratureConfig, TailIntegral, TiltedPowerSide,
                        bias_density, cumulant, esscher_closed, eta, eta_rule,
                        integrate_levy, nu_rule, tilted_first_moment_delta)
from levy_stein.dist_catalog import BGD, CGMY

from conftest import rel_err
from test_dist_catalog import ALL_SPECS

QCFG = QuadratureConfig()


# -- TiltedPowerSide -------------------------------------------------------


@pytest.mark.parametrize("beta,rate,k", [
    (0.0, 1.0, 1), (0.0, 2.5, 2), (0.5, 2.0, 1), (0.5, 0.7, 3),
    (0.9, 1.0, 2), (-1.0, 3.0, 1), (-0.5, 1.5, 4),
])
def test_tps_moment_matches_quadrature(beta, rate, k):
    side = TiltedPowerSide(coef=1.3, beta=beta, rate=rate)
    got = side.moment(k)
    want, _ = integrate.quad(lambda u: u**k * side.density(u), 0, np.inf)
    assert rel_err(got, want) < 1e-10


@pytest.mark.parametrize("u", [0.1, 0.5, 2.0])
def test_tps_tail_matches_quadrature(u):
    side = TiltedPowerSide(coef=0.8, beta=0.5, rate=2.0)
    got = side.tail(1, u)
    want, _ = integrate.quad(lambda v: v * side.density(v), u, np.inf)
    assert rel_err(got, want) < 1e-10
    assert abs(side.partial_moment(1, u) + got - side.moment(1)) < 1e-12


@given(beta=st.floats(-1.5, 0.95), rate=st.floats(0.2, 5.0))
@settings(max_examples=60, deadline=None)
def test_tps_tail_monotone_and_positive(beta, rate):
    side = TiltedPowerSide(coef=1.0, beta=beta, rate=rate)
    us = np.array([0.05, 0.2, 0.8, 2.0, 5.0])
    tails = np.array([side.tail(2, u) for u in us])
    assert np.all(tails >= 0)
    assert np.all(np.diff(tails) <= 1e-12)


def test_tps_tilted_moment():
    side = TiltedPowerSide(coef=1.0, beta=0.3, rate=2.0)
    got = side.tilted_moment(1, 0.7)
    # exponents combined by hand so the reference integrand cannot overflow
    want, _ = integrate.quad(
        lambda u: u**(-0.3) * math.exp(-1.3 * u), 0, np.inf)
    assert rel_err(got, want) < 1e-10


# -- LevyMeasure / tail integrals ------------------------------------------


def test_measure_moment_closed_vs_quad():
    # every catalog measure: both signs of the negative side's (-1)^k,
    # beta < 0 (gamma jumps), beta > 0 and atoms; the absolute floor admits
    # odd moments of symmetric measures, which are exactly 0
    for spec in ALL_SPECS:
        meas = spec.measure
        for k in range(2, 6):
            closed = meas.moment(k, QCFG, method="closed")
            quad = meas.moment(k, QCFG, method="quad")
            assert abs(closed - quad) <= 1e-9 * abs(quad) + 1e-12, \
                (spec, k, closed, quad)


def test_atomic_moment_and_eta():
    # mass 2 at u = 1, mass 3 at u = -0.5
    meas = LevyMeasure.atomic(((1.0, 2.0), (-0.5, 3.0)))
    assert meas.moment(2, QCFG) == pytest.approx(2.0 + 3.0 * 0.25, rel=1e-14)
    t1 = TailIntegral(meas, 1, QCFG)
    # open interval: eta+ vanishes at the atom itself
    assert t1.pos(1.0) == 0.0
    assert t1.pos(0.5) == pytest.approx(2.0)
    assert t1.neg(-0.5) == 0.0
    # eta_1^-(u) = -int_{-inf}^u y nu(dy) = -(-0.5*3) = 1.5 for u > -0.5
    assert t1.neg(-0.25) == pytest.approx(1.5)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tail_integral_vs_quadrature(k):
    meas = BGD(2.0, 3.0, 1.0, 4.0).measure
    t = TailIntegral(meas, k, QCFG)
    for u in (0.1, 0.7, 2.0):
        want, _ = integrate.quad(lambda y: y**k * meas.density(y), u, np.inf)
        assert rel_err(t.pos(u), want) < 1e-8
        wantn, _ = integrate.quad(lambda y: y**k * meas.density(y),
                                  -np.inf, -u)
        assert rel_err(t.neg(-u), -wantn) < 1e-8


def test_eta_fubini_identity():
    """int g'(x+v) eta_m(v) dv == int u^m (g(x+u) - g(x)) nu(du)."""
    meas = Gamma(2.0, 1.5).measure
    x = 0.8
    for m in (1, 2):
        t = TailIntegral(meas, m, QCFG)
        lhs, _ = integrate.quad(
            lambda v: math.cos(x + v) * t.pos(v), 0, np.inf)
        rhs, _ = integrate.quad(
            lambda u: u**m * (math.sin(x + u) - math.sin(x))
            * meas.density(u), 0, np.inf)
        assert rel_err(lhs, rhs) < 1e-6


def test_integrate_levy_and_eta_helpers():
    meas = Laplace(0.0, 1.0).measure
    val = integrate_levy(meas, lambda u: u * u, cfg=QCFG)
    want, _ = integrate.quad(lambda u: u * u * meas.density(u), 0, np.inf)
    assert rel_err(val, 2 * want) < 1e-8  # symmetric measure
    assert eta(meas, 1, 0.5, QCFG) == pytest.approx(
        TailIntegral(meas, 1, QCFG)(0.5))


# -- cumulants --------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_poisson_cumulants_all_lambda(k):
    assert cumulant(Poisson(3.0), k, QCFG) == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_gamma_cumulants(k):
    a, b = 2.5, 1.5
    want = a * math.gamma(k) / b**k  # C_k = a (k-1)! / b^k
    assert cumulant(Gamma(a, b), k, QCFG) == pytest.approx(want, rel=1e-12)


# -- bias variables ----------------------------------------------------------


@pytest.mark.parametrize("base,k", [
    (Gamma(2.0, 1.5), 1), (Gamma(2.0, 1.5), 2),
    (InverseGaussian(1.5, 2.0), 1),
    (Poisson(2.0), 1), (Poisson(2.0), 3),
    (Laplace(0.0, 1.0), 1),
    (BGD(2.0, 3.0, 1.0, 4.0), 1),
])
def test_bias_density_normalizes(base, k):
    dens = BiasVariable(base.measure, k, QCFG).density
    f = lambda y: float(dens(np.asarray(y)))  # noqa: E731
    # split at 0: the density is defined on nonzero y
    pos, _ = integrate.quad(f, 0.0, 20.0, limit=200)
    neg, _ = integrate.quad(f, -20.0, 0.0, limit=200)
    assert abs(pos + neg - 1.0) < 1e-6


def test_bias_density_closed_identifications():
    b = 1.5
    dens = BiasVariable(Gamma(2.0, b).measure, 1, QCFG).density
    grid = np.linspace(0.01, 5.0, 50)
    assert np.max(np.abs(dens(grid) - expon(scale=1 / b).pdf(grid))) < 1e-10

    dens = BiasVariable(Poisson(2.0).measure, 2, QCFG).density
    assert np.max(np.abs(dens(grid[grid < 1]) - 1.0)) < 1e-12

    delta = 0.7
    dens = BiasVariable(Laplace(0.0, delta).measure, 1, QCFG).density
    grid = np.linspace(-3, 3, 61)
    grid = grid[grid != 0]  # density contract excludes y = 0
    assert np.max(np.abs(dens(grid) - laplace(scale=delta).pdf(grid))) < 1e-10
    # scalar helper agrees with the vectorized density
    assert bias_density(Laplace(0.0, delta).measure, 1, 0.4, QCFG) == \
        pytest.approx(laplace(scale=delta).pdf(0.4), rel=1e-10)


def test_bias_sampler_moments():
    rng = np.random.default_rng(7)
    bv = BiasVariable(Gamma(2.0, 1.5).measure, 1, QCFG)
    x = bv.sample(rng, 200_000)
    # Y_1 ~ Exp(b): mean 1/b, var 1/b^2
    assert abs(np.mean(x) - 1 / 1.5) < 5 * (1 / 1.5) / math.sqrt(len(x))
    bv = BiasVariable(Poisson(2.0).measure, 1, QCFG)
    u = bv.sample(rng, 200_000)
    assert 0 < u.min() and u.max() < 1
    assert abs(np.mean(u) - 0.5) < 5 * uniform().std() / math.sqrt(len(u))


def test_bias_variable_even_k_two_sided_rejected():
    from levy_stein import InvalidParams
    with pytest.raises(InvalidParams):
        BiasVariable(Laplace(0.0, 1.0).measure, 2, QCFG)


# -- fixed rules -------------------------------------------------------------


@pytest.mark.parametrize("meas,m", [
    (Gamma(2.0, 1.5).measure, 1),
    (CGMY(1.0, 0.5, 2.0, 3.0).measure, 1),
    (BGD(2.0, 3.0, 1.0, 4.0).measure, 2),
    (InverseGaussian(1.5, 2.0).measure, 1),
])
def test_nu_rule_matches_adaptive(meas, m):
    rule = nu_rule(meas, m, QCFG)
    for h in (np.cos, lambda u: 1.0 / (1.0 + u * u)):
        got = rule.integrate(h)
        pos, _ = integrate.quad(
            lambda u: h(u) * u**m * meas.density(u), 0, np.inf, limit=200) \
            if meas.has_pos else (0.0, 0.0)
        neg, _ = integrate.quad(
            lambda u: h(u) * u**m * meas.density(u), -np.inf, 0, limit=200) \
            if meas.has_neg else (0.0, 0.0)
        assert rel_err(got, pos + neg) < 1e-9


def test_nu_rule_m0_double_zero_integrand():
    # m = 0 is only meaningful against integrands with a double zero at 0
    meas = Gamma(2.0, 1.5).measure
    rule = nu_rule(meas, 0, QCFG)
    got = rule.integrate(lambda u: np.sin(u) ** 2)
    want, _ = integrate.quad(
        lambda u: math.sin(u) ** 2 * meas.density(u), 0, np.inf, limit=200)
    assert rel_err(got, want) < 1e-9


def test_nu_rule_tilt_stretches_tail():
    # Ga(2,2) measure: int u e^{1.5u} nu(du) = 2 int e^{-u/2} du = 4
    meas = Gamma(2.0, 2.0).measure
    rule = nu_rule(meas, 1, QCFG, tilt=1.5)
    got = rule.integrate(lambda u: np.exp(1.5 * u))
    assert rel_err(got, 4.0) < 1e-9


@pytest.mark.parametrize("m", [1, 2])
def test_eta_rule_matches_adaptive(m):
    meas = CGMY(1.0, 0.5, 2.0, 3.0).measure
    rule = eta_rule(meas, m, QCFG)
    t = TailIntegral(meas, m, QCFG)
    got = rule.integrate(np.cos)
    pos, _ = integrate.quad(lambda v: math.cos(v) * t.pos(v), 0, np.inf,
                            limit=200)
    neg, _ = integrate.quad(lambda v: math.cos(v) * t.neg(v), -np.inf, 0,
                            limit=200)
    assert rel_err(got, pos + neg) < 1e-8


@pytest.mark.parametrize("beta", [0.97, 0.99])
def test_nu_rule_rejects_non_finite_weights(beta):
    # near beta = 1 the origin substitution u = u_break * t^p (p >= 67)
    # leaves floating range; the rule must refuse rather than return NaN
    with pytest.raises(NonConvergence, match="beta="):
        nu_rule(CGMY(1.0, beta, 2.0, 3.0).measure, 1, QCFG)


def test_eta_rule_rejects_atomic():
    with pytest.raises(AtomicMeasure):
        eta_rule(Poisson(2.0).measure, 1, QCFG)


def test_shifted_sum_subtract():
    meas = Poisson(2.0).measure
    rule = nu_rule(meas, 1, QCFG)
    x = np.array([0.0, 1.0, 2.5])
    # int u (g(x+u) - g(x)) nu(du) with g = x^2, atom at 1 mass 2:
    # 2 * ((x+1)^2 - x^2) = 2 * (2x + 1)
    got = rule.shifted_sum(lambda y: y * y, x, subtract_at_x=True)
    assert np.allclose(got, 2.0 * (2 * x + 1), rtol=1e-13)


# -- tilted first moment -----------------------------------------------------


def _delta_reference(meas, kappa):
    """int u (e^{kappa u} - 1) nu(du) with exponents combined per side so
    the reference quadrature never overflows or loses the difference."""
    total = 0.0
    if meas.is_atomic:
        return sum(mass * loc * (math.exp(kappa * loc) - 1.0)
                   for loc, mass in meas.atoms)
    s = meas.pos_structure
    if s is not None:
        val, _ = integrate.quad(
            lambda u: s.coef * u**(-s.beta)
            * (math.exp((kappa - s.rate) * u) - math.exp(-s.rate * u)),
            0, np.inf, limit=200)
        total += val
    s = meas.neg_structure
    if s is not None:
        val, _ = integrate.quad(
            lambda v: s.coef * v**(-s.beta)
            * (math.exp(-(kappa + s.rate) * v) - math.exp(-s.rate * v)),
            0, np.inf, limit=200)
        total -= val
    return total


@pytest.mark.parametrize("base,kappa", [
    (Gamma(2.0, 1.5), 0.7), (BGD(2.0, 3.0, 1.0, 4.0), 1.2),
    (CGMY(1.0, 0.5, 2.0, 3.0), 0.9), (Poisson(2.0), 0.4),
])
def test_tilted_first_moment_delta(base, kappa):
    meas = base.measure
    delta = tilted_first_moment_delta(meas, kappa, QCFG)
    want = _delta_reference(meas, kappa)
    assert rel_err(delta, want) < 1e-9
    assert esscher_closed(base, kappa, QCFG).method == "closed_form"
