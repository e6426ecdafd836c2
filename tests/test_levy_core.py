"""Measure-level machinery: tilted-power sides, tail integrals, fixed
product rules, bias variables, tilted first moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import expon, laplace, uniform

from levy_stein import (GTSD, AtomicJumps, AtomicMeasure, BiasVariable,
                        CompoundPoisson, DivergentMoment, Gamma, GammaJumps,
                        InvalidParams, InverseGaussian, Laplace, LevyMeasure,
                        NonConvergence, Poisson, QuadratureConfig,
                        TailIntegral, TiltedPowerSide, bias_density, cumulant,
                        esscher_closed, eta, eta_rule, integrate_levy,
                        nu_rule, tilted_first_moment_delta)
from levy_stein.dist_catalog import BGD, CGMY
from levy_stein.functions import SIN, SQUARE, make_shift
from levy_stein.levy_core import closed_inner, closed_sq_diff, exp_moment

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


# -- closed inner integrals --------------------------------------------------


def _tilted(shape, beta, lam):
    """A CGMY-shaped (equal coefficients) or GTSD-shaped (unequal) measure;
    built from sides directly so that beta < 0 is allowed too."""
    neg_coef = 1.0 if shape == "cgmy" else 0.5
    return LevyMeasure.from_tilted(TiltedPowerSide(1.0, beta, lam),
                                   TiltedPowerSide(neg_coef, beta, 1.5 * lam))


def _sin_diff(x, u):
    # sin(x + u) - sin(x) without the cancellation at small u
    return 2.0 * math.cos(x + 0.5 * u) * math.sin(0.5 * u)


@pytest.mark.parametrize("shape", ["cgmy", "gtsd"])
@pytest.mark.parametrize("beta", [-1.5, 0.0, 0.5, 0.9])
@pytest.mark.parametrize("lam", [0.05, 0.5, 2.0])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_closed_inner_matches_adaptive(shape, beta, lam, m):
    meas = _tilted(shape, beta, lam)
    xs = np.array([-1.3, 0.4, 2.2])
    got = closed_inner(meas, SIN.terms, m)(xs)
    for x, val in zip(xs, got):
        want = integrate_levy(meas, lambda u: u**m * _sin_diff(x, u), cfg=QCFG)
        assert abs(val - want) <= 1e-8 * abs(want) + 1e-12, (x, val, want)


def test_closed_inner_where_eta_rule_is_off():
    # CGMY(1, .9, .1, .2): the eta-rule misses I_1 by about 3.6e-3 relative
    meas = CGMY(1.0, 0.9, 0.1, 0.2).measure
    xs = np.array([-0.8, 0.5])
    closed = closed_inner(meas, SIN.terms, 1)(xs)
    rule = eta_rule(meas, 1, QCFG).shifted_sum(np.cos, xs)
    for x, val, r in zip(xs, closed, rule):
        want = integrate_levy(meas, lambda u: u * _sin_diff(x, u), cfg=QCFG)
        assert rel_err(val, want) < 1e-8
        assert rel_err(r, want) > 1e-3


@pytest.mark.parametrize("base", [
    CGMY(1.0, 0.5, 2.0, 3.0), GTSD(0.5, 0.5, 1.0, 2.0, 0.5, 3.0),
    Gamma(2.0, 1.5), BGD(2.0, 3.0, 1.0, 4.0), Poisson(2.0),
    CompoundPoisson(1.5, GammaJumps(2.0, 3.0)),
    CompoundPoisson(1.2, AtomicJumps(((1.0, 0.6), (-2.0, 0.4)))),
], ids=lambda b: b.family)
@pytest.mark.parametrize("g", [SIN, SQUARE, make_shift(1.5)],
                         ids=lambda g: g.name)
def test_closed_forms_against_adaptive(base, g):
    """I_2, Stein's int u g(x+u) nu(du) and Chen's int (g(x+u)-g(x))^2
    nu(du), on atoms, beta < 0, beta = 0 (the log form) and beta > 0."""
    meas = base.measure
    xs = np.array([-0.7, 1.9])
    i2 = closed_inner(meas, g.terms, 2)(xs)
    stein = closed_inner(meas, g.terms, 1, subtract=False)(xs)
    chen = closed_sq_diff(meas, g.terms)(xs)
    for k, x in enumerate(xs):
        for got, integrand in (
                (i2[k], lambda u: u * u * (g.f(x + u) - g.f(x))),
                (stein[k], lambda u: u * g.f(x + u)),
                (chen[k], lambda u: (g.f(x + u) - g.f(x)) ** 2)):
            want = integrate_levy(meas, integrand, cfg=QCFG)
            assert abs(got - want) <= 1e-8 * abs(want) + 1e-12, (x, got, want)


@pytest.mark.parametrize("base", [
    CGMY(1.0, 0.5, 2.0, 3.0), CGMY(1.0, 0.0, 2.0, 3.0), Gamma(2.0, 1.5),
    CompoundPoisson(1.5, GammaJumps(2.0, 3.0)), Poisson(2.0),
], ids=lambda b: f"{b.family}-{getattr(b, 'beta', '')}")
def test_exp_moment_tilt_matches_closed_delta(base):
    # Psi_1(kappa) is the Esscher shift; the plain moment is C_1's jump part
    meas = base.measure
    psi = exp_moment(meas, 1, np.array([0.5, 0.0]), subtract_one=True)
    assert rel_err(psi[0].real, tilted_first_moment_delta(meas, 0.5)) < 1e-14
    assert psi[0].imag == 0.0 and psi[1] == 0.0
    plain = exp_moment(meas, 2, 0.0)
    assert rel_err(complex(plain).real, meas.moment(2)) < 1e-14


def test_exp_moment_rejects_divergent():
    meas = CGMY(1.0, 0.5, 2.0, 3.0).measure
    with pytest.raises(DivergentMoment):
        exp_moment(meas, 1, 2.5, subtract_one=True)
    with pytest.raises(DivergentMoment):
        exp_moment(meas, 0, 1j)  # int (e^{iu}) nu(du) without the -1
    with pytest.raises(InvalidParams):
        closed_inner(meas, SIN.terms, 0, subtract=False)


# The fixed rules against Psi_m(i) = int u^m (e^{iu} - 1) nu(du) over the
# same grid, extended to beta in {0.97, 0.99}. Cases past the tolerance are
# the failures that the FOUND lines of CHANGES.md describe: decay rates
# lambda <= 0.1 (the origin panel spans many periods of sin) and beta >= 0.97
# (the nu-rule's weights leave floating range, the eta-rule's origin power
# reaches 134-400). They are strict xfails, so a fix flips them.
RULE_TOL = 1e-7  # the benchmark checker's floor for deterministic error
RULE_BETAS = [-1.5, 0.0, 0.5, 0.9, 0.97, 0.99]
RULE_LAMS = [0.05, 0.1, 0.5, 2.0]
# (beta, m) pairs that miss RULE_TOL at lambda = 0.1 on both shapes
_NU_FAIL_01 = {(-1.5, 1), (-1.5, 2), (0.0, 2), (0.9, 1), (0.9, 2)}
_ETA_FAIL_01 = {(-1.5, 1), (-1.5, 2), (0.0, 1), (0.0, 2), (0.5, 2), (0.9, 1),
                (0.97, 1), (0.99, 1)}


def _rule_fails(rule, shape, beta, lam, m):
    if beta >= 0.97 and (rule == "nu" or m == 1):
        return True  # nu: non-finite weights raise; eta: origin power
    if lam == 0.05:
        return True
    if lam == 0.1:
        fails = _NU_FAIL_01 if rule == "nu" else _ETA_FAIL_01
        # eta at beta = 0.9, m = 2 misses by 1.06e-7 on the GTSD shape only
        return (beta, m) in fails or (rule, shape, beta, m) == (
            "eta", "gtsd", 0.9, 2)
    return False


def _rule_cases():
    for rule, ms in (("nu", (0, 1, 2)), ("eta", (1, 2))):
        for shape in ("cgmy", "gtsd"):
            for beta in RULE_BETAS:
                for lam in RULE_LAMS:
                    for m in ms:
                        marks = [pytest.mark.xfail(
                            strict=True, reason="CHANGES.md FOUND lines on "
                            "fixed-rule accuracy (lambda <= 0.1, beta >= 0.97)"
                        )] if _rule_fails(rule, shape, beta, lam, m) else []
                        yield pytest.param(rule, shape, beta, lam, m,
                                           marks=marks)


@pytest.mark.parametrize("rule,shape,beta,lam,m", list(_rule_cases()))
def test_fixed_rules_against_psi(rule, shape, beta, lam, m):
    meas = _tilted(shape, beta, lam)
    psi = complex(exp_moment(meas, m, 1j, subtract_one=True))
    if rule == "nu":
        r = nu_rule(meas, m, QCFG)
        got = r.integrate(lambda u: np.cos(u) - 1.0) + 1j * r.integrate(np.sin)
    else:
        # int g'(v) eta_m(v) dv = int u^m (g(u) - g(0)) nu(du), g = e^{iv}
        r = eta_rule(meas, m, QCFG)
        got = r.integrate(lambda v: -np.sin(v)) + 1j * r.integrate(np.cos)
    assert abs(got - psi) <= RULE_TOL * abs(psi), abs(got - psi) / abs(psi)
