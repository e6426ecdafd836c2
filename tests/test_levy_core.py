"""Measure-level machinery: tilted-power sides, tail integrals, fixed
product rules, bias variables, exponential moments."""

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
                        NonConvergence, Poisson, TailIntegral,
                        TiltedPowerSide, bias_density, cumulant,
                        esscher_closed, eta, eta_rule, nu_rule)
from levy_stein import levy_core
from levy_stein.dist_catalog import BGD, CGMY
from levy_stein.functions import SIN, SQUARE, make_shift
from levy_stein.levy_core import closed_inner, closed_sq_diff, exp_moment

from conftest import rel_err
from quad_oracle import QuadratureConfig, integrate_levy
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


@given(beta=st.floats(-1.5, 0.95), rate=st.floats(0.2, 5.0))
@settings(max_examples=60, deadline=None)
def test_tps_tail_monotone_and_positive(beta, rate):
    side = TiltedPowerSide(coef=1.0, beta=beta, rate=rate)
    us = np.array([0.05, 0.2, 0.8, 2.0, 5.0])
    tails = np.array([side.tail(2, u) for u in us])
    assert np.all(tails >= 0)
    assert np.all(np.diff(tails) <= 1e-12)


def test_tps_tilted_moment():
    # Psi_1(0.7) = int u^{-0.3} (e^{-1.3 u} - e^{-2 u}) du; exponents
    # combined by hand so the reference integrand cannot overflow
    side = TiltedPowerSide(coef=1.0, beta=0.3, rate=2.0)
    got = complex(side.exp_moment(1, 0.7)).real
    want, _ = integrate.quad(
        lambda u: u**(-0.3) * (math.exp(-1.3 * u) - math.exp(-2.0 * u)),
        0, np.inf)
    assert rel_err(got, want) < 1e-10


GAMMA_A, GAMMA_B = 2.0, 1.5  # the gamma side: a u^{-1} e^{-b u}
HALF_C, HALF_LAM = 0.8, 2.0  # the beta = 1/2 side: c u^{-3/2} e^{-lam u}


@pytest.mark.parametrize("z_over_rate", [0.9, 0.99, 0.999, 0.99999,
                                         0.999 + 0.001j])
def test_exp_moment_near_the_pole(z_over_rate):
    # Psi_1 against its closed forms a (1/(b - z) - 1/b) and
    # c Gamma(1/2) ((lam - z)^{-1/2} - lam^{-1/2}); the log of 1 - z/rate
    # cancels as z nears the rate unless it is formed from rate - z
    for side, want in (
            (TiltedPowerSide(GAMMA_A, 0.0, GAMMA_B),
             lambda z: GAMMA_A * (1.0 / (GAMMA_B - z) - 1.0 / GAMMA_B)),
            (TiltedPowerSide(HALF_C, 0.5, HALF_LAM),
             lambda z: HALF_C * math.sqrt(math.pi)
             * ((HALF_LAM - z) ** -0.5 - HALF_LAM ** -0.5))):
        z = z_over_rate * side.rate
        if not z.imag:
            z = z.real
        got = complex(side.exp_moment(1, z))
        assert abs(got - want(z)) <= 1e-14 * abs(want(z)), (side, z)


# -- LevyMeasure / tail integrals ------------------------------------------


def test_measure_moment_closed_vs_quad():
    # every catalog measure: both signs of the negative side's (-1)^k,
    # beta < 0 (gamma jumps), beta > 0 and atoms; the absolute floor admits
    # odd moments of symmetric measures, which are exactly 0
    for spec in ALL_SPECS:
        meas = spec.measure
        for k in range(2, 6):
            closed = meas.moment(k)
            quad = integrate_levy(meas, lambda u: u**k, cfg=QCFG)
            assert abs(closed - quad) <= 1e-9 * abs(quad) + 1e-12, \
                (spec, k, closed, quad)


def test_atomic_moment_and_eta():
    # mass 2 at u = 1, mass 3 at u = -0.5
    meas = LevyMeasure.atomic(((1.0, 2.0), (-0.5, 3.0)))
    assert meas.moment(2) == pytest.approx(2.0 + 3.0 * 0.25, rel=1e-14)
    t1 = TailIntegral(meas, 1)
    # open interval: eta+ vanishes at the atom itself
    assert t1.pos(1.0) == 0.0
    assert t1.pos(0.5) == pytest.approx(2.0)
    assert t1.neg(-0.5) == 0.0
    # eta_1^-(u) = -int_{-inf}^u y nu(dy) = -(-0.5*3) = 1.5 for u > -0.5
    assert t1.neg(-0.25) == pytest.approx(1.5)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tail_integral_vs_quadrature(k):
    meas = BGD(2.0, 3.0, 1.0, 4.0).measure
    t = TailIntegral(meas, k)
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
        t = TailIntegral(meas, m)
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
    assert eta(meas, 1, 0.5) == pytest.approx(
        TailIntegral(meas, 1)(0.5))


# -- cumulants --------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_poisson_cumulants_all_lambda(k):
    assert cumulant(Poisson(3.0), k) == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_gamma_cumulants(k):
    a, b = 2.5, 1.5
    want = a * math.gamma(k) / b**k  # C_k = a (k-1)! / b^k
    assert cumulant(Gamma(a, b), k) == pytest.approx(want, rel=1e-12)


# -- bias variables ----------------------------------------------------------


@pytest.mark.parametrize("base,k", [
    (Gamma(2.0, 1.5), 1), (Gamma(2.0, 1.5), 2),
    (InverseGaussian(1.5, 2.0), 1),
    (Poisson(2.0), 1), (Poisson(2.0), 3),
    (Laplace(0.0, 1.0), 1),
    (BGD(2.0, 3.0, 1.0, 4.0), 1),
])
def test_bias_density_normalizes(base, k):
    dens = BiasVariable(base.measure, k).density
    f = lambda y: float(dens(np.asarray(y)))  # noqa: E731
    # split at 0: the density is defined on nonzero y
    pos, _ = integrate.quad(f, 0.0, 20.0, limit=200)
    neg, _ = integrate.quad(f, -20.0, 0.0, limit=200)
    assert abs(pos + neg - 1.0) < 1e-6


def test_bias_density_closed_identifications():
    b = 1.5
    dens = BiasVariable(Gamma(2.0, b).measure, 1).density
    grid = np.linspace(0.01, 5.0, 50)
    assert np.max(np.abs(dens(grid) - expon(scale=1 / b).pdf(grid))) < 1e-10

    dens = BiasVariable(Poisson(2.0).measure, 2).density
    assert np.max(np.abs(dens(grid[grid < 1]) - 1.0)) < 1e-12

    delta = 0.7
    dens = BiasVariable(Laplace(0.0, delta).measure, 1).density
    grid = np.linspace(-3, 3, 61)
    grid = grid[grid != 0]  # density contract excludes y = 0
    assert np.max(np.abs(dens(grid) - laplace(scale=delta).pdf(grid))) < 1e-10
    # scalar helper agrees with the vectorized density
    assert bias_density(Laplace(0.0, delta).measure, 1, 0.4) == \
        pytest.approx(laplace(scale=delta).pdf(0.4), rel=1e-10)


def test_bias_sampler_moments():
    rng = np.random.default_rng(7)
    bv = BiasVariable(Gamma(2.0, 1.5).measure, 1)
    x = bv.sample(rng, 200_000)
    # Y_1 ~ Exp(b): mean 1/b, var 1/b^2
    assert abs(np.mean(x) - 1 / 1.5) < 5 * (1 / 1.5) / math.sqrt(len(x))
    bv = BiasVariable(Poisson(2.0).measure, 1)
    u = bv.sample(rng, 200_000)
    assert 0 < u.min() and u.max() < 1
    assert abs(np.mean(u) - 0.5) < 5 * uniform().std() / math.sqrt(len(u))


def test_bias_sampler_negative_side_mirrors_positive():
    # nu on the negative half-line only: Y_1 is -Exp(rate), every draw
    # from the one side that carries C_2
    rate = 1.5
    meas = LevyMeasure.from_tilted(neg=TiltedPowerSide(2.0, 0.0, rate))
    y = BiasVariable(meas, 1).sample(np.random.default_rng(8), 200_000)
    assert y.max() < 0
    assert abs(np.mean(y) + 1 / rate) < 5 * (1 / rate) / math.sqrt(len(y))


def test_bias_variable_even_k_two_sided_rejected():
    from levy_stein import InvalidParams
    with pytest.raises(InvalidParams):
        BiasVariable(Laplace(0.0, 1.0).measure, 2)


# -- fixed rules -------------------------------------------------------------


@pytest.mark.parametrize("meas,m", [
    (Gamma(2.0, 1.5).measure, 1),
    (CGMY(1.0, 0.5, 2.0, 3.0).measure, 1),
    (BGD(2.0, 3.0, 1.0, 4.0).measure, 2),
    (InverseGaussian(1.5, 2.0).measure, 1),
])
def test_nu_rule_matches_adaptive(meas, m):
    rule = nu_rule(meas, m)
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
    rule = nu_rule(meas, 0)
    got = rule.integrate(lambda u: np.sin(u) ** 2)
    want, _ = integrate.quad(
        lambda u: math.sin(u) ** 2 * meas.density(u), 0, np.inf, limit=200)
    assert rel_err(got, want) < 1e-9


@pytest.mark.parametrize("m", [1, 2])
def test_eta_rule_matches_adaptive(m):
    meas = CGMY(1.0, 0.5, 2.0, 3.0).measure
    rule = eta_rule(meas, m)
    t = TailIntegral(meas, m)
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
        nu_rule(CGMY(1.0, beta, 2.0, 3.0).measure, 1)


def test_eta_rule_rejects_atomic():
    with pytest.raises(AtomicMeasure):
        eta_rule(Poisson(2.0).measure, 1)


def test_shifted_sum_subtract():
    meas = Poisson(2.0).measure
    rule = nu_rule(meas, 1)
    x = np.array([0.0, 1.0, 2.5])
    # int u (g(x+u) - g(x)) nu(du) with g = x^2, atom at 1 mass 2:
    # 2 * ((x+1)^2 - x^2) = 2 * (2x + 1)
    got = rule.shifted_sum(lambda y: y * y, x, subtract_at_x=True)
    assert np.allclose(got, 2.0 * (2 * x + 1), rtol=1e-13)


def _per_node_sums(rule, h, x):
    """shifted_sum without and with subtract_at_x, and shifted_sum_sq_diff,
    as a loop of one h call per node."""
    x = np.asarray(x, dtype=float)
    hx = h(x)
    plain, sq = np.zeros_like(x), np.zeros_like(x)
    for u_q, w_q in zip(rule.nodes, rule.weights):
        h_q = h(x + u_q)
        plain += w_q * h_q
        sq += w_q * np.square(h_q - hx)
    return plain, plain - rule.weights.sum() * hx, sq


BLOCKED_X = {
    "one": np.array([0.3]),
    "block": np.linspace(-4.0, 6.0, levy_core._BLOCK),
    "block+1": np.linspace(-4.0, 6.0, levy_core._BLOCK + 1),
    "0-d": np.array(0.7),
    "2-d": np.linspace(-3.0, 5.0, 300).reshape(20, 15),
}


@pytest.mark.parametrize("spec", [
    CGMY(1.0, 0.5, 2.0, 3.0),
    CompoundPoisson(1.5, AtomicJumps(((1.0, 0.4), (2.5, 0.6)))),
], ids=["cgmy", "atomic"])
@pytest.mark.parametrize("size", list(BLOCKED_X))
def test_blocked_sums_equal_per_node_sums(spec, size):
    rule, F, x = nu_rule(spec.measure, 1), spec.cdf_fn(), BLOCKED_X[size]
    sizes = []

    def h(y):
        sizes.append(np.size(y))
        return F(y)

    got = (rule.shifted_sum(h, x), rule.shifted_sum(h, x, subtract_at_x=True),
           rule.shifted_sum_sq_diff(h, x))
    assert max(sizes) <= levy_core._BLOCK
    for g, want in zip(got, _per_node_sums(rule, F, x)):
        assert g.shape == x.shape
        assert np.array_equal(g, want)


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
    delta = complex(exp_moment(meas, 1, kappa))
    want = _delta_reference(meas, kappa)
    assert rel_err(delta.real, want) < 1e-9 and delta.imag == 0.0
    assert esscher_closed(base, kappa).method == "closed_form"


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


@pytest.mark.parametrize("z", [0.7, -1.2, 1.3j, -0.4 + 2.1j, 0.0],
                         ids=["real", "real-neg", "imag", "complex", "zero"])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_eval_terms_matches_complex_arithmetic(z, degree):
    # eval_terms works in real arithmetic; the reference below is the
    # complex sum Re sum a x^p e^{zx}, held to 1e-14 of the sum of the
    # terms' moduli (elementwise relative error is unbounded where the
    # sum cancels). A second z shares no polynomial with the first; x
    # runs over an array longer than one `_BLOCK` and a 0-d point.
    coefs = [0.8 - 1.1j, -0.3 + 0.5j, 1.7j, -0.9][:degree + 1]
    terms = [(a, p, z) for p, a in enumerate(coefs)] + [(0.6 + 0.2j, 1, 0.5j)]
    for x in (np.linspace(-4.0, 4.0, 5001), np.float64(1.5)):
        parts = [complex(a) * x**p * np.exp(complex(z) * x)
                 for a, p, z in terms]
        want = sum(part.real for part in parts)
        scale = sum(np.abs(part) for part in parts)
        got = levy_core.eval_terms(terms, x)
        assert np.shape(got) == np.shape(x)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_closed_inner_where_eta_rule_is_off():
    # CGMY(1, .9, .1, .2): the eta-rule misses I_1 by about 3.6e-3 relative
    meas = CGMY(1.0, 0.9, 0.1, 0.2).measure
    xs = np.array([-0.8, 0.5])
    closed = closed_inner(meas, SIN.terms, 1)(xs)
    rule = eta_rule(meas, 1).shifted_sum(np.cos, xs)
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
    # Psi_1(kappa) is the Esscher shift, and Psi_m(0) = 0. The quadrature
    # reference is good to about 2e-13 here (CGMY, beta 0.5)
    meas = base.measure
    psi = exp_moment(meas, 1, np.array([0.5, 0.0]))
    assert rel_err(psi[0].real, _delta_reference(meas, 0.5)) < 1e-12
    assert psi[0].imag == 0.0 and psi[1] == 0.0


def test_exp_moment_rejects_divergent():
    meas = CGMY(1.0, 0.5, 2.0, 3.0).measure
    with pytest.raises(DivergentMoment):
        exp_moment(meas, 1, 2.5)
    with pytest.raises(InvalidParams):
        closed_inner(meas, SIN.terms, 0, subtract=False)


@pytest.mark.parametrize("z", [0.0, 0.3, -0.7, 1j, 0.4 - 2j])
def test_exp_poly_mean_gamma_closed_form(z):
    # Ga(a, b): E[X^q e^{zX}] = (a)_q b^a / (b - z)^{a + q}, so
    # E[X^n Re(c x^p e^{zx})] is one such term per power
    a, b, c = 2.0, 1.5, 0.6 - 0.8j
    spec = Gamma(a, b)
    for n in range(4):
        for p in range(3):
            q = n + p
            want = (c * math.gamma(a + q) / math.gamma(a) * b**a
                    / (b - z) ** (a + q)).real
            got = levy_core.exp_poly_mean(spec, [(c, p, z)], n)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (n, p)


def _complex_mean(spec, z, n):
    """E[X^n e^{zX}] as a complex number: exp_poly_mean gives its real
    part, and Re(-i w) = Im w."""
    return complex(levy_core.exp_poly_mean(spec, [(1.0, 0, z)], n),
                   levy_core.exp_poly_mean(spec, [(-1j, 0, z)], n))


# |z| over the decay rate or Laplace scale: inside the strip, at it, and
# far beyond it, where C_j + Psi_j(z) would cancel to a few digits or none
Z_SCALES = [1.0, 10.0, 300.0]


@pytest.mark.parametrize("a", [0.5, 2.0, 50.0])
def test_exp_poly_mean_far_from_the_origin_gamma(a):
    # Ga(a, b): E[X^n e^{zX}] = (a)_n b^a (b - z)^{-(a + n)}, held to
    # 1e-13 of its modulus for n <= 14, on rays through the upper half
    # plane and at a real z inside the strip
    b = 1.5
    spec = Gamma(a, b)
    zs = [0.5 * b] + [r * b * np.exp(1j * math.pi * t) for r in Z_SCALES
                      for t in (0.5, 0.75, 1.0)]
    for z in zs:
        for n in range(15):
            want = (math.prod(a + k for k in range(n))
                    * (b / (b - z)) ** a / (b - z) ** n)
            got = _complex_mean(spec, z, n)
            assert abs(got - want) <= 1e-13 * abs(want), (z, n)


def _laplace_mgf_derivative(mu, delta, z, n):
    """The n-th derivative of e^{mu s} / (1 - delta^2 s^2) at z, and the
    sum of the moduli of the terms it adds. With w = delta z, the k-th
    derivative of the partial fractions (1/(1 - delta s) + 1/(1 + delta s))
    / 2 is k! delta^k times sum_{j = k mod 2} C(k+1, j) w^j / (1 - w^2)^{k+1},
    a form in which the two fractions do not cancel at large |w|."""
    w = delta * z
    total, scale = 0j, 0.0
    for k in range(n + 1):
        pair = sum(math.comb(k + 1, j) * w**j for j in range(k % 2, k + 2, 2))
        term = (math.comb(n, k) * mu ** (n - k) * math.factorial(k)
                * delta**k / (1 - w * w) ** (k + 1))
        total += term * pair
        scale += abs(term) * sum(math.comb(k + 1, j) * abs(w) ** j
                                 for j in range(k % 2, k + 2, 2))
    return np.exp(mu * z) * total, abs(np.exp(mu * z)) * scale


@pytest.mark.parametrize("delta", [0.5, 2.0, 30.0, 300.0])
def test_exp_poly_mean_far_from_the_origin_laplace(delta):
    # Laplace(mu, delta) has mgf e^{mu s} / (1 - delta^2 s^2), so
    # E[X^n e^{zX}] is its n-th derivative; z = (r0 + i r) / delta with
    # |r0| < 1 inside the strip. Held to 1e-13 of its modulus, plus 8 eps
    # of the moduli of the terms the reference adds: at w = i and odd n
    # those terms cancel (the delta^n one vanishes), and no evaluation in
    # doubles, the reference's included, keeps the mean's relative digits
    mu = 0.5
    spec = Laplace(mu, delta)
    eps = np.finfo(float).eps
    for r in Z_SCALES:
        for r0 in (0.0, 0.5, -0.9):
            z = (r0 + 1j * r) / delta
            for n in range(15):
                want, scale = _laplace_mgf_derivative(mu, delta, z, n)
                got = _complex_mean(spec, z, n)
                assert (abs(got - want)
                        <= 1e-13 * abs(want) + 8 * eps * scale), (z, n)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_stein_inner_far_from_the_origin(m):
    # int u^m e^{z(x+u)} nu(du) = e^{zx} a Gamma(m) (b - z)^{-m} on Ga(a, b),
    # whose Levy density is a u^{-1} e^{-bu}: read directly, not as
    # C_m + Psi_m(z), which cancels to about 300^m eps at |z| = 300 b
    a, b = 2.0, 1.5
    meas = Gamma(a, b).measure
    xs = np.array([-0.7, 1.9])
    for z in (10j * b, 300j * b, -300.0 * b):
        got = closed_inner(meas, [(1.0, 0, z)], m, subtract=False)(xs)
        want = np.exp(z * xs) * a * math.gamma(m) * (b - z) ** -m
        assert np.all(np.abs(got - want.real) <= 1e-13 * np.abs(want)), z


def test_exp_poly_mean_sums_terms_and_checks_its_input():
    # x + 2 under Poisson(2) at n = 2: E[X^3] + 2 E[X^2] = 22 + 12
    spec = Poisson(2.0)
    assert levy_core.exp_poly_mean(
        spec, make_shift(2.0).terms, 2) == pytest.approx(34.0, rel=1e-15)
    assert levy_core.exp_poly_mean(spec, (), 3) == 0.0
    with pytest.raises(InvalidParams):
        levy_core.exp_poly_mean(spec, SIN.terms, -1)
    # e^{1.5 x} under Ga(2, 1.5) sits on the boundary of the strip
    with pytest.raises(DivergentMoment):
        levy_core.exp_poly_mean(Gamma(2.0, 1.5), [(1.0, 0, 1.5)])
    # M(800) = exp(2 (e^800 - 1)) and X^250 leave the range of a double
    with pytest.raises(DivergentMoment, match="of order 0"):
        levy_core.exp_poly_mean(spec, [(1.0, 0, 800.0)])
    with pytest.raises(DivergentMoment, match="overflows the range"):
        levy_core.exp_poly_mean(spec, SIN.terms, 250)
    # the Bell recursion's C(1099, 549) has no double value either
    with pytest.raises(DivergentMoment, match="of order 1100"):
        levy_core.exp_poly_mean(Gamma(2.0, 1e3), [(1.0, 0, 0.0)], 1100)


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
    psi = complex(exp_moment(meas, m, 1j))
    if rule == "nu":
        r = nu_rule(meas, m)
        got = r.integrate(lambda u: np.cos(u) - 1.0) + 1j * r.integrate(np.sin)
    else:
        # int g'(v) eta_m(v) dv = int u^m (g(u) - g(0)) nu(du), g = e^{iv}
        r = eta_rule(meas, m)
        got = r.integrate(lambda v: -np.sin(v)) + 1j * r.integrate(np.cos)
    assert abs(got - psi) <= RULE_TOL * abs(psi), abs(got - psi) / abs(psi)
