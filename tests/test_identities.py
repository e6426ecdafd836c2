"""Covariance identities: order-n representations against sample
covariances, the coupled pair, and the Stein residuals."""

import math
import os
import sys

import numpy as np
import pytest
from scipy import integrate, stats

from levy_stein import (
    BGD,
    CGMY,
    GTSD,
    AtomicJumps,
    CompoundPoisson,
    DivergentMoment,
    Gamma,
    GammaJumps,
    InvalidParams,
    InverseGaussian,
    JointPairSampler,
    Laplace,
    MCConfig,
    Poisson,
    TwoSidedExp,
    VGD,
    cov_first_order,
    cov_identity_rhs,
    cov_oracle,
    sample_joint,
    stein_residual,
    stein_residual_bgd,
    stein_residual_cgmy,
    stein_residual_vgd,
)
from levy_stein.functions import GAUSS, IDENTITY, LOG1PSQ, SIN, SQUARE, \
    make_exp_tilt
from levy_stein.actuarial import raw_moment
from levy_stein.identities import _closed_integrand
from levy_stein.levy_core import (closed_inner, exp_moment, exp_poly_mean,
                                  moments_from_cumulants)
from levy_stein.mc import mc_mean

from conftest import (SMALL_SWEEP, SMALL_SWEEP_SPECS, assert_agree,
                      assert_within_se)
from test_dist_catalog import SAMPLER_IDS, SAMPLER_SPECS

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
from reference import Reference  # noqa: E402

MC_A = MCConfig(n_samples=100_000, seed=51, batch=20_000)
MC_B = MCConfig(n_samples=100_000, seed=52, batch=20_000)  # independent stream


# -- first-order identity vs the sample covariance ------------------------------


@pytest.mark.parametrize("spec, g", [
    (Poisson(2.0), SQUARE),
    (Gamma(2.0, 1.5), SIN),
    (Gamma(2.0, 1.5), make_exp_tilt(0.5)),
    (Laplace(0.3, 0.8), GAUSS),
    (BGD(2.0, 3.0, 1.0, 4.0), SQUARE),
    (CGMY(1.0, 0.5, 2.0, 3.0), LOG1PSQ),
    (InverseGaussian(1.5, 2.0), SIN),
], ids=lambda v: getattr(v, "family", None) or getattr(v, "name", None))
def test_first_order_identity_vs_oracle(spec, g):
    rhs = cov_identity_rhs(spec, 1, g, MC_A)
    orc = cov_oracle(spec, 1, g, MC_B)
    assert_agree(rhs, orc, label=f"{spec.family}/{g.name}")


def test_identity_with_g_id_recovers_variance():
    # Cov(X, X) = Var(X), so the n = 1 identity with g = id estimates C_2
    spec = Gamma(2.0, 1.5)
    est = cov_identity_rhs(spec, 1, IDENTITY, MC_A)
    # g' = 1 collapses the estimator to a constant; only roundoff is left
    assert_within_se(est, spec.variance(), floor=1e-12, label="identity var")
    first = cov_first_order(spec, IDENTITY, MC_B)
    assert first.std_error == 0.0  # g' constant: no MC noise left
    assert abs(first.value - spec.variance()) < 1e-12


@pytest.mark.parametrize("spec, g", [
    (Laplace(0.3, 0.8), GAUSS),
    (Gamma(2.0, 1.5), SQUARE),
])
def test_cov_first_order_vs_oracle(spec, g):
    est = cov_first_order(spec, g, MC_A)
    orc = cov_oracle(spec, 1, g, MC_B)
    assert_agree(est, orc, label=f"first-order {spec.family}/{g.name}")


# -- higher order ----------------------------------------------------------------


def test_poisson_second_order_both_routes():
    # Cov(X^2, X^2) = Var(X^2) = lam (4 lam^2 + 6 lam + 1) = 58 at lam = 2
    spec = Poisson(2.0)
    truth = 58.0
    via_bias = cov_identity_rhs(spec, 2, SQUARE, MC_A, route="bias")
    via_quad = cov_identity_rhs(spec, 2, SQUARE, MC_B, route="quadrature")
    assert_within_se(via_bias, truth, label="bias route")
    assert_within_se(via_quad, truth, label="quadrature route")
    assert_agree(via_bias, via_quad, label="routes")


def test_gamma_second_order_routes_agree():
    spec = Gamma(2.0, 1.5)
    a = cov_identity_rhs(spec, 2, SIN, MC_A, route="bias")
    b = cov_identity_rhs(spec, 2, SIN, MC_B, route="quadrature")
    assert_agree(a, b, label="gamma n=2 routes")


# seeds and sizes fixed before the first run; the two routes draw from
# independent streams
MC_CLOSED = MCConfig(n_samples=40_000, seed=61, batch=5_000)
MC_BIAS = MCConfig(n_samples=40_000, seed=62, batch=5_000)


@pytest.mark.parametrize("spec", [
    Gamma(2.0, 1.5),
    Poisson(2.0),
    CompoundPoisson(1.5, GammaJumps(2.0, 3.0)),
    InverseGaussian(1.0, 2.0),
], ids=lambda s: s.family)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("g", [SIN, SQUARE, make_exp_tilt(0.3)],
                         ids=lambda g: g.name)
def test_closed_and_bias_routes_agree(spec, n, g):
    # on positive support, g with terms now takes the closed route; the
    # bias route stays callable and estimates the same right-hand side
    closed = cov_identity_rhs(spec, n, g, MC_CLOSED)
    bias = cov_identity_rhs(spec, n, g, MC_BIAS, route="bias")
    assert closed.route == "closed" and bias.route == "bias"
    assert_agree(closed, bias, label=f"{spec.family} n={n} {g.name}")


# the base laws of the benchmark's small-sweep workload
SWEEP_SPECS = [
    Poisson(2.0),
    CompoundPoisson(1.5, GammaJumps(2.0, 3.0)),
    CompoundPoisson(1.2, AtomicJumps(((1.0, 0.6), (2.0, 0.4)))),
    Gamma(2.0, 1.5),
    InverseGaussian(1.0, 2.0),
    Laplace(0.5, 1.0),
    TwoSidedExp(1.0, 3.0),
    BGD(2.0, 3.0, 1.0, 4.0),
    VGD(0.2, 1.5, 3.0, 4.0),
    CGMY(1.0, 0.5, 2.0, 3.0),
    GTSD(0.5, 0.5, 1.0, 2.0, 0.5, 3.0),
]
# seeds and sizes fixed before the first run, on independent streams
MC_X_ONLY = MCConfig(n_samples=40_000, seed=81, batch=5_000)
MC_PAIR = MCConfig(n_samples=40_000, seed=82, batch=5_000)


def _pair_rhs_order_two(spec, g, mc):
    """The order-2 right-hand side from the coupled pair at the midpoint
    s = 1/2, the one Gauss-Legendre node of order 2: the mean of
    I_2(X_s) + 2 Y_s I_1(X_s)."""
    i1, i2 = (closed_inner(spec.measure, g.terms, m) for m in (1, 2))

    def batch(rng, size):
        x, y, w = sample_joint(spec, rng, size, order=2)
        return w * (i2(x) + 2.0 * y * i1(x))

    return mc_mean(batch, mc)


@pytest.mark.parametrize("spec", SWEEP_SPECS,
                         ids=[f"{s.family}-{i}" for i, s in
                              enumerate(SWEEP_SPECS)])
@pytest.mark.parametrize("g", [SIN, SQUARE], ids=lambda g: g.name)
def test_second_order_x_only_agrees_with_pair(spec, g):
    # sin and square have terms, so n = 2 takes the closed route: it draws
    # X alone and averages Phi_2(z) e^{zX} (its z-derivatives for a term
    # x^p e^{zx}), with s integrated out through the cumulants of Y_s under
    # the tilt e^{zX_s}; it estimates what the coupled pair estimates
    x_only = cov_identity_rhs(spec, 2, g, MC_X_ONLY)
    pair = _pair_rhs_order_two(spec, g, MC_PAIR)
    assert_agree(x_only, pair, label=f"{spec.family} n=2 {g.name}")


# seeds and sizes fixed before the first run, on independent streams
MC_X_ONLY_3 = MCConfig(n_samples=40_000, seed=91, batch=5_000)
MC_PAIR_3 = MCConfig(n_samples=40_000, seed=92, batch=5_000)


def _pair_rhs_order_three(spec, g, mc):
    """The order-3 right-hand side from the coupled pair at the two
    Gauss-Legendre nodes of order 3: the weighted mean of
    I_3(X_s) + 3 Y_s I_2(X_s) + 3 Y_s^2 I_1(X_s)."""
    i1, i2, i3 = (closed_inner(spec.measure, g.terms, m) for m in (1, 2, 3))

    def batch(rng, size):
        x, y, w = sample_joint(spec, rng, size, order=3)
        return w * (i3(x) + 3.0 * y * i2(x) + 3.0 * y**2 * i1(x))

    return mc_mean(batch, mc)


@pytest.mark.parametrize("spec", SWEEP_SPECS,
                         ids=[f"{s.family}-{i}" for i, s in
                              enumerate(SWEEP_SPECS)])
@pytest.mark.parametrize("g", [SIN, SQUARE], ids=lambda g: g.name)
def test_third_order_x_only_agrees_with_pair(spec, g):
    # n = 3 draws X alone, with s integrated out through the cumulants of
    # Y_s under the tilt; it estimates what the coupled pair estimates, and
    # with no larger error bar
    x_only = cov_identity_rhs(spec, 3, g, MC_X_ONLY_3)
    pair = _pair_rhs_order_three(spec, g, MC_PAIR_3)
    assert_agree(x_only, pair, label=f"{spec.family} n=3 {g.name}")
    assert x_only.std_error <= pair.std_error


def _xp_exp_mean(spec, p, z):
    """E[X^p e^{zX}] = M(z) B_p(kappa_1(z), ..., kappa_p(z)), with
    kappa_1(z) = mu + Psi_1(z), kappa_j(z) = C_j + Psi_j(z) and
    M(z) = exp(z b + Psi_0(z)), b the uncompensated drift."""
    meas = spec.measure
    kappa = [spec.mean() + complex(exp_moment(meas, 1, z))] + [
        meas.moment(j) + complex(exp_moment(meas, j, z))
        for j in range(2, p + 1)]
    bell = list(moments_from_cumulants(kappa))[-1] if p else 1.0
    return np.exp(z * spec.drift + complex(exp_moment(meas, 0, z))) * bell


def _cov_xn_g(spec, n, g):
    """Cov(X^n, g(X)): from raw moments for square, else term by term as
    E[X^{n+p} e^{zX}] - E[X^n] E[X^p e^{zX}]."""
    if g is SQUARE:
        return raw_moment(spec, n + 2) - raw_moment(spec, n) * raw_moment(
            spec, 2)
    return sum((a * (_xp_exp_mean(spec, n + p, z)
                     - raw_moment(spec, n) * _xp_exp_mean(spec, p, z))).real
               for a, p, z in g.terms)


@pytest.mark.parametrize("spec", SWEEP_SPECS,
                         ids=[f"{s.family}-{i}" for i, s in
                              enumerate(SWEEP_SPECS)])
@pytest.mark.parametrize("g", [SIN, SQUARE, make_exp_tilt(0.3)],
                         ids=lambda g: g.name)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_integrand_mean_is_the_covariance(spec, g, n):
    # the closed route's integrand h has Cov(X^n, g(X)) = E[h(X)]; both
    # sides in closed form, with no Monte Carlo
    h = _closed_integrand(spec, g.terms, n)
    mean = sum((complex(a) * _xp_exp_mean(spec, p, complex(z))).real
               for a, p, z in h.terms)
    want = _cov_xn_g(spec, n, g)
    assert abs(mean - want) <= 1e-12 * abs(want), (mean, want)


@pytest.mark.parametrize("im_z", [1.0, 15.0, 45.0, 150.0, 450.0])
@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("spec", [Gamma(0.5, 1.0), Gamma(2.0, 1.5)],
                         ids=["ga0.5", "ga2"])
def test_closed_integrand_far_from_the_origin(spec, n, p, im_z):
    # the integrand's mean against Re[E X^{n+p} e^{zX} - E X^n E X^p e^{zX}]
    # from the gamma law's own E X^q e^{zX} = Gamma(a + q) / Gamma(a) b^a
    # (b - z)^{-(a + q)}; where |z| is large against b, C_q + Psi_q(z)
    # cancels, so the tilted moments must be read directly
    a, b, z = spec.a, spec.b, complex(0.0, im_z)

    def xq_exp(q, z):
        return (math.exp(math.lgamma(a + q) - math.lgamma(a)) * b**a
                * (b - z) ** -(a + q))

    want = (xq_exp(n + p, z) - xq_exp(n, 0.0) * xq_exp(p, z)).real
    got = exp_poly_mean(spec, _closed_integrand(spec, ((1, p, z),), n).terms)
    assert abs(got - want) <= 1e-11 * abs(want), (got, want)


def test_oracle_rejects_a_divergent_covariance():
    # E[X e^{2X}] is infinite under Ga(2, 1.5): the oracle must not return
    # a sample covariance for it
    with pytest.raises(DivergentMoment):
        cov_oracle(Gamma(2.0, 1.5), 1, make_exp_tilt(2.0),
                   MCConfig(20_000, 1, 5_000))


def test_route_validation():
    with pytest.raises(InvalidParams):
        cov_identity_rhs(Laplace(0.3, 0.8), 2, SQUARE, route="bias")
    with pytest.raises(InvalidParams):
        cov_identity_rhs(Gamma(2.0, 1.5), 1, SQUARE, route="midpoint")
    with pytest.raises(InvalidParams):
        cov_identity_rhs(Gamma(2.0, 1.5), 0, SQUARE)
    with pytest.raises(InvalidParams):
        cov_oracle(Gamma(2.0, 1.5), 0, SQUARE)


def test_identity_deterministic(mc_small):
    a = cov_identity_rhs(Poisson(2.0), 1, SQUARE, mc_small)
    b = cov_identity_rhs(Poisson(2.0), 1, SQUARE, mc_small)
    assert (a.value, a.std_error, a.n) == (b.value, b.std_error, b.n)


# -- the coupled pair ------------------------------------------------------------


def test_joint_pair_s_one_is_diagonal():
    rng = np.random.default_rng(3)
    x, y, w = sample_joint(Gamma(2.0, 1.5), rng, 5_000, s=1.0)
    assert np.array_equal(x, y)
    assert np.all(w == 1.0)


def test_joint_pair_s_zero_is_independent():
    rng = np.random.default_rng(4)
    n = 50_000
    x, y, _ = sample_joint(Gamma(2.0, 1.5), rng, n, s=0.0)
    assert abs(np.corrcoef(x, y)[0, 1]) < 4.0 / math.sqrt(n)


def test_joint_pair_marginals():
    spec = BGD(2.0, 3.0, 1.0, 4.0)
    rng = np.random.default_rng(5)
    n = 100_000
    x, y, _ = sample_joint(spec, rng, n, s=0.35)
    se = spec.std() / math.sqrt(n)
    assert abs(np.mean(x) - spec.mean()) < 5 * se
    assert abs(np.mean(y) - spec.mean()) < 5 * se


def test_joint_pair_poisson_cross_moment():
    # E[X_s Y_s] = lam^2 + lam s; smoke row of the s-table
    rng = np.random.default_rng(6)
    n = 100_000
    x, y, _ = sample_joint(Poisson(2.0), rng, n, s=0.5)
    prod = x * y
    se = np.std(prod, ddof=1) / math.sqrt(n)
    assert abs(np.mean(prod) - 5.0) < 4 * se


@pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=SAMPLER_IDS)
@pytest.mark.parametrize("s", [0.25, 0.7])
def test_joint_pair_bridge_mean(spec, s):
    # with X_s = A + C and Y_s = B + C, E[C | A + C] = s (A + C) (the
    # bridge property of a Lévy process), so E[Y_s | X_s] = (1 - s) mu +
    # s X_s. Weighting the residual by cos(X_s) tests the conditional mean,
    # which holds only if sample_conv draws true convolution powers
    rng = np.random.default_rng(73)
    x, y, _ = sample_joint(spec, rng, 100_000, s=s)
    r = (y - (1.0 - s) * spec.mean() - s * x) * np.cos(x)
    assert abs(np.mean(r)) <= 4.0 * np.std(r, ddof=1) / math.sqrt(r.size)


def _fit_degree(f, degree):
    """Largest residual of the least-squares polynomial of `degree` through
    f at nine nodes in (0, 1), relative to max |f|."""
    s = (np.arange(9) + 0.5) / 9
    vals = np.array([f(v) for v in s])
    fit = np.polynomial.polynomial.Polynomial.fit(s, vals, degree)
    return np.max(np.abs(fit(s) - vals)) / np.max(np.abs(vals))


def _y_moment(k, c_moment, b_moment):
    """E[(B + C)^k] for independent B and C, from their raw moments."""
    return sum(math.comb(k, j) * c_moment(j) * b_moment(k - j)
               for j in range(k + 1))


def _poisson_y_moment(lam, s, x, k):
    """E[Y_s^k | X_s = x] for Poisson(lam): X_s = A + C, Y_s = B + C with
    A, B ~ Poisson((1 - s) lam) and C ~ Poisson(s lam); given X_s = x, C
    has the pmf of the joint law (binomial thinning), and B is
    independent of both."""
    c = np.arange(x + 1)
    pc = stats.poisson.pmf(c, s * lam) * stats.poisson.pmf(x - c,
                                                           (1.0 - s) * lam)
    pc /= pc.sum()
    b = np.arange(80)
    pb = stats.poisson.pmf(b, (1.0 - s) * lam)
    return _y_moment(k, lambda j: pc @ c**j, lambda j: pb @ b**j)


@pytest.mark.parametrize("x", [0, 1, 3, 6])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_poisson_pair_conditional_moment_is_polynomial_in_s(x, k):
    # E[Y_s^k | X_s = x] has degree k in s, so the ceil(n / 2)
    # Gauss-Legendre nodes of the pair are exact at order n
    assert _fit_degree(lambda s: _poisson_y_moment(2.0, s, x, k), k) < 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_pair_nodes_integrate_the_s_integrand_exactly(n):
    # the pair's rule against an adaptive quadrature in s of
    # E[Y_s^k h(X_s)], k < n, for Poisson(2) and h = log1psq, summed
    # exactly over x; a rule of the same node count that is not
    # Gauss-Legendre (the midpoints, say) misses the k = 2 terms
    lam, xs = 2.0, np.arange(41)
    px = stats.poisson.pmf(xs, lam) * np.log1p(xs**2.0)
    pair = JointPairSampler(Poisson(lam), order=n)
    for k in range(1, n):
        def f(s):
            return sum(p * _poisson_y_moment(lam, s, x, k)
                       for x, p in zip(xs, px))

        exact = integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]
        rule = sum(w * f(s) for s, w in zip(pair.nodes, pair.weights))
        assert abs(rule - exact) <= 1e-11 * abs(exact), (k, rule, exact)


@pytest.mark.parametrize("x", [0.3, 1.0, 4.0])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gamma_pair_conditional_moment_is_polynomial_in_s(x, k):
    # Gamma(a, rate): given X_s = x, C has density proportional to
    # f_C(c) f_A(x - c) on (0, x), integrated here; the two gamma densities
    # Ga(s a, rate) at c and Ga((1 - s) a, rate) at x - c share the factor
    # e^{-rate x}, which cancels. B ~ Ga((1 - s) a, rate) is independent
    a, rate = 2.5, 1.5

    def moment(s):
        def cond(j):
            # c^j against the weight c^{s a - 1} (x - c)^{(1 - s) a - 1},
            # whose singular ends the algebraic-weight rule integrates
            return integrate.quad(lambda c: c**j, 0.0, x, weight="alg",
                                  wvar=(s * a - 1.0, (1.0 - s) * a - 1.0),
                                  epsabs=0.0, epsrel=1e-12)[0]

        norm = cond(0)
        fb = stats.gamma((1.0 - s) * a, scale=1.0 / rate)
        return _y_moment(k, lambda j: cond(j) / norm, fb.moment)

    assert _fit_degree(moment, k) < 1e-9


# seeds and sizes fixed before the first run
MC_PAIR_REF = MCConfig(n_samples=200_000, seed=97, batch=20_000)


@pytest.mark.parametrize("entry", ["poisson", "cp_gamma", "cp_atoms", "gamma",
                                   "inverse_gaussian"])
@pytest.mark.parametrize("n", [3, 4])
def test_gauss_legendre_pair_bias_route_matches_reference(entry, n):
    # log1psq has no terms, so its bias route at n >= 3 draws the pair at
    # the Gauss-Legendre nodes; held against the benchmark's reference,
    # computed from scipy densities and series without the package
    family, params = SMALL_SWEEP[entry]
    spec = SMALL_SWEEP_SPECS[entry]
    est = cov_identity_rhs(spec, n, LOG1PSQ, MC_PAIR_REF, route="bias")
    truth = Reference(family, params).cov_xn_g(n, "log1psq")
    assert_within_se(est, truth, label=f"{entry} n={n} log1psq")


def test_joint_pair_rejects_bad_s():
    with pytest.raises(InvalidParams):
        JointPairSampler(Gamma(2.0, 1.5), s=1.2)
    with pytest.raises(InvalidParams):
        JointPairSampler(Gamma(2.0, 1.5), s=-0.01)
    with pytest.raises(InvalidParams):
        JointPairSampler(Gamma(2.0, 1.5), order=0)
    with pytest.raises(InvalidParams, match="cannot cover 3"):
        JointPairSampler(Gamma(2.0, 1.5), order=6).sample(
            np.random.default_rng(1), 2)


# -- Stein residuals --------------------------------------------------------------


def test_stein_residual_cgmy(mc_medium):
    est = stein_residual_cgmy(CGMY(1.0, 0.5, 2.0, 3.0), SIN, mc_medium)
    assert abs(est.z) <= 4.0


def test_stein_residual_vgd(mc_medium):
    est = stein_residual_vgd(VGD(0.5, 2.0, 3.0, 4.0), SQUARE, mc_medium)
    assert abs(est.z) <= 4.0


def test_stein_residual_bgd(mc_medium):
    est = stein_residual_bgd(BGD(2.0, 3.0, 1.0, 4.0), LOG1PSQ, mc_medium)
    assert abs(est.z) <= 4.0


MC_STEIN = MCConfig(n_samples=10**5, seed=41, batch=10**4)


@pytest.mark.parametrize("g", [SIN, SQUARE, GAUSS, LOG1PSQ],
                         ids=lambda g: g.name)
@pytest.mark.parametrize("entry", list(SMALL_SWEEP_SPECS))
def test_stein_residual_vanishes_on_every_family(entry, g):
    # E[(X - b) g(X)] = E int u g(X + u) nu(du) on every IDD law: a check
    # of each sampler against its triplet, closed for sin and square and
    # by the nu-rule (exact over atoms) for gauss and log1psq
    est = stein_residual(SMALL_SWEEP_SPECS[entry], g, MC_STEIN)
    assert abs(est.z) <= 4.0, f"{entry}/{g.name}: z = {est.z:.2f}"


def test_stein_residual_cgmy_is_the_general_residual():
    assert stein_residual_cgmy is stein_residual


def test_stein_residual_type_checks():
    with pytest.raises(InvalidParams):
        stein_residual_bgd(Gamma(2.0, 1.5), SIN)
    with pytest.raises(InvalidParams):
        stein_residual_vgd(Gamma(2.0, 1.5), SIN)


# -- integrability guards ----------------------------------------------------------


def test_tilt_with_infinite_variance_rejected():
    # Cov(X, e^X) = 24 exists under Ga(2, 1.5), but every estimate of it
    # averages something that grows like e^{2X}, whose mean is infinite:
    # twice the tilt must stay below the decay rate 1.5
    spec, g, mc = Gamma(2.0, 1.5), make_exp_tilt(1.0), MCConfig(2_000, 1, 500)
    for estimate in (lambda: cov_identity_rhs(spec, 1, g, mc),
                     lambda: cov_oracle(spec, 1, g, mc),
                     lambda: stein_residual(spec, g, mc)):
        with pytest.raises(DivergentMoment, match="squared grows at rate 2"):
            estimate()
    # just inside the headroom the same rows are estimated
    assert cov_identity_rhs(spec, 1, make_exp_tilt(0.7), mc).std_error > 0


def test_tilt_at_levy_rate_rejected():
    with pytest.raises(DivergentMoment):
        cov_identity_rhs(Gamma(2.0, 1.5), 1, make_exp_tilt(1.5))
    with pytest.raises(DivergentMoment):
        cov_first_order(BGD(2.0, 3.0, 1.0, 4.0), make_exp_tilt(-4.0))
