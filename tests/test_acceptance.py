"""Acceptance suite: the headline claims at full sample size, one test per
criterion. Everything here is also covered in unit form elsewhere; these
runs pin the advertised tolerances and budgets."""

import math
import time

import numpy as np
from scipy import integrate

from levy_stein import (
    BGD,
    CGMY,
    Gamma,
    InverseGaussian,
    Laplace,
    MCConfig,
    Poisson,
    TailIntegral,
    VGD,
    BiasVariable,
    cacoullos_bounds,
    cov_identity_rhs,
    cov_oracle,
    esscher_closed,
    gini,
    posterior_bounds_gamma,
    posterior_bounds_poisson,
    sample_joint,
    stein_residual_bgd,
    stein_residual_cgmy,
    stein_residual_vgd,
    wpcp,
)
from levy_stein.cli import build_spec, emit, run_task
from levy_stein.functions import SQUARE, get_function, make_exp_tilt
from levy_stein.functions import TestFunction as GFunction

from conftest import assert_agree, assert_within_se, rel_err
from test_dist_catalog import (ALL_SPECS, CF_IDX, IDS, TGRID, _log_cf,
                               assert_ecf_within_5se)

MC_FULL = MCConfig(n_samples=10**6, seed=2026, batch=10**5)
MC_FULL_B = MCConfig(n_samples=10**6, seed=2027, batch=10**5)


def test_criterion_1_poisson_fourth_moment_identity():
    t0 = time.monotonic()
    spec = Poisson(2.0)
    truth = 58.0  # lam (4 lam^2 + 6 lam + 1)
    est = cov_identity_rhs(spec, 2, SQUARE, MC_FULL)
    orc = cov_oracle(spec, 2, SQUARE, MC_FULL_B)
    assert_within_se(est, truth, label="identity rhs")
    assert_within_se(orc, truth, label="oracle")
    assert time.monotonic() - t0 < 30.0


ESSCHER_CASES = [
    (Poisson(2.0), 0.5, lambda k: 2.0 * math.exp(k)),
    (Gamma(2.0, 1.0), 0.5, lambda k: 2.0 / (1.0 - k)),
    (BGD(2.0, 3.0, 1.0, 4.0), 1.0,
     lambda k: 2.0 / (3.0 - k) - 1.0 / (4.0 + k)),
    (CGMY(1.0, 0.5, 2.0, 3.0), 0.7,
     lambda k: math.gamma(0.5) * ((2.0 - k) ** (-0.5) - (3.0 + k) ** (-0.5))),
    (InverseGaussian(1.5, 2.0), 0.8,
     lambda k: 1.5 * math.sqrt(math.pi) / math.sqrt(2.0 - k)),
]


def test_criterion_2_esscher_closed_vs_wpcp():
    for spec, kappa, h in ESSCHER_CASES:
        closed = esscher_closed(spec, kappa)
        assert rel_err(closed.value, h(kappa)) < 1e-12, spec.family
        # E[X e^{kappa X}] / E[e^{kappa X}] from the tilted cumulants is
        # the same premium by a second closed route
        weighted = wpcp(spec, make_exp_tilt(kappa))
        assert weighted.method == "closed_form", spec.family
        assert rel_err(weighted.value, closed.value) < 1e-12, (
            f"{spec.family}: wpcp {weighted.value} vs closed {closed.value}")


def test_criterion_3_bias_density_identifications():
    # gamma: Y_1 ~ Ga(1, b)
    b = 1.5
    grid = np.linspace(0.02, 5.0, 200)
    got = BiasVariable(Gamma(2.0, b).measure, 1).density(grid)
    assert np.max(np.abs(got - b * np.exp(-b * grid))) <= 1e-8
    # Poisson: Y_k ~ U(0, 1) for every order
    grid = np.linspace(0.005, 0.995, 200)
    for k in (1, 2, 3):
        got = BiasVariable(Poisson(2.0).measure, k).density(grid)
        assert np.max(np.abs(got - 1.0)) <= 1e-8
    # Laplace: Y_1 ~ La(0, delta)
    delta = 0.8
    grid = np.concatenate([np.linspace(-4.0, -0.02, 100),
                           np.linspace(0.02, 4.0, 100)])
    got = BiasVariable(Laplace(0.3, delta).measure, 1).density(grid)
    want = np.exp(-np.abs(grid) / delta) / (2.0 * delta)
    assert np.max(np.abs(got - want)) <= 1e-8


def test_criterion_4_cacoullos_sandwich():
    a, b = 2.0, 1.0
    vb = cacoullos_bounds(Gamma(a, b), SQUARE)
    lo = 4.0 * a * (a + 1.0) ** 2 / b**4
    hi = 4.0 * a * (a + 1.0) * (a + 2.0) / b**4
    assert vb.method == "closed_form"
    assert rel_err(vb.lower, lo) < 1e-12 and rel_err(vb.upper, hi) < 1e-12
    truth = a * (a + 1.0) * (4.0 * a + 6.0) / b**4
    assert lo < truth < hi
    # sampling path against the same edges
    square_mc = GFunction(name="square_mc", f=SQUARE.f, d1=SQUARE.d1,
                          d2=SQUARE.d2)
    nb = cacoullos_bounds(Gamma(a, b), square_mc,
                          MCConfig(n_samples=10**5, seed=5, batch=10**4))
    assert nb.method == "numeric"
    assert abs(nb.lower - lo) <= 4 * nb.lower_se
    assert abs(nb.upper - hi) <= 4 * nb.upper_se
    # posterior wrappers are parameter substitutions into the same bracket
    post = posterior_bounds_gamma(k=2.0, a=1.0, b=1.0, n=5, xbar=1.2,
                                  g=SQUARE)
    A, B = 1.0 + 5 * 2.0, 1.0 + 5 * 1.2
    assert rel_err(post.lower, 4.0 * A * (A + 1.0) ** 2 / B**4) < 1e-12
    assert rel_err(post.upper, 4.0 * A * (A + 1.0) * (A + 2.0) / B**4) < 1e-12
    post = posterior_bounds_poisson(a=1.5, b=2.0, n=8, xbar=2.25, g=SQUARE)
    A, B = 1.5 + 8 * 2.25, 2.0 + 8
    assert rel_err(post.lower, 4.0 * A * (A + 1.0) ** 2 / B**4) < 1e-12
    assert rel_err(post.upper, 4.0 * A * (A + 1.0) * (A + 2.0) / B**4) < 1e-12


def test_criterion_5_stein_residual_suite():
    t0 = time.monotonic()
    mc = MCConfig(n_samples=10**5, seed=7, batch=2 * 10**4)
    g_bank = [get_function(name) if name != "exp_tilt"
              else get_function(name, kappa=0.5)
              for name in ("id", "square", "sin", "gauss", "exp_tilt",
                           "log1psq")]
    cgmy = CGMY(1.0, 0.5, 3.0, 4.0)
    bgd = BGD(2.0, 3.0, 1.0, 4.0)
    vgd = VGD(0.5, 2.0, 3.0, 4.0)
    bad = []
    for g in g_bank:
        for label, est in (
                ("cgmy", stein_residual_cgmy(cgmy, g, mc)),
                ("bgd", stein_residual_bgd(bgd, g, mc)),
                ("vgd", stein_residual_vgd(vgd, g, mc))):
            if abs(est.z) > 4.0:
                bad.append(f"{label}/{g.name}: z = {est.z:.2f}")
    assert not bad, "; ".join(bad)
    assert time.monotonic() - t0 < 300.0


def test_criterion_6_joint_cross_moment():
    lam, n = 2.0, 10**6
    for i, s in enumerate((0.0, 0.25, 0.5, 1.0)):
        rng = np.random.Generator(np.random.Philox(2026 + i))
        x, y, _ = sample_joint(Poisson(lam), rng, n, s=s)
        prod = x * y
        se = np.std(prod, ddof=1) / math.sqrt(n)
        want = lam * lam + lam * s
        assert abs(np.mean(prod) - want) <= 4 * se, f"s={s}"


def test_criterion_7_property_suite():
    # bias-density normalization
    cases = [
        (Gamma(2.0, 1.5).measure, 1, (0.0, np.inf)),
        (CGMY(1.0, 0.5, 2.0, 3.0).measure, 1, (-np.inf, np.inf)),
        (Laplace(0.3, 0.8).measure, 1, (-np.inf, np.inf)),
        (Poisson(2.0).measure, 2, (0.0, 1.0)),
    ]
    for meas, k, (lo, hi) in cases:
        dens = BiasVariable(meas, k).density
        if lo < 0.0:
            total = integrate.quad(dens, lo, 0.0, limit=200)[0] \
                + integrate.quad(dens, 0.0, hi, limit=200)[0]
        else:
            total = integrate.quad(dens, lo, hi, limit=200)[0]
        assert abs(total - 1.0) <= 1e-6

    # eta/nu Fubini identity, two-sided instance
    meas = CGMY(1.0, 0.5, 2.0, 3.0).measure
    x = 0.7
    t = TailIntegral(meas, 1)
    lhs = integrate.quad(lambda v: math.cos(x + v) * t.pos(v), 0, np.inf)[0] \
        + integrate.quad(lambda v: math.cos(x + v) * t.neg(v), -np.inf, 0)[0]
    rhs = integrate.quad(
        lambda u: u * (math.sin(x + u) - math.sin(x)) * meas.density(u),
        0, np.inf)[0] + integrate.quad(
        lambda u: u * (math.sin(x + u) - math.sin(x)) * meas.density(u),
        -np.inf, 0)[0]
    assert rel_err(lhs, rhs) <= 1e-6

    # X^{*1/2} as the coupled pair draws it: across the catalog, the
    # empirical cf of sample_conv at s = 1/2 within 5 SE of exp(log phi / 2)
    rng = np.random.default_rng(2028)
    t = TGRID[CF_IDX]
    for spec, name in zip(ALL_SPECS, IDS):
        want = np.exp(0.5 * _log_cf(spec, TGRID)[CF_IDX])
        assert_ecf_within_5se(spec.sample_conv(rng, 0.5, 10**5), t, want,
                              name)

    # CGMY sampler against its cdf
    spec = CGMY(1.0, 0.5, 2.0, 3.0)
    rng = np.random.Generator(np.random.Philox(11))
    x = np.sort(spec.sample(rng, 10**6))
    f = spec.cdf_fn()(x)
    i = np.arange(1, x.size + 1)
    ks = max(np.max(i / x.size - f), np.max(f - (i - 1) / x.size))
    assert ks <= 0.005

    # bit-exact reports for a fixed seed
    doc = {
        "distribution": {"family": "gamma", "params": {"a": 2.0, "b": 2.0}},
        "task": {"kind": "gini"},
        "mc": {"n_samples": 20_000, "seed": 7, "batch": 5_000},
    }
    first = emit(run_task(build_spec(doc)), "json")
    second = emit(run_task(build_spec(doc)), "json")
    assert first == second


def test_criterion_8_gini_cross_oracle():
    mc = MCConfig(n_samples=2 * 10**5, seed=11, batch=2 * 10**4)
    mc_b = MCConfig(n_samples=2 * 10**5, seed=12, batch=2 * 10**4)
    for spec in (Gamma(2.0, 2.0), VGD(0.5, 2.0, 3.0, 4.0),
                 CGMY(1.0, 0.5, 2.0, 3.0)):
        lev = gini(spec, mc, method="levy_formula")
        orc = gini(spec, mc_b, method="covariance_oracle")
        assert_agree(lev, orc, label=f"gini {spec.family}")
    a = 2.0
    truth = math.gamma(a + 0.5) / (math.gamma(a + 1.0) * math.sqrt(math.pi))
    lev = gini(Gamma(a, 2.0), mc, method="levy_formula")
    assert_within_se(lev, truth, label="gamma gini closed oracle")
    # the report quantifies how far (2/mean) Var(X) sits from the index
    rep = run_task(build_spec({
        "distribution": {"family": "gamma", "params": {"a": 2.0, "b": 2.0}},
        "task": {"kind": "gini"},
        "mc": {"n_samples": 50_000, "seed": 3, "batch": 10_000},
    }))
    warn = "\n".join(rep["warnings"])
    assert "not a Gini coefficient" in warn and "discrepancy" in warn
