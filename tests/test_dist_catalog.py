"""Distribution catalog: construction validation, closed moments vs the
Levy route, samplers vs moments, convolution powers, cdfs."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammainc, gammaincc

from levy_stein import (BGD, CGMY, GTSD, VGD, AtomicJumps, CompoundPoisson,
                        DivergentMoment, Gamma, GammaJumps, InverseGaussian,
                        Laplace, NonConvergence, Poisson, QuadratureConfig,
                        TwoSidedExp, ValidationError, convert_drift,
                        cumulant, integrate_levy, make_spec, mean_levy,
                        vgd_from_alt, vgd_to_alt)
from levy_stein.dist_catalog import VGDAltParams, _cdf_range, _open_unit

QCFG = QuadratureConfig()

ALL_SPECS = [
    Poisson(2.0),
    CompoundPoisson(1.5, AtomicJumps(((1.0, 0.4), (2.5, 0.6)))),
    CompoundPoisson(2.0, GammaJumps(2.0, 1.5)),
    Gamma(2.0, 1.5),
    InverseGaussian(1.5, 2.0),
    Laplace(0.3, 0.8),
    TwoSidedExp(2.0, 3.0),
    BGD(2.0, 3.0, 1.0, 4.0),
    VGD(0.5, 2.0, 3.0, 4.0),
    CGMY(1.0, 0.5, 2.0, 3.0),
    CGMY(1.0, 0.0, 2.0, 3.0),
    GTSD(0.7, 0.5, 1.0, 2.0, 0.5, 3.0),
]

IDS = [f"{s.family}-{i}" for i, s in enumerate(ALL_SPECS)]

# the samplers also meet a negative atom, which no other spec here has
SAMPLER_SPECS = ALL_SPECS + [
    CompoundPoisson(1.2, AtomicJumps(((1.0, 0.6), (-2.0, 0.4))))]
SAMPLER_IDS = [f"{s.family}-{i}" for i, s in enumerate(SAMPLER_SPECS)]


# -- construction validation -------------------------------------------------


@pytest.mark.parametrize("family,params,fragment", [
    ("nope", {}, "unknown family"),
    ("gamma", {"a": 2.0}, "missing"),
    ("gamma", {"a": 2.0, "b": 1.0, "c": 3.0}, "unexpected"),
    ("gamma", {"a": -1.0, "b": 1.0}, ""),
    ("cgmy", {"alpha": 1.0, "beta": 1.2, "lam_pos": 2.0, "lam_neg": 3.0},
     "beta"),
    ("cgmy", {"alpha": 1.0, "beta": -0.1, "lam_pos": 2.0, "lam_neg": 3.0},
     "beta"),
    ("poisson", {"lam": -2.0}, ""),
    ("vgd", {"mu0": 0.0, "alpha": 2.0, "lam_pos": -3.0, "lam_neg": 4.0}, ""),
    ("compound_poisson", {"rate": 1.0, "jumps": {"kind": "bogus"}}, "jump"),
    ("compound_poisson", {"rate": 1.0}, "jumps"),
    ("laplace", {"mu0": 0.0, "delta": "x"}, "numeric"),
])
def test_make_spec_rejects(family, params, fragment):
    with pytest.raises(ValidationError) as exc:
        make_spec(family, params)
    assert fragment.lower() in str(exc.value).lower()


def test_make_spec_roundtrip():
    spec = make_spec("gamma", {"a": 2, "b": 1})
    assert spec == Gamma(2.0, 1.0)
    spec = make_spec("compound_poisson",
                     {"rate": 1.5,
                      "jumps": {"kind": "atoms",
                                "atoms": [[1.0, 0.4], [2.5, 0.6]]}})
    assert spec.jumps == AtomicJumps(((1.0, 0.4), (2.5, 0.6)))


# -- moments: closed vs Levy-representation route ----------------------------


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_mean_closed_vs_levy_route(spec):
    assert mean_levy(spec, QCFG) == pytest.approx(spec.mean(QCFG),
                                                  rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_variance_is_second_levy_moment(spec):
    want = spec.measure.moment(2, QCFG, method="quad")
    assert spec.variance(QCFG) == pytest.approx(want, rel=1e-8)


def test_gamma_jumps_coefficient_out_of_range_raises():
    # rate b^a / Gamma(a) = 1/199! rounds to 0, which would drop the jumps
    # from nu and report a mean of 0
    with pytest.raises(DivergentMoment, match=r"Ga\(200, 1\)"):
        CompoundPoisson(1.0, GammaJumps(200.0, 1.0)).mean()


def test_gamma_closed_moments():
    g = Gamma(2.0, 1.5)
    assert g.mean(QCFG) == pytest.approx(2.0 / 1.5, rel=1e-14)
    assert g.variance(QCFG) == pytest.approx(2.0 / 1.5**2, rel=1e-14)


# -- samplers vs moments ------------------------------------------------------


@pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=SAMPLER_IDS)
def test_sampler_matches_moments(spec):
    rng = np.random.default_rng(99)
    n = 200_000
    x = spec.sample(rng, n)
    assert x.shape == (n,)
    mu, var = spec.mean(QCFG), spec.variance(QCFG)
    se_mean = math.sqrt(var / n)
    assert abs(np.mean(x) - mu) < 5 * se_mean, f"{spec.family} mean off"
    # crude SE for the sample variance via the fourth central moment
    c4 = np.mean((x - mu) ** 4)
    se_var = math.sqrt(max(c4 - var**2, 0.0) / n)
    assert abs(np.var(x) - var) < 5 * se_var + 1e-9, f"{spec.family} var off"


@pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=SAMPLER_IDS)
def test_sample_conv_fractional_power(spec):
    """A draw of X^{*s} has mean s*mu and variance s*var; X^{*0} is 0."""
    rng = np.random.default_rng(7)
    n = 100_000
    s = np.full(n + n // 10, 0.35)
    s[::11] = 0.0
    x = spec.sample_conv(rng, s)
    assert np.all(x[s == 0.0] == 0.0)
    x = x[s > 0.0]
    mu, var = spec.mean(QCFG), spec.variance(QCFG)
    assert abs(np.mean(x) - 0.35 * mu) < 5 * math.sqrt(0.35 * var / n) + 1e-9
    c4 = np.mean((x - 0.35 * mu) ** 4)
    se_var = math.sqrt(max(c4 - (0.35 * var) ** 2, 0.0) / n)
    assert abs(np.var(x) - 0.35 * var) < 5 * se_var + 1e-9


# -- the exact tempered-stable sampler ----------------------------------------


@pytest.mark.parametrize("alpha,lam", [(1.0, 2.0), (0.3, 0.5), (2.0, 5.0)])
def test_one_sided_half_stable_sampler_is_inverse_gaussian(alpha, lam):
    # GTSD(mu, 1/2, alpha, lam, 0, 1) with mu the IG mean is InverseGaussian
    # (alpha, lam), whose cdf is closed
    ig = InverseGaussian(alpha, lam)
    spec = GTSD(ig.mean(), 0.5, alpha, lam, 0.0, 1.0)
    m, shape = ig._ig_params()
    x = spec.sample(np.random.Generator(np.random.Philox(2024)), 200_000)
    ks = stats.kstest(x, stats.invgauss(m / shape, scale=shape).cdf)
    assert ks.pvalue > 1e-3, f"KS {ks.statistic:.2e}, p {ks.pvalue:.2e}"


@given(beta=st.floats(0.05, 0.95), mu=st.floats(-1.0, 1.0),
       alpha_pos=st.floats(0.1, 2.0), alpha_neg=st.floats(0.0, 2.0),
       lam_pos=st.floats(0.5, 5.0), lam_neg=st.floats(0.5, 5.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_sample_conv_matches_mixture_cumulants(beta, mu, alpha_pos,
                                               alpha_neg, lam_pos, lam_neg,
                                               seed):
    """Given s_i ~ U(0, 1), X_i ~ X^{*s_i} has cumulants s_i C_k; the
    sample mean and variance are held against s-bar C1 and
    s-bar C2 + Var(s) C1^2, with SEs from C2..C4."""
    spec = GTSD(mu, beta, alpha_pos, lam_pos, alpha_neg, lam_neg)
    c1, c2, c3, c4 = (cumulant(spec, k) for k in (1, 2, 3, 4))
    rng = np.random.Generator(np.random.Philox(seed))
    n = 20_000
    s = rng.random(n)
    x = spec.sample_conv(rng, s)
    assert np.all(np.isfinite(x))
    z_mean = (x.mean() - s.mean() * c1) / math.sqrt(s.mean() * c2 / n)
    d = c1 * (s - s.mean())
    var_se = math.sqrt(np.sum(s * c4 + 2.0 * (s * c2) ** 2
                              + 4.0 * d * d * s * c2 + 4.0 * d * s * c3)) / n
    z_var = (np.var(x, ddof=1) - s.mean() * c2
             - np.var(s, ddof=1) * c1 * c1) / var_se
    assert abs(z_mean) <= 5.0 and abs(z_var) <= 5.0, (z_mean, z_var)


def test_tempered_sample_conv_is_deterministic():
    # about 1.4e5 pieces: several rounds of the chunked loop
    spec = CGMY(5.0, 0.5, 2.0, 3.0)
    s = np.random.default_rng(1).random(5_000)
    a = spec.sample_conv(np.random.Generator(np.random.Philox(9)), s)
    b = spec.sample_conv(np.random.Generator(np.random.Philox(9)), s)
    assert np.array_equal(a, b)


def test_open_unit_excludes_both_ends():
    class Extremes:
        def random(self, out):
            out[:] = [0.0, 2.0**-53, 0.5 - 2.0**-54, 1.0 - 2.0**-53]

    v = _open_unit(Extremes(), np.empty(4))
    assert np.all((v > 0.0) & (v < 1.0))


@pytest.mark.parametrize("beta", [0.02, 0.5, 0.95])
def test_tempered_sampler_finite_at_beta_ends(beta):
    rng = np.random.Generator(np.random.Philox(3))
    with np.errstate(all="raise"):
        x = CGMY(1.0, beta, 2.0, 3.0).sample(rng, 10**5)
    assert np.all(np.isfinite(x))


def test_tempered_sampler_memory_is_bounded():
    # 50 000 entries of about 560 pieces each: arrays over all 2.8e7 pieces
    # at once would take several hundred MB
    spec = CGMY(50.0, 0.5, 2.0, 3.0)
    rng = np.random.Generator(np.random.Philox(4))
    tracemalloc.start()
    try:
        x = spec.sample(rng, 50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"
    assert abs(x.mean() - spec.mean()) < 5.0 * math.sqrt(spec.variance()
                                                         / x.size)


# -- the cf against an independent Levy-Khintchine integral -------------------


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_cf_matches_levy_khintchine_quadrature(spec):
    """cf(t) = exp(itb + int (e^{itu} - 1) nu(du)) with the integral by
    adaptive quadrature (exact over atoms) and b the uncompensated drift,
    read off the parameters: drift0, or for GTSD mu minus int u nu(du)."""
    meas = spec.measure
    b = spec.drift0
    if isinstance(spec, GTSD):
        b -= integrate_levy(meas, lambda u: u, cfg=QCFG)
    for t in (-3.0, -1.0, -0.3, 0.3, 1.0, 3.0):
        re = integrate_levy(meas, lambda u: math.cos(t * u) - 1.0, cfg=QCFG)
        im = integrate_levy(meas, lambda u: math.sin(t * u), cfg=QCFG)
        want = np.exp(1j * t * b + re + 1j * im)
        assert abs(complex(spec.cf(t)) - want) < 1e-10, t


# -- convolution powers via the cf --------------------------------------------


TGRID = np.linspace(-3.0, 3.0, 1201)


def _log_cf(spec, t):
    """Continuous branch of log cf, anchored at log cf(0) = 0.

    A plain f**s uses the principal branch and breaks once arg(cf) winds
    past pi (it does for inverse Gaussian already at |t| ~ 3), so unwrap
    the phase along the grid instead.
    """
    f = spec.cf(t)
    arg = np.unwrap(np.angle(f))
    arg = arg - arg[np.argmin(np.abs(t))]
    return np.log(np.abs(f)) + 1j * arg


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
@pytest.mark.parametrize("s", [0.3, 0.7])
def test_conv_power_cf_law(spec, s):
    """phi_s = exp(s log phi) for the continuous log branch, plus the
    branch-free product form phi_s * phi_{1-s} = phi."""
    conv = spec.conv_power(s)
    fs = conv.cf(TGRID)
    assert np.max(np.abs(fs - np.exp(s * _log_cf(spec, TGRID)))) < 1e-10
    f = spec.cf(TGRID)
    assert np.max(np.abs(fs * spec.conv_power(1.0 - s).cf(TGRID) - f)) < 1e-10


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_conv_power_semigroup(spec):
    got = spec.conv_power(0.6).conv_power(0.5).cf(TGRID)
    assert np.max(np.abs(got - np.exp(0.3 * _log_cf(spec, TGRID)))) < 1e-10


def test_conv_power_rejects_outside_unit_interval():
    from levy_stein import InvalidParams
    with pytest.raises(InvalidParams):
        Gamma(2.0, 1.5).conv_power(2.0)
    with pytest.raises(InvalidParams):
        Gamma(2.0, 1.5).conv_power(-0.1)


def test_conv_power_preserves_family():
    assert isinstance(Gamma(2.0, 1.5).conv_power(0.5), Gamma)
    assert isinstance(Laplace(0.1, 1.0).conv_power(0.5), VGD)
    assert isinstance(TwoSidedExp(2.0, 3.0).conv_power(0.5), BGD)


# -- cdfs ----------------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_scalar_cdf_is_cdf_fn(spec):
    """One cdf formula per family: at 50 of the table knots (where a
    tabulated cdf_fn reproduces its knot values) cdf(x) is cdf_fn(x)."""
    lo, hi = _cdf_range(spec, QCFG)
    x = np.linspace(lo, hi, 2049)[::41]
    scalar = np.array([spec.cdf(float(v), QCFG) for v in x])
    assert np.max(np.abs(scalar - spec.cdf_fn(QCFG)(x))) < 1e-12


@pytest.mark.parametrize("spec,want", [
    (Gamma(2.0, 1.5), lambda x: gammainc(2.0, 1.5 * np.maximum(x, 0))),
    (BGD(2.0, 3.0, 0.0, 4.0), lambda x: gammainc(2.0, 3.0 * np.maximum(x, 0))),
    (BGD(0.0, 3.0, 1.5, 4.0),
     lambda x: gammaincc(1.5, 4.0 * np.maximum(-x, 0))),
    # compensated: b = mu - int u nu(du) = 0.7 - 1/2
    (GTSD(0.7, 0.0, 1.0, 2.0, 0.0, 3.0),
     lambda x: gammainc(1.0, 2.0 * np.maximum(x - (0.7 - 0.5), 0))),
], ids=["gamma", "bgd-pos", "bgd-neg", "gtsd-pos"])
def test_gamma_cdf_closed(spec, want):
    # one beta = 0 side is a gamma law shifted by b (mirrored on the
    # negative side): closed, where a table would round off the kink at b
    x = np.linspace(-2.0, 10.0, 20_001)
    assert np.max(np.abs(spec.cdf_fn(QCFG)(x) - want(x))) < 1e-14


@pytest.mark.parametrize("spec,b", [
    (Gamma(0.0, 2.0), 0.0),
    (InverseGaussian(0.0, 2.0), 0.0),
    (Poisson(0.0), 0.0),
    (VGD(0.4, 0.0, 1.0, 2.0), 0.4),
    (GTSD(-0.3, 0.5, 0.0, 2.0, 0.0, 3.0), -0.3),
], ids=["gamma", "inverse_gaussian", "poisson", "vgd", "gtsd"])
def test_zero_measure_cdf_is_step_at_drift(spec, b):
    assert spec.cdf(b, QCFG) == 1.0
    assert spec.cdf(np.nextafter(b, -1.0), QCFG) == 0.0
    x = np.linspace(b - 2.0, b + 2.0, 401)
    assert np.array_equal(spec.cdf_fn(QCFG)(x), (x >= b).astype(float))


def test_poisson_cdf_steps():
    F = Poisson(2.0).cdf_fn(QCFG)
    x = np.array([-0.5, 0.0, 0.7, 1.0, 3.2])
    want = stats.poisson(2.0).cdf(np.floor(x))
    assert np.max(np.abs(F(x) - want)) < 1e-12


def test_two_sided_exp_cdf_closed():
    a, b = 2.0, 3.0
    F = TwoSidedExp(a, b).cdf_fn(QCFG)
    x = np.array([-1.5, -0.2, 0.0, 0.4, 2.0])
    want = np.where(x >= 0,
                    1.0 - (b / (a + b)) * np.exp(-a * x),
                    (a / (a + b)) * np.exp(b * x))
    assert np.max(np.abs(F(x) - want)) < 1e-12


def test_atomic_cpd_cdf_enumeration():
    # jumps at 1 and 2.5; P(X <= x) by direct lattice enumeration
    spec = CompoundPoisson(1.5, AtomicJumps(((1.0, 0.4), (2.5, 0.6))))
    F = spec.cdf_fn(QCFG)
    # brute force over Poisson counts and jump compositions
    want = 0.0
    x0 = 3.6
    for n in range(0, 40):
        pn = stats.poisson(1.5).pmf(n)
        if pn < 1e-14:
            continue
        for j in range(n + 1):  # j jumps of size 1, n-j of size 2.5
            tot = j * 1.0 + (n - j) * 2.5
            if tot <= x0:
                want += pn * math.comb(n, j) * 0.4**j * 0.6 ** (n - j)
    assert F(np.array([x0]))[0] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("spec", [
    BGD(2.0, 3.0, 1.0, 4.0),
    VGD(0.5, 2.0, 3.0, 4.0),
    CGMY(1.0, 0.5, 2.0, 3.0),
    InverseGaussian(1.5, 2.0),
    CompoundPoisson(2.0, GammaJumps(2.0, 1.5)),
    GTSD(0.7, 0.5, 1.0, 2.0, 0.5, 3.0),
], ids=lambda s: s.family)
def test_cdf_vs_empirical(spec):
    rng = np.random.default_rng(11)
    n = 100_000
    x = np.sort(spec.sample(rng, n))
    F = spec.cdf_fn(QCFG)
    # atom-aware KS: at each distinct value v compare F(v) with the
    # fraction <= v and the left limit F(v-) with the fraction < v
    vals, counts = np.unique(x, return_counts=True)
    cum_hi = np.cumsum(counts) / n
    cum_lo = cum_hi - counts / n
    f_hi = F(vals)
    f_lo = F(vals - 1e-9 * np.maximum(np.abs(vals), 1.0))
    ks = max(np.max(np.abs(f_hi - cum_hi)), np.max(np.abs(f_lo - cum_lo)))
    # KS_0.999 ~ 1.95/sqrt(n); tabulated cdfs get some slack on top
    assert ks < 0.02, f"{spec.family}: KS {ks:.4f}"


def test_cdf_monotone_and_limits():
    # CGMY(1, 0.02, 2, 3) needs 7.2e6 terms of the cdf series
    for spec in (CGMY(1.0, 0.5, 2.0, 3.0), VGD(0.5, 2.0, 3.0, 4.0),
                 CGMY(1.0, 0.02, 2.0, 3.0), GTSD(0.5, 0.5, 1.0, 2.0, 0.5, 3.0)):
        F = spec.cdf_fn(QCFG)
        lo, hi = _cdf_range(spec, QCFG)
        x = np.linspace(lo, hi, 301)
        fx = F(x)
        assert np.all(np.diff(fx) >= -1e-12)
        assert fx[1] < 1e-3 and fx[-2] > 1 - 1e-3
        assert np.all((fx >= 0) & (fx <= 1))


@pytest.mark.parametrize("alpha,lam", [(1.0, 2.0), (0.3, 0.5), (2.0, 5.0)])
def test_one_sided_half_stable_cdf_is_inverse_gaussian(alpha, lam):
    # a one-sided tempered stable law with beta = 1/2 is inverse Gaussian,
    # so the series cdf must reproduce the closed IG cdf at the table knots
    ig = InverseGaussian(alpha, lam)
    spec = GTSD(ig.mean(), 0.5, alpha, lam, 0.0, 1.0)
    lo, hi = _cdf_range(spec, QCFG)
    x = np.linspace(lo, hi, 2049)[1:-1]
    assert np.max(np.abs(spec.cdf_fn(QCFG)(x) - ig.cdf_fn(QCFG)(x))) < 1e-12
    for v in x[::256]:
        assert spec.cdf(float(v), QCFG) == pytest.approx(ig.cdf(float(v)),
                                                         abs=1e-12)


@pytest.mark.parametrize("spec", [
    CompoundPoisson(20_000.0, AtomicJumps(((1.0, 0.5), (2.0, 0.5)))),
    CompoundPoisson(20_000.0, GammaJumps(2.0, 1.5)),
], ids=["atoms", "gamma-jumps"])
def test_cdf_past_jump_count_cap_raises(spec):
    # 10 000 Poisson terms cover about 9 000 expected jumps; past that the
    # cdf is refused, not truncated to a distribution that sums to ~0
    with pytest.raises(NonConvergence, match="10 000 terms"):
        spec.cdf_fn(QCFG)


def test_poisson_cdf_exact_past_jump_count_cap():
    # Poisson keeps its closed cdf, which needs no jump-count lattice
    lam = 20_000.0
    x = np.linspace(lam - 600.0, lam + 600.0, 2401)
    F = Poisson(lam).cdf_fn(QCFG)(x)
    assert np.max(np.abs(F - stats.poisson(lam).cdf(np.floor(x)))) < 1e-12
    assert Poisson(lam).cdf(lam, QCFG) == pytest.approx(0.50188, abs=1e-5)


def test_cdf_series_too_long_raises_promptly():
    # |cf| falls below 1e-12 only past t ~ 2.7e8: 3.6e9 series terms
    spec = CGMY(0.6, 0.02, 2.0, 3.0)
    t0 = time.perf_counter()
    with pytest.raises(NonConvergence, match="beta=0.02"):
        spec.cdf_fn(QCFG)
    with pytest.raises(NonConvergence, match="N = 3.56e"):
        spec.cdf(0.0, QCFG)
    assert time.perf_counter() - t0 < 5.0


# -- parametrization maps ------------------------------------------------------


@given(sigma2=st.floats(0.1, 5.0), r=st.floats(0.1, 5.0),
       theta=st.floats(-2.0, 2.0), mu0=st.floats(-1.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_vgd_alt_roundtrip(sigma2, r, theta, mu0):
    alt = VGDAltParams(mu0=mu0, sigma2=sigma2, r=r, theta=theta)
    back = vgd_to_alt(vgd_from_alt(alt))
    assert back.sigma2 == pytest.approx(sigma2, rel=1e-9)
    assert back.r == pytest.approx(r, rel=1e-9)
    assert back.theta == pytest.approx(theta, rel=1e-9, abs=1e-12)
    assert back.mu0 == pytest.approx(mu0, rel=1e-9, abs=1e-12)


def test_convert_drift_roundtrip():
    spec = GTSD(0.7, 0.5, 1.0, 2.0, 0.5, 3.0)
    mu_unc = convert_drift(spec, to="uncompensated")
    mu_comp = convert_drift(spec, to="compensated")
    assert mu_comp == pytest.approx(spec.mean(QCFG), rel=1e-10)
    # uncompensated drift + jump mean = mean
    jump_mean = spec.measure.moment(1, QCFG)
    assert mu_unc + jump_mean == pytest.approx(spec.mean(QCFG), rel=1e-9)


def test_esscher_kappa_max():
    assert Gamma(2.0, 1.5).esscher_kappa_max() == pytest.approx(1.5)
    assert BGD(2.0, 3.0, 1.0, 4.0).esscher_kappa_max() == pytest.approx(3.0)
    assert math.isinf(Poisson(2.0).esscher_kappa_max())
