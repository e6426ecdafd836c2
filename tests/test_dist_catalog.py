"""Distribution catalog: construction validation, closed moments vs the
Levy route, samplers vs moments, drawn convolution powers, cdfs."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.interpolate import PchipInterpolator
from scipy.special import betainc, gammainc, gammaincc, gammaincinv

from levy_stein import (BGD, CGMY, GTSD, VGD, AtomicJumps, CompoundPoisson,
                        DivergentMoment, Gamma, GammaJumps, InvalidParams,
                        InverseGaussian, Laplace, NonConvergence, Poisson,
                        TwoSidedExp, ValidationError, cumulant, make_spec,
                        vgd_from_alt, vgd_to_alt)
from levy_stein import JointPairSampler, MCConfig, dist_catalog, gini
from levy_stein.dist_catalog import (CdfTable, VGDAltParams, _cdf_range,
                                     _cos_cdf, _cos_cdf_knots, _gamma_diff_cdf,
                                     _ig_mean_shape, _open_unit, cdf_route)

from quad_oracle import QuadratureConfig, integrate_levy, mean_levy

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
    assert mean_levy(spec, QCFG) == pytest.approx(spec.mean(),
                                                  rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_variance_is_second_levy_moment(spec):
    want = integrate_levy(spec.measure, lambda u: u**2, cfg=QCFG)
    assert spec.variance() == pytest.approx(want, rel=1e-8)


def test_gamma_jumps_coefficient_out_of_range_raises():
    # rate b^a / Gamma(a) = 1/199! rounds to 0, which would drop the jumps
    # from nu and report a mean of 0
    with pytest.raises(DivergentMoment, match=r"Ga\(200, 1\)"):
        CompoundPoisson(1.0, GammaJumps(200.0, 1.0)).mean()


def test_gamma_closed_moments():
    g = Gamma(2.0, 1.5)
    assert g.mean() == pytest.approx(2.0 / 1.5, rel=1e-14)
    assert g.variance() == pytest.approx(2.0 / 1.5**2, rel=1e-14)


# -- samplers vs moments ------------------------------------------------------


@pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=SAMPLER_IDS)
def test_sampler_matches_moments(spec):
    rng = np.random.default_rng(99)
    n = 200_000
    x = spec.sample(rng, n)
    assert x.shape == (n,)
    mu, var = spec.mean(), spec.variance()
    se_mean = math.sqrt(var / n)
    assert abs(np.mean(x) - mu) < 5 * se_mean, f"{spec.family} mean off"
    # crude SE for the sample variance via the fourth central moment
    c4 = np.mean((x - mu) ** 4)
    se_var = math.sqrt(max(c4 - var**2, 0.0) / n)
    assert abs(np.var(x) - var) < 5 * se_var + 1e-9, f"{spec.family} var off"


@pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=SAMPLER_IDS)
def test_sample_conv_fractional_power(spec):
    """At one power s per call X^{*s} has cumulants s C_j: the sample mean
    and variance are held against s C_1 and s C_2, with SEs from s C_2 and
    s C_4; X^{*0} is exactly 0."""
    rng = np.random.default_rng(7)
    n = 100_000
    assert np.all(spec.sample_conv(rng, 0.0, 1_000) == 0.0)
    c1, c2, c4 = (cumulant(spec, k) for k in (1, 2, 4))
    for s in (0.25, 0.5, 1.0):
        x = spec.sample_conv(rng, s, n)
        assert x.shape == (n,)
        z_mean = (x.mean() - s * c1) / math.sqrt(s * c2 / n)
        z_var = ((np.var(x, ddof=1) - s * c2)
                 / math.sqrt((s * c4 + 2.0 * (s * c2) ** 2) / n))
        assert abs(z_mean) <= 5.0 and abs(z_var) <= 5.0, (s, z_mean, z_var)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_sample_conv_refuses_negative_and_non_finite_powers(spec):
    # X^{*s} exists for s >= 0 only: every family refuses the others with
    # InvalidParams (exit 2) rather than numpy's ValueError or zeros
    rng = np.random.default_rng(3)
    for s in (-0.1, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParams, match="convolution power"):
            spec.sample_conv(rng, s, 3)
    assert np.all(spec.sample_conv(rng, 0.0, 3) == 0.0)


# -- the exact tempered-stable sampler ----------------------------------------


@pytest.mark.parametrize("alpha,lam", [(1.0, 2.0), (0.3, 0.5), (2.0, 5.0)])
def test_one_sided_half_stable_sampler_is_inverse_gaussian(alpha, lam):
    # GTSD(mu, 1/2, alpha, lam, 0, 1) with mu the IG mean is InverseGaussian
    # (alpha, lam), whose cdf is closed
    ig = InverseGaussian(alpha, lam)
    spec = GTSD(ig.mean(), 0.5, alpha, lam, 0.0, 1.0)
    m, shape = _ig_mean_shape(alpha, lam)
    x = spec.sample(np.random.Generator(np.random.Philox(2024)), 200_000)
    ks = stats.kstest(x, stats.invgauss(m / shape, scale=shape).cdf)
    assert ks.pvalue > 1e-3, f"KS {ks.statistic:.2e}, p {ks.pvalue:.2e}"


@pytest.mark.parametrize("alpha,lam", [(1.0, 2.0), (0.3, 0.5), (2.0, 5.0)])
def test_half_stable_conv_power_is_inverse_gaussian(alpha, lam):
    # X^{*0.3} of the half-stable GTSD of InverseGaussian(alpha, lam) is
    # InverseGaussian(0.3 alpha, lam)
    spec = GTSD(InverseGaussian(alpha, lam).mean(), 0.5, alpha, lam, 0.0, 1.0)
    m, shape = _ig_mean_shape(0.3 * alpha, lam)
    x = spec.sample_conv(np.random.Generator(np.random.Philox(2025)), 0.3,
                         200_000)
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
    """Draws at eight powers s_j ~ U(0, 1), one call each and pooled,
    have cumulants s_i C_k entry by entry; the sample mean and variance
    are held against s-bar C1 and s-bar C2 + Var(s) C1^2, with SEs from
    C2..C4."""
    spec = GTSD(mu, beta, alpha_pos, lam_pos, alpha_neg, lam_neg)
    c1, c2, c3, c4 = (cumulant(spec, k) for k in (1, 2, 3, 4))
    rng = np.random.Generator(np.random.Philox(seed))
    n, calls = 20_000, 8
    powers = rng.random(calls)
    s = np.repeat(powers, n // calls)
    x = np.concatenate([spec.sample_conv(rng, p, n // calls)
                        for p in powers])
    assert np.all(np.isfinite(x))
    z_mean = (x.mean() - s.mean() * c1) / math.sqrt(s.mean() * c2 / n)
    d = c1 * (s - s.mean())
    var_se = math.sqrt(np.sum(s * c4 + 2.0 * (s * c2) ** 2
                              + 4.0 * d * d * s * c2 + 4.0 * d * s * c3)) / n
    z_var = (np.var(x, ddof=1) - s.mean() * c2
             - np.var(s, ddof=1) * c1 * c1) / var_se
    assert abs(z_mean) <= 5.0 and abs(z_var) <= 5.0, (z_mean, z_var)


def test_tempered_sample_conv_is_deterministic():
    # about 9e4 pieces a side: many blocks of the pooled loop
    spec = CGMY(5.0, 0.5, 2.0, 3.0)
    a = spec.sample_conv(np.random.Generator(np.random.Philox(9)), 0.7, 5_000)
    b = spec.sample_conv(np.random.Generator(np.random.Philox(9)), 0.7, 5_000)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=SAMPLER_IDS)
@pytest.mark.parametrize("seed", [3, 41])
def test_scalar_power_draws_as_array_power(spec, seed):
    # the pair's batch carries an array of powers, the Gauss-Legendre node
    # of each entry's share; it is drawn share by share at one scalar power
    # per call (A, B ~ X^{*(1 - s_j)}, then C ~ X^{*s_j}), so scalar calls
    # replay it bit for bit. sample is sample_conv's case s = 1
    n = 2_001  # shares of 1001 and 1000 at the two nodes of order 4

    def rng():
        return np.random.Generator(np.random.Philox(seed))

    assert np.array_equal(spec.sample(rng(), n),
                          spec.sample_conv(rng(), 1.0, n))
    pair = JointPairSampler(spec, order=4)
    x, y, w = pair.sample(rng(), n)
    r, lo = rng(), 0
    for s, weight, m in zip(pair.nodes, pair.weights, (1001, 1000)):
        a, b = (spec.sample_conv(r, 1.0 - s, m) for _ in range(2))
        c = spec.sample_conv(r, s, m)
        assert np.array_equal(x[lo:lo + m], a + c)
        assert np.array_equal(y[lo:lo + m], b + c)
        assert np.all(w[lo:lo + m] == weight * n / m)
        lo += m


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


@pytest.mark.parametrize("size", [125, 800])
def test_tempered_sampler_takes_few_blocks(monkeypatch, size):
    # every piece of a side is kept with one probability, so blocks sized
    # from it keep the side's pieces in two or three draws of candidates
    calls = []
    real = dist_catalog._open_unit

    def counted(rng, out):
        calls.append(out.shape)
        return real(rng, out)

    monkeypatch.setattr(dist_catalog, "_open_unit", counted)
    x = CGMY(1.0, 0.5, 2.0, 3.0).sample(
        np.random.Generator(np.random.Philox(5)), size)
    assert np.all(np.isfinite(x))
    assert len(calls) <= 6, calls  # at most 3 a side


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
# the points t = -2.5, -1, 0.5, 1.5 and 3 of TGRID, where drawn laws are
# held to their cf
CF_IDX = [100, 400, 700, 900, 1200]


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


def assert_ecf_within_5se(x, t, want, label=""):
    """The empirical cf of the draws x at the points t lies within 5 SE of
    want, its real and imaginary parts each, with the SEs of the sample
    means of cos(tx) and sin(tx) taken from the sample."""
    tx = np.outer(t, x)
    for part, w in ((np.cos(tx), want.real), (np.sin(tx), want.imag)):
        se = part.std(axis=1, ddof=1) / math.sqrt(x.size)
        z = np.abs(part.mean(axis=1) - w) / se
        assert np.all(z <= 5.0), (label, z)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
@pytest.mark.parametrize("s", [0.3, 0.7])
def test_conv_power_cf_law(spec, s):
    """X^{*s} as `sample_conv` draws it has cf phi^s = exp(s log phi) on
    the continuous log branch, and plus an independent X^{*(1-s)} it has
    the cf phi of X."""
    rng = np.random.default_rng(round(10 * s))
    t, log_f = TGRID[CF_IDX], _log_cf(spec, TGRID)[CF_IDX]
    x = spec.sample_conv(rng, s, 20_000)
    assert_ecf_within_5se(x, t, np.exp(s * log_f), f"s={s}")
    x += spec.sample_conv(rng, 1.0 - s, x.size)
    assert_ecf_within_5se(x, t, np.exp(log_f), f"s={s} plus 1-s")


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_conv_power_semigroup(spec):
    """Independent draws of X^{*0.1} and X^{*0.2} sum to X^{*0.3}: cf
    exp(0.3 log phi)."""
    rng = np.random.default_rng(3)
    x = spec.sample_conv(rng, 0.1, 20_000) + spec.sample_conv(rng, 0.2, 20_000)
    assert_ecf_within_5se(x, TGRID[CF_IDX],
                          np.exp(0.3 * _log_cf(spec, TGRID)[CF_IDX]))


# -- cdfs ----------------------------------------------------------------------


def test_scalar_cdf_builds_one_gamma_mixture(monkeypatch):
    """cdf(x) reads the spec's one closed -> triplet choice: 200 calls on
    compound Poisson with Ga(2, 3) jumps build one `_GammaMixtureCdf`, and
    give cdf_fn()'s values bit for bit."""
    built = []
    init = dist_catalog._GammaMixtureCdf.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(dist_catalog._GammaMixtureCdf, "__init__", counted)
    spec = CompoundPoisson(1.5, GammaJumps(2.0, 3.0))
    x = np.linspace(-0.5, 6.0, 200)
    scalar = [spec.cdf(float(v)) for v in x]
    assert len(built) == 1
    assert scalar == spec.cdf_fn()(x).tolist()
    assert len(built) == 1


def test_scalar_cdf_builds_one_lattice(monkeypatch):
    # the atomic law's jump lattice is summed once per spec, not per call
    calls = []
    lattice = dist_catalog._lattice
    monkeypatch.setattr(dist_catalog, "_lattice",
                        lambda atoms: calls.append(atoms) or lattice(atoms))
    spec = CompoundPoisson(1.5, AtomicJumps(((1.0, 0.4), (2.5, 0.6))))
    for v in np.linspace(-1.0, 10.0, 50):
        spec.cdf(float(v))
    assert len(calls) == 1


def test_scalar_cos_cdf_keeps_its_series(monkeypatch):
    # the range, the cf cutoff and every cf term are found once per spec,
    # and each value is the series summed afresh, bit for bit
    calls = []
    cutoff = dist_catalog._cf_cutoff
    monkeypatch.setattr(dist_catalog, "_cf_cutoff",
                        lambda spec: calls.append(spec) or cutoff(spec))
    spec = CGMY(1.0, 0.5, 2.0, 3.0)
    lo, hi = _cdf_range(spec)
    x = np.r_[0.1, np.linspace(-2.0, 2.0, 19)]
    got = [spec.cdf(float(v)) for v in x]
    assert len(calls) == 1 and spec._exact_cdf[1] == "cos"
    monkeypatch.undo()
    for v, f in zip(x, got):
        d = v - lo
        val, theta = d / (hi - lo), math.pi * d / (hi - lo)
        for k, c in dist_catalog._cos_terms(spec, lo, hi):
            val += np.sin(np.multiply.outer(np.array([theta]), k)) @ c
        assert f == float(np.clip(val, 0.0, 1.0)[0]), v


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_scalar_cdf_is_cdf_fn(spec):
    """One cdf formula per family: at 50 of the table knots (where a
    tabulated cdf_fn reproduces its knot values) cdf(x) is cdf_fn(x), bit
    for bit where both run the triplet's closed F."""
    lo, hi = _cdf_range(spec)
    x = np.linspace(lo, hi, 2049)[::41]
    scalar = np.array([spec.cdf(float(v)) for v in x])
    assert np.max(np.abs(scalar - spec.cdf_fn()(x))) < 1e-12
    if spec._exact_cdf[1] == "triplet":
        assert scalar.tolist() == spec.cdf_fn()(x).tolist()


# ALL_SPECS plus GTSD at beta = 0 and the two laws whose cdf fell short
# of 1 at +inf
LIMIT_SPECS = ALL_SPECS + [GTSD(0.7, 0.0, 1.0, 2.0, 0.5, 3.0),
                           VGD(0.2, 1.5, 3.0, 4.0),
                           CompoundPoisson(1.5, GammaJumps(2.0, 3.0))]


@pytest.mark.parametrize("spec", LIMIT_SPECS,
                         ids=[f"{s.family}-{i}" for i, s in
                              enumerate(LIMIT_SPECS)])
def test_cdf_at_non_finite_x(spec):
    # nan -> nan, -inf -> 0, +inf -> exactly 1, without a lattice, series
    # or quadrature run at them; finite entries beside them are unchanged
    assert math.isnan(spec.cdf(math.nan))
    assert (spec.cdf(-math.inf), spec.cdf(math.inf)) == (0.0, 1.0)
    F = spec.cdf_fn()
    m = spec.mean()
    got = F(np.array([np.nan, -np.inf, m, np.inf]))
    assert np.isnan(got[0])
    assert got[1:].tolist() == [0.0, F(np.array([m]))[0], 1.0]


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
    assert np.max(np.abs(spec.cdf_fn()(x) - want(x))) < 1e-14


@pytest.mark.parametrize("spec,b", [
    (Gamma(0.0, 2.0), 0.0),
    (InverseGaussian(0.0, 2.0), 0.0),
    (Poisson(0.0), 0.0),
    (VGD(0.4, 0.0, 1.0, 2.0), 0.4),
    (GTSD(-0.3, 0.5, 0.0, 2.0, 0.0, 3.0), -0.3),
], ids=["gamma", "inverse_gaussian", "poisson", "vgd", "gtsd"])
def test_zero_measure_cdf_is_step_at_drift(spec, b):
    assert spec.cdf(b) == 1.0
    assert spec.cdf(np.nextafter(b, -1.0)) == 0.0
    x = np.linspace(b - 2.0, b + 2.0, 401)
    assert np.array_equal(spec.cdf_fn()(x), (x >= b).astype(float))


def test_poisson_cdf_steps():
    F = Poisson(2.0).cdf_fn()
    x = np.array([-0.5, 0.0, 0.7, 1.0, 3.2])
    want = stats.poisson(2.0).cdf(np.floor(x))
    assert np.max(np.abs(F(x) - want)) < 1e-12


def test_two_sided_exp_cdf_closed():
    a, b = 2.0, 3.0
    F = TwoSidedExp(a, b).cdf_fn()
    x = np.array([-1.5, -0.2, 0.0, 0.4, 2.0])
    want = np.where(x >= 0,
                    1.0 - (b / (a + b)) * np.exp(-a * x),
                    (a / (a + b)) * np.exp(b * x))
    assert np.max(np.abs(F(x) - want)) < 1e-12


def test_atomic_cpd_cdf_enumeration():
    # jumps at 1 and 2.5; P(X <= x) by direct lattice enumeration
    spec = CompoundPoisson(1.5, AtomicJumps(((1.0, 0.4), (2.5, 0.6))))
    F = spec.cdf_fn()
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


def _per_term_gamma_mixture(rate, a, y, upper=False):
    """The gamma-jump cdf one gammainc call per term: e^{-rate} + sum_n
    w_n P(a n, y) over n ~ Poisson(rate), or sum_n w_n Q(a n, y) for the
    mirrored side, with n up to the first count whose tail P(N > n) is at
    most 1e-15, as in the catalog."""
    n = np.arange(1, int(rate + 40.0 * math.sqrt(rate)) + 40)
    n = n[:np.argmax(stats.poisson(rate).sf(n) <= 1e-15) + 1]
    inc = gammaincc if upper else gammainc
    out = np.full_like(y, 0.0 if upper else math.exp(-rate))
    for n_, w_n in zip(n, stats.poisson(rate).pmf(n)):
        out += w_n * inc(a * n_, y)
    return out


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 2.5, 3.0, math.sqrt(2.0),
                               175.0])
@pytest.mark.parametrize("rate", [0.1, 1.5, 20.0, 300.0])
def test_gamma_jump_cdf_is_the_per_term_mixture(rate, a):
    # one gammainc call per class of shapes a whole number of steps apart
    # and positive Poisson terms for the rest: the per-term mixture to
    # rounding wherever F is well above underflow, both on the positive
    # side and mirrored
    b = 3.0
    spec = CompoundPoisson(rate, GammaJumps(a, b))
    t = np.union1d(np.geomspace(1e-12, 1.0, 200),
                   np.linspace(0.0, spec.mean() + 12.0 * spec.std(), 400))
    tol = 1e-13 if rate <= 1.5 else 3e-12
    F = spec.cdf_fn()(t)
    mirrored = dist_catalog._GammaMixtureCdf(spec.measure.pos_structure,
                                             -1.0, 0.0)
    for got, want in (
            (F, _per_term_gamma_mixture(rate, a, b * t)),
            (mirrored(-t[1:]),
             _per_term_gamma_mixture(rate, a, b * t[1:], upper=True))):
        kept = want > 1e-290
        assert np.max(np.abs(got[kept] - want[kept]) / want[kept]) <= tol
    # the atom at 0 (t[0] = 0) and nothing below it
    assert F[0] == pytest.approx(math.exp(-rate), rel=1e-13)
    assert spec.cdf(-1e-300) == 0.0
    # monotone up to the rounding of the sum, a few ulps of F
    assert np.all(np.diff(F) >= -16 * np.finfo(float).eps * F[1:])


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
    F = spec.cdf_fn()
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
                 CGMY(1.0, 0.02, 2.0, 3.0), GTSD(0.5, 0.5, 1.0, 2.0, 0.5, 3.0),
                 BGD(0.5, 3.0, 0.5, 4.0)):
        F = spec.cdf_fn()
        lo, hi = _cdf_range(spec)
        x = np.linspace(lo, hi, 301)
        fx = F(x)
        assert np.all(np.diff(fx) >= -1e-12)
        assert fx[1] < 1e-3 and fx[-2] > 1 - 1e-3
        assert np.all((fx >= 0) & (fx <= 1))


def _gamma_diff_cdf_reference(t, ap, lp, an, ln_):
    """P(Ga(ap, lp) - Ga(an, ln_) <= t) by the quantile transform of one
    side: for t <= 0, F = int_0^1 Q(an, ln_ (W(p) + |t|)) dp with W the
    quantile function of Ga(ap, lp) and Q the upper regularized incomplete
    gamma function; for t > 0 the sides swap and the integral is 1 - F."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    for left, (a_q, l_q, a_w, l_w) in ((True, (an, ln_, ap, lp)),
                                       (False, (ap, lp, an, ln_))):
        on = (t <= 0) == left
        if on.any():
            d = np.abs(t[on])
            val, _ = integrate.quad_vec(
                lambda p: gammaincc(a_q, l_q * (gammaincinv(a_w, p) / l_w + d)),
                0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=10_000,
                norm="max")
            out[on] = val if left else 1.0 - val
    return out


# two-sided beta = 0 laws: shapes down to 0.01 and up to (200, 150), rates
# skewed 400 to 1, and a drift
GAMMA_DIFF_SPECS = [
    BGD(2.0, 3.0, 1.0, 4.0), BGD(1.5, 3.0, 1.5, 4.0), BGD(0.5, 3.0, 0.5, 4.0),
    BGD(0.2, 1.0, 0.1, 2.0), BGD(0.05, 3.0, 0.05, 4.0),
    BGD(0.01, 3.0, 0.01, 4.0), BGD(0.01, 1.0, 2.0, 5.0), BGD(5.0, 1.0, 7.0, 2.0),
    BGD(3.0, 0.05, 2.0, 20.0), BGD(200.0, 3.0, 150.0, 4.0),
    VGD(0.2, 1.5, 3.0, 4.0),
]


@pytest.mark.parametrize("spec", GAMMA_DIFF_SPECS, ids=str)
def test_gamma_diff_cdf_knots_against_quantile_reference(spec):
    lo, hi = _cdf_range(spec)
    x = np.linspace(lo, hi, 2049)
    vals, err = _gamma_diff_cdf(spec, x)
    assert spec._exact_cdf[1] == "double_exponential" and err <= 1e-13
    pos, neg = spec.measure.pos_structure, spec.measure.neg_structure
    want = _gamma_diff_cdf_reference(x - spec.drift, pos.coef, pos.rate,
                                     neg.coef, neg.rate)
    assert np.max(np.abs(vals - want)) <= 1e-11
    # the scalar cdf runs the same rule on one point
    table = spec.cdf_fn()(x[::128])
    for v, f in zip(x[::128], table):
        assert spec.cdf(v) == pytest.approx(f, abs=1e-12)


def test_large_shape_bgd_cdf_finds_the_bulk():
    # conditioning on G- ~ Ga(150, 4), the whole value comes from its bulk
    # near 37, far from the kink of the integrand at v = 0
    x = 8.087389224116606
    spec = BGD(200.0, 3.0, 150.0, 4.0)
    g_pos, g_neg = stats.gamma(200.0, scale=1 / 3.0), stats.gamma(150.0,
                                                               scale=0.25)
    cuts = g_neg.ppf([1e-16, 0.01, 0.5, 0.99, 1 - 1e-16])
    want = sum(integrate.quad(lambda v: g_pos.cdf(x + v) * g_neg.pdf(v), a, b,
                              epsabs=1e-16, epsrel=1e-12, limit=500)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))
    assert want == pytest.approx(5.82567733e-5, rel=1e-8)
    assert spec.cdf(x) == pytest.approx(want, rel=1e-9)


def test_gamma_diff_cdf_exact_at_the_drift():
    # F(b) = P(G+ <= G-) = I_{l+/(l+ + l-)}(a+, a-), the regularized
    # incomplete beta function: the integrand's endpoint singularity at its
    # strongest, u^(a+ + a- - 1) with a+ + a- = 0.02
    for spec in (BGD(0.01, 3.0, 0.01, 4.0), BGD(0.5, 3.0, 0.5, 4.0),
                 BGD(2.0, 3.0, 1.0, 4.0)):
        ap, lp, an, ln_ = (spec.alpha_pos, spec.lam_pos, spec.alpha_neg,
                           spec.lam_neg)
        assert spec.cdf(0.0) == pytest.approx(betainc(ap, an, lp / (lp + ln_)),
                                              abs=1e-13)


def test_gamma_diff_cdf_past_level_cap_raises(monkeypatch):
    monkeypatch.setattr(dist_catalog, "_DE_MAX_LEVEL", 1)
    spec = BGD(2.0, 3.0, 1.0, 4.0)
    with pytest.raises(NonConvergence, match="last two levels differ"):
        spec.cdf(0.3)
    with pytest.raises(NonConvergence, match="last two levels differ"):
        spec.cdf_fn()


@pytest.mark.parametrize("spec,rule", [
    (CGMY(1.0, 0.5, 2.0, 3.0), "cos"),
    (BGD(2.0, 3.0, 1.0, 4.0), "double_exponential"),
])
def test_table_equals_pchip_interpolator(spec, rule):
    assert spec._exact_cdf[1] == rule
    table = CdfTable(spec, rule)
    lo, hi = table.lo, table.hi
    knots = np.linspace(lo, hi, 2049)
    vals = (_cos_cdf_knots(spec, lo, hi) if rule == "cos"
            else _gamma_diff_cdf(spec, knots)[0])
    pchip = PchipInterpolator(knots, np.maximum.accumulate(np.clip(vals, 0, 1)))
    x = np.concatenate([
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        0.5 * (knots[1:] + knots[:-1]),
        [lo - 1.0, hi + 1.0, -1e300, 1e300]])
    want = np.where(x <= lo, 0.0,
                    np.where(x >= hi, 1.0, pchip(np.clip(x, lo, hi))))
    assert np.array_equal(table(x), want)
    assert table(x[1000]) == want[1000]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = table(np.array([np.nan, -np.inf, np.inf]))
    assert np.isnan(got[0]) and got[1:].tolist() == [0.0, 1.0]


# (x, y, first knot's slope): the end slopes hit both shape clamps, to 0
# where the one-sided formula turns against the end secant and to 3 m0
# where the secants change sign; the tail step of 1e-320 overflows the
# harmonic mean of slopes, as in a cdf table's far tail
@pytest.mark.parametrize("x,y,d0", [
    ([0.0, 1.0, 3.0], [0.0, 0.5, 2.0], 1.25 / 3.0),
    ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 5.0, 6.0], 0.0),
    ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, -9.0, -8.0], 3.0),
    (np.linspace(0.0, 1.0, 8), [0.0, 0.0, 0.2, 0.2, 0.2, 0.7, 1.0, 1.0], 0.0),
    (np.linspace(-2.0, 2.0, 9),
     [0.0, 0.0, 1e-320, 2e-320, 0.3, 0.6, 0.9, 1.0, 1.0], 0.0),
], ids=["three-knots", "end-slope-to-zero", "end-slope-to-3m0",
        "flat-runs", "tiny-tail-step"])
def test_pchip_coefficients_equal_pchip_interpolator(x, y, d0):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        want = PchipInterpolator(x, y).c
        got = dist_catalog._pchip_coefficients(x, y)
    assert np.array_equal(got, want, equal_nan=True)
    assert got[2, 0] == d0


def test_pchip_coefficients_on_random_grids():
    # uneven steps down to 1e-300, flat runs and sign changes
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(3, 30))
        scale = rng.choice([1e-300, 1e-3, 1.0])
        x = np.cumsum(scale * rng.choice([0.01, 1.0, 9.0], n)
                      * (rng.random(n) + 0.1))
        y = scale * np.round(rng.normal(size=n), int(rng.integers(0, 3)))
        with np.errstate(all="ignore"):
            want = PchipInterpolator(x, y).c
            got = dist_catalog._pchip_coefficients(x, y)
        assert np.array_equal(got, want, equal_nan=True), (x, y)


@pytest.mark.parametrize("alpha,lam", [(1.0, 2.0), (0.3, 0.5), (2.0, 5.0)])
def test_one_sided_half_stable_cdf_is_inverse_gaussian(alpha, lam):
    # a one-sided tempered stable law with beta = 1/2 is inverse Gaussian,
    # so the COS series, over the range a table of it would span, must
    # reproduce the closed IG cdf at the knots and between them, and give
    # 0 and 1 at and beyond the range ends
    ig = InverseGaussian(alpha, lam)
    spec = GTSD(ig.mean(), 0.5, alpha, lam, 0.0, 1.0)
    lo, hi = _cdf_range(spec)
    knots = np.linspace(lo, hi, 2049)
    assert np.max(np.abs(_cos_cdf_knots(spec, lo, hi)
                         - ig.cdf_fn()(knots))) < 1e-12
    x = np.r_[lo - 1.0, knots[[0, -1]], hi + 1.0,
              0.5 * (knots[1::256] + knots[:-1:256])]
    got = _cos_cdf(spec, x)
    assert got[:4].tolist() == [0.0, 0.0, 1.0, 1.0]
    assert np.max(np.abs(got - ig.cdf_fn()(x))) < 1e-12


def test_one_atom_cdf_is_poisson():
    # one atom at loc > 0 is b + loc Poisson(mass), closed for every mass:
    # 2 10^4 expected jumps, where the lattice refuses past about 9 000
    spec = CompoundPoisson(20_000.0, AtomicJumps(((2.5, 1.0),)))
    assert cdf_route(spec) == {"route": "triplet"}
    x = np.linspace(2.5 * (20_000.0 - 600.0), 2.5 * (20_000.0 + 600.0), 2401)
    want = stats.poisson(20_000.0).cdf(np.floor(x / 2.5))
    assert np.max(np.abs(spec.cdf_fn()(x) - want)) < 1e-12


@pytest.mark.parametrize("loc", [0.1, 0.3])
def test_point_on_a_non_dyadic_atom_counts_it(loc):
    # F at the k-th point k loc counts its atom whether the point is written
    # as a decimal or computed as fl(loc k), though 0.7 / 0.1 is 6.999...:
    # one atom (closed) against P(N <= k), two atoms (lattice) against
    # P(N1 + 2 N2 <= k) by counting jumps, N, N1, N2 Poisson
    ks = np.arange(40)
    points = (np.array([float(f"{k * loc:.1f}") for k in ks]), loc * ks)
    one = CompoundPoisson(7.0, AtomicJumps(((loc, 1.0),)))
    two = CompoundPoisson(1.2, AtomicJumps(((loc, 0.5), (2 * loc, 0.5))))
    p = stats.poisson(0.6)
    want_two = [sum(p.pmf(j) * p.cdf(k - 2 * j) for j in range(k // 2 + 1))
                for k in ks]
    for x in points:
        assert np.max(np.abs(one.cdf_fn()(x)
                             - stats.poisson(7.0).cdf(ks))) < 1e-12
        assert np.max(np.abs(two.cdf_fn()(x) - want_two)) < 1e-12
    # and the scale-free index reads as at unit loc
    cfg = MCConfig(n_samples=20_000, seed=4, batch=5_000)
    for spec in (one, two):
        unit = CompoundPoisson(spec.rate, AtomicJumps(tuple(
            (u / loc, w) for u, w in spec.jumps.atoms)))
        assert gini(spec, cfg).value == pytest.approx(gini(unit, cfg).value,
                                                      rel=1e-9)


@pytest.mark.parametrize("alpha,lam", [(1.0, 2.0), (0.3, 0.5), (2.0, 5.0)])
def test_one_sided_half_stable_cdf_is_closed(alpha, lam):
    # the triplet of a positive beta = 1/2 side is b + IG(m, L) with
    # (m, L) = (alpha sqrt(pi/lam), 2 pi alpha^2), whichever family spells
    # it: no table, and scipy's inverse Gaussian to 1e-12
    m, shape = alpha * math.sqrt(math.pi / lam), 2.0 * math.pi * alpha**2
    for spec in (GTSD(m, 0.5, alpha, lam, 0.0, 1.0),
                 InverseGaussian(alpha, lam)):
        assert cdf_route(spec) == {"route": "triplet"}
        lo, hi = _cdf_range(spec)
        x = np.linspace(lo, hi, 20_001)
        want = stats.invgauss(m / shape, scale=shape).cdf(x - spec.drift)
        assert np.max(np.abs(spec.cdf_fn()(x) - want)) < 1e-12


@pytest.mark.parametrize("spec", [
    BGD(1.0, 3.0, 1.0, 4.0), VGD(0.2, 1.0, 3.0, 4.0), CGMY(1.0, 0.0, 2.0, 3.0),
], ids=lambda s: s.family)
def test_unit_shape_gamma_difference_cdf_is_two_sided_exp(spec):
    # two beta = 0 sides of coefficient 1 are b + Exp - Exp, closed: the
    # double-exponential rule at the table knots to 1e-12
    assert cdf_route(spec) == {"route": "triplet"}
    lo, hi = _cdf_range(spec)
    x = np.linspace(lo, hi, 2049)
    want = _gamma_diff_cdf(spec, x)[0]
    assert np.max(np.abs(spec.cdf_fn()(x) - want)) < 1e-12


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
def test_atomic_cdf_and_gini_are_scale_free(scale):
    # the lattice merges sums to 12 digits of the largest |loc|, so atoms
    # at 1e-13 keep their points: F(2.5 s) = P(N1 + 2 N2 <= 2) for
    # N1 ~ Poisson(0.72), N2 ~ Poisson(0.48), and the scale-free index
    # reads the same at every scale: (2/mu) Cov(X, F(X)) summed over the
    # pmf of N1 + 2 N2 is 0.4398668123
    spec = CompoundPoisson(1.2, AtomicJumps(((scale, 0.6), (2 * scale, 0.4))))
    want = math.exp(-1.2) * (1.0 + 0.72 + 0.72**2 / 2 + 0.48)
    assert spec.cdf(2.5 * scale) == pytest.approx(want, rel=1e-13)
    est = gini(spec, MCConfig(n_samples=20_000, seed=4, batch=5_000))
    unit = gini(CompoundPoisson(1.2, AtomicJumps(((1.0, 0.6), (2.0, 0.4)))),
                MCConfig(n_samples=20_000, seed=4, batch=5_000))
    assert est.value == pytest.approx(unit.value, rel=1e-9)
    assert est.std_error > 0
    assert abs(est.value - 0.4398668123) < 4 * est.std_error


@pytest.mark.parametrize("spec", [
    CompoundPoisson(20_000.0, AtomicJumps(((1.0, 0.5), (2.0, 0.5)))),
    CompoundPoisson(20_000.0, GammaJumps(2.0, 1.5)),
], ids=["atoms", "gamma-jumps"])
def test_cdf_past_jump_count_cap_raises(spec):
    # 10 000 Poisson terms cover about 9 000 expected jumps; past that the
    # cdf is refused, not truncated to a distribution that sums to ~0
    with pytest.raises(NonConvergence, match="10 000 terms"):
        spec.cdf_fn()


def test_poisson_cdf_exact_past_jump_count_cap():
    # one atom reads its closed cdf, which needs no jump-count lattice
    lam = 20_000.0
    x = np.linspace(lam - 600.0, lam + 600.0, 2401)
    F = Poisson(lam).cdf_fn()(x)
    assert np.max(np.abs(F - stats.poisson(lam).cdf(np.floor(x)))) < 1e-12
    assert Poisson(lam).cdf(lam) == pytest.approx(0.50188, abs=1e-5)


def test_cdf_series_too_long_raises_promptly():
    # |cf| falls below 1e-12 only past t ~ 2.7e8: 3.6e9 series terms
    spec = CGMY(0.6, 0.02, 2.0, 3.0)
    t0 = time.perf_counter()
    with pytest.raises(NonConvergence, match="beta=0.02"):
        spec.cdf_fn()
    with pytest.raises(NonConvergence, match="N = 3.56e"):
        spec.cdf(0.0)
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


def test_drift_roundtrip():
    spec = GTSD(0.7, 0.5, 1.0, 2.0, 0.5, 3.0)
    # the compensated drift is the mean, exactly
    assert spec.mean() == spec.mu == 0.7
    # uncompensated drift + jump mean = mean
    jump_mean = spec.measure.moment(1)
    assert spec.drift + jump_mean == pytest.approx(spec.mean(), rel=1e-9)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_drift_and_mean_follow_the_convention(spec):
    """b = drift0 and E X = drift0 + int u nu(du) for an uncompensated
    family; E X = drift0 and b = drift0 - int u nu(du) for a compensated
    one, bit for bit."""
    jump_mean = spec.measure.moment(1)
    if spec.drift_convention == "compensated":
        want = spec.drift0 - jump_mean, spec.drift0
    else:
        want = spec.drift0, spec.drift0 + jump_mean
    assert (spec.drift, spec.mean()) == want


def test_esscher_kappa_max():
    # the Esscher tilt is capped by the right tail's decay rate
    assert Gamma(2.0, 1.5).tail_rates()[1] == pytest.approx(1.5)
    assert BGD(2.0, 3.0, 1.0, 4.0).tail_rates()[1] == pytest.approx(3.0)
    assert math.isinf(Poisson(2.0).tail_rates()[1])
