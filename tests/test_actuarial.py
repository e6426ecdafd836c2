"""Premium principles and the Gini index."""

import math
from functools import partial

import pytest

from levy_stein import (
    BGD,
    CGMY,
    GTSD,
    W_REGISTRY,
    CompoundPoisson,
    DivergentMoment,
    Gamma,
    GammaJumps,
    IDDSpec,
    InvalidParams,
    InverseGaussian,
    Laplace,
    MCConfig,
    MCEstimate,
    Poisson,
    ZeroDenominator,
    cov_identity_rhs,
    esscher_closed,
    generalized_wpcp,
    get_function,
    gini,
    gini_variance_scale,
    modified_variance,
    raw_moment,
    wpcp,
)
from levy_stein.functions import (GAUSS, ONE, PARAMS, make_exp_tilt,
                                  make_shift)
from levy_stein.levy_core import exp_poly_mean

from conftest import (SMALL_SWEEP_SPECS, assert_agree, assert_within_se,
                      rel_err)


# -- Esscher, closed ------------------------------------------------------------

# H(kappa) for each family, from Psi_1(kappa) = int u (e^{kappa u} - 1) nu(du);
# gamma jumps of shape 175 need Gamma(176), past the range of a double
ESSCHER_CASES = [
    (Poisson(2.0), 0.5, lambda k: 2.0 * math.exp(k)),
    (Gamma(2.0, 1.0), 0.5, lambda k: 2.0 / (1.0 - k)),
    (BGD(2.0, 3.0, 1.0, 4.0), 1.0,
     lambda k: 2.0 / (3.0 - k) - 1.0 / (4.0 + k)),
    (CGMY(1.0, 0.5, 2.0, 3.0), 0.7,
     lambda k: math.gamma(0.5) * ((2.0 - k) ** (-0.5) - (3.0 + k) ** (-0.5))),
    (InverseGaussian(1.5, 2.0), 0.8,
     lambda k: 1.5 * math.sqrt(math.pi) / math.sqrt(2.0 - k)),
    (CompoundPoisson(1.0, GammaJumps(175.0, 3.0)), 0.5,
     lambda k: 175.0 / (3.0 - k) * (3.0 / (3.0 - k)) ** 175),
]


@pytest.mark.parametrize("spec, kappa, h", ESSCHER_CASES,
                         ids=[s.family for s, _, _ in ESSCHER_CASES])
def test_esscher_closed_forms(spec, kappa, h):
    rep = esscher_closed(spec, kappa)
    assert rep.method == "closed_form"
    assert rel_err(rep.value, h(kappa)) < 1e-12


def test_esscher_kappa_validation():
    with pytest.raises(InvalidParams):
        esscher_closed(Gamma(2.0, 1.5), 0.0)
    with pytest.raises(InvalidParams):
        esscher_closed(Gamma(2.0, 1.5), -0.3)
    # the convergence strip is enforced with a margin: cutoff at 0.999 * rate
    with pytest.raises(InvalidParams):
        esscher_closed(Gamma(2.0, 1.5), 1.499)
    assert esscher_closed(Gamma(2.0, 1.5), 1.498).value > 0
    # atomic measures tilt for every kappa
    assert math.isfinite(esscher_closed(Poisson(2.0), 50.0).value)


def test_esscher_continuous_at_zero():
    spec = Gamma(2.0, 1.5)
    rep = esscher_closed(spec, 1e-6)
    assert abs(rep.value - spec.mean()) < 1e-4 * abs(spec.mean())


# -- weighted premiums ------------------------------------------------------------


def test_wpcp_unit_weight_is_mean():
    spec = Gamma(2.0, 1.5)
    rep = wpcp(spec, ONE)
    # E[X * 1] / E[1] is the first Bell moment, C_1 itself
    assert rep.value == spec.mean()
    assert rep.method == "closed_form"


def test_wpcp_shift_weight():
    # H = E[X(X+c)] / E[X+c] = (m2 + c m1) / (m1 + c)
    rep = wpcp(Gamma(2.0, 1.0), make_shift(1.0))
    assert rel_err(rep.value, 8.0 / 3.0) < 1e-12


def test_wpcp_esscher_weight_matches_closed():
    spec = Gamma(2.0, 1.0)
    rep = wpcp(spec, make_exp_tilt(0.3))
    closed = esscher_closed(spec, 0.3)
    assert rel_err(rep.value, closed.value) < 1e-12


@pytest.mark.parametrize("spec,kappa", [
    (Gamma(2.0, 1.5), 0.5), (InverseGaussian(1.0, 2.0), 0.5),
    (CGMY(1.0, 0.5, 2.0, 3.0), 0.5), (GTSD(0.5, 0.5, 1.0, 2.0, 0.5, 3.0), 0.5),
], ids=lambda v: getattr(v, "family", str(v)))
def test_wpcp_esscher_weight_is_the_closed_premium(spec, kappa):
    # E[X e^{kappa X}] / E[e^{kappa X}] is kappa_1(kappa) = E X + Psi_1(kappa)
    rep = wpcp(spec, make_exp_tilt(kappa))
    closed = esscher_closed(spec, kappa)
    assert rel_err(rep.value, closed.value) < 1e-13
    assert rep.method == "closed_form"


def test_wpcp_loading_nonnegative():
    # increasing weights load the premium above the mean
    spec = Gamma(2.0, 1.0)
    assert wpcp(spec, make_exp_tilt(0.3)).value > spec.mean()
    assert wpcp(spec, make_shift(0.5)).value > spec.mean()


def test_generalized_wpcp_order_two():
    # n = 2, w = x + 1 on Ga(2, 1): (m3 + m2) / (m1 + 1) = 30 / 3
    rep = generalized_wpcp(Gamma(2.0, 1.0), 2, make_shift(1.0))
    assert rel_err(rep.value, 10.0) < 1e-12
    assert rep.method == "closed_form"


def test_generalized_wpcp_reduces_to_wpcp():
    spec = Gamma(2.0, 1.0)
    w = make_shift(1.0)
    assert generalized_wpcp(spec, 1, w).value == wpcp(spec, w).value


def test_premiums_draw_nothing(sample_spy, monkeypatch):
    # both premiums are closed on every catalog family and weight: no
    # variate is drawn, neither by sample nor by sample_conv
    draws = sample_spy(IDDSpec)

    def no_draw(self, rng, s, size):
        raise AssertionError(f"{self.family} drew variates")

    for cls in (IDDSpec, InverseGaussian):
        monkeypatch.setattr(cls, "sample_conv", no_draw)
    for spec in SMALL_SWEEP_SPECS.values():
        for name in W_REGISTRY:
            w = get_function(name, **{p: 0.3 for p in PARAMS[name]})
            reps = [wpcp(spec, w), generalized_wpcp(spec, 2, w)]
            assert {r.method for r in reps} == {"closed_form"}
    assert draws == []


def test_premium_weight_without_terms():
    for premium in (wpcp, partial(generalized_wpcp, n=2)):
        with pytest.raises(InvalidParams, match="exponential polynomial"):
            premium(Gamma(2.0, 1.0), w=GAUSS)


def test_premium_zero_weight_mean():
    # E[X + 1] = 0 under La(-1, 1)
    spec = Laplace(-1.0, 1.0)
    for premium in (wpcp, partial(generalized_wpcp, n=2)):
        with pytest.raises(ZeroDenominator):
            premium(spec, w=make_shift(1.0))


def test_premium_overflow_names_the_order():
    # X^400 e^{0.3 X} under Poisson(2) has no double value: raised, not inf
    with pytest.raises(DivergentMoment, match="of order 400"):
        generalized_wpcp(Poisson(2.0), 400, make_exp_tilt(0.3))
    with pytest.raises(DivergentMoment, match="of order 400"):
        raw_moment(Poisson(2.0), 400)
    # both means finite, E[X + c] subnormal: the ratio leaves the range
    with pytest.raises(DivergentMoment, match="premium overflows"):
        wpcp(Laplace(-1e-300 + 1e-315, 1.0), make_shift(1e-300))


def test_premium_whose_means_overflow_before_the_ratio():
    # under Poisson(7e4), M(0.01) = e^{703.5} is a double but M(0.01) E X
    # is not; the premium itself is lam e^kappa
    spec, w = Poisson(7e4), make_exp_tilt(0.01)
    want = 7e4 * math.exp(0.01)
    assert rel_err(esscher_closed(spec, 0.01).value, want) < 1e-12
    for rep in (wpcp(spec, w), generalized_wpcp(spec, 1, w)):
        assert rel_err(rep.value, want) < 1e-12
        assert rep.method == "closed_form"


def test_generalized_wpcp_order_validation():
    with pytest.raises(InvalidParams):
        generalized_wpcp(Gamma(2.0, 1.0), 0, make_shift(1.0))


PREMIUM_WEIGHTS = [make_shift(1.0), make_exp_tilt(0.3)]


@pytest.mark.parametrize("w", PREMIUM_WEIGHTS, ids=lambda w: w.name)
@pytest.mark.parametrize("entry", sorted(SMALL_SWEEP_SPECS))
def test_premium_is_the_identity_premium(entry, w):
    # E[X^n w] / E[w] = E[X^n] + Cov(X^n, w(X)) / E[w], the covariance from
    # the order-n identity, within 4 of its SEs; for w = x + 1 at n <= 2 the
    # identity's integrand is a constant, so its SE is roundoff and a
    # roundoff floor stands beside it
    spec = SMALL_SWEEP_SPECS[entry]
    mc = MCConfig(n_samples=20_000, seed=2211, batch=2_500)
    den = exp_poly_mean(spec, w.terms)
    for n in (1, 2):
        rep = generalized_wpcp(spec, n, w)
        cov = cov_identity_rhs(spec, n, w, mc)
        assert_within_se(MCEstimate(raw_moment(spec, n) + cov.value / den,
                                    cov.std_error / abs(den), cov.n),
                         rep.value, floor=1e-12 * abs(rep.value),
                         label=f"{entry} n={n} {w.name}")


@pytest.mark.parametrize("entry", sorted(SMALL_SWEEP_SPECS))
def test_wpcp_is_generalized_at_one_and_esscher_under_tilt(entry):
    spec = SMALL_SWEEP_SPECS[entry]
    for w in PREMIUM_WEIGHTS:
        assert rel_err(wpcp(spec, w).value,
                       generalized_wpcp(spec, 1, w).value) < 1e-12
    for kappa in (0.3, 0.5):
        assert rel_err(wpcp(spec, make_exp_tilt(kappa)).value,
                       esscher_closed(spec, kappa).value) < 1e-12


def test_modified_variance_closed():
    rep = modified_variance(Gamma(2.0, 1.5))
    assert rep.method == "closed_form"
    assert rel_err(rep.value, 2.0) < 1e-12


def test_modified_variance_zero_mean():
    with pytest.raises(ZeroDenominator):
        modified_variance(BGD(2.0, 3.0, 2.0, 3.0))


@pytest.mark.parametrize("spec, n, want", [
    (Gamma(2.0, 1.5), 3, 2.0 * 3.0 * 4.0 / 1.5**3),
    (Poisson(2.0), 3, 22.0),
    (Poisson(2.0), 1, 2.0),
])
def test_raw_moment(spec, n, want):
    assert rel_err(raw_moment(spec, n), want) < 1e-12


def test_raw_moment_validation():
    with pytest.raises(InvalidParams):
        raw_moment(Gamma(2.0, 1.5), 0)


# -- Gini --------------------------------------------------------------------------


@pytest.mark.parametrize("a, b", [(2.0, 2.0), (0.7, 1.0)])
def test_gini_gamma_both_methods(a, b, mc_medium):
    # gamma Gini: Gamma(a + 1/2) / (Gamma(a + 1) sqrt(pi)); free of b
    truth = math.gamma(a + 0.5) / (math.gamma(a + 1.0) * math.sqrt(math.pi))
    lev = gini(Gamma(a, b), mc_medium, method="levy_formula")
    orc = gini(Gamma(a, b), MCConfig(n_samples=100_000, seed=53,
                                     batch=20_000),
               method="covariance_oracle")
    assert_within_se(lev, truth, label="gini levy")
    assert_within_se(orc, truth, label="gini oracle")
    assert_agree(lev, orc, label="gini methods")


def test_gini_validation(mc_small):
    with pytest.raises(ZeroDenominator):
        gini(BGD(2.0, 3.0, 2.0, 3.0), mc_small)
    with pytest.raises(InvalidParams):
        gini(BGD(1.0, 3.0, 4.0, 2.0), mc_small)  # mean 1/3 - 2 < 0
    with pytest.raises(InvalidParams):
        gini(Gamma(2.0, 2.0), mc_small, method="lorenz")


def test_gini_variance_scale_is_not_gini():
    spec = Gamma(2.0, 2.0)
    scale = gini_variance_scale(spec)
    assert rel_err(scale, 1.0) < 1e-12
    # the Gini itself is 0.375: replacing F by the identity is not harmless
    assert abs(scale - 0.375) > 0.5
