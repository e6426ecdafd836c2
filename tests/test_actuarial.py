"""Premium principles and the Gini index."""

import math

import numpy as np
import pytest

from levy_stein import (
    BGD,
    CGMY,
    GTSD,
    Gamma,
    InvalidParams,
    InverseGaussian,
    MCConfig,
    Poisson,
    ZeroDenominator,
    esscher_closed,
    generalized_wpcp,
    gini,
    gini_variance_scale,
    modified_variance,
    raw_moment,
    wpcp,
)
from levy_stein.functions import ONE, make_exp_tilt, make_shift
from levy_stein.mc import batch_sizes, substreams

from conftest import assert_agree, assert_within_se, rel_err


# -- Esscher, closed ------------------------------------------------------------

# H(kappa) for each family, from the tilted first moment of nu
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


def test_wpcp_unit_weight_is_mean(mc_small):
    spec = Gamma(2.0, 1.5)
    rep = wpcp(spec, ONE, mc_small)
    # delta-w quadrature cancels to roundoff, not to exact zero
    assert abs(rep.value - spec.mean()) < 1e-12
    assert rep.std_error < 1e-12


def test_wpcp_shift_weight(mc_medium):
    # H = E[X(X+c)] / E[X+c] = (m2 + c m1) / (m1 + c)
    rep = wpcp(Gamma(2.0, 1.0), make_shift(1.0), mc_medium)
    assert_within_se(rep, 8.0 / 3.0, floor=1e-9, label="wpcp shift")


def test_wpcp_esscher_weight_matches_closed(mc_medium):
    spec = Gamma(2.0, 1.0)
    rep = wpcp(spec, make_exp_tilt(0.3), mc_medium)
    closed = esscher_closed(spec, 0.3)
    assert_within_se(rep, closed.value, floor=1e-9, label="wpcp vs esscher")


@pytest.mark.parametrize("spec,kappa", [
    (Gamma(2.0, 1.5), 0.5), (InverseGaussian(1.0, 2.0), 0.5),
    (CGMY(1.0, 0.5, 2.0, 3.0), 0.5), (GTSD(0.5, 0.5, 1.0, 2.0, 0.5, 3.0), 0.5),
], ids=lambda v: getattr(v, "family", str(v)))
def test_wpcp_esscher_weight_is_the_closed_premium(spec, kappa, mc_small):
    # the closed inner integral of e^{kappa x} is e^{kappa x} Psi_1(kappa),
    # so every sample's ratio is the Esscher shift itself, to roundoff
    rep = wpcp(spec, make_exp_tilt(kappa), mc_small)
    closed = esscher_closed(spec, kappa)
    assert rel_err(rep.value, closed.value) < 1e-13
    # still reported as the Monte Carlo row it is
    assert rep.method == "numeric" and rep.n == mc_small.n_samples


def test_wpcp_loading_nonnegative(mc_medium):
    # increasing weights load the premium above the mean
    spec = Gamma(2.0, 1.0)
    assert wpcp(spec, make_exp_tilt(0.3), mc_medium).value > spec.mean()
    assert wpcp(spec, make_shift(0.5), mc_medium).value > spec.mean()


def test_generalized_wpcp_order_two(mc_medium):
    # n = 2, w = x + 1 on Ga(2, 1): (m3 + m2) / (m1 + 1) = 30 / 3
    rep = generalized_wpcp(Gamma(2.0, 1.0), 2, make_shift(1.0), mc_medium)
    assert_within_se(rep, 10.0, floor=1e-9, label="generalized n=2")


def test_generalized_wpcp_reduces_to_wpcp(mc_medium):
    spec = Gamma(2.0, 1.0)
    w = make_shift(1.0)
    a = generalized_wpcp(spec, 1, w, mc_medium)
    b = wpcp(spec, w, MCConfig(n_samples=100_000, seed=52, batch=20_000))
    assert_agree(a, b, floor=1e-9, label="generalized n=1 vs wpcp")


def test_generalized_wpcp_denominator_draws_its_own_streams(sample_spy,
                                                           mc_small):
    # the numerator's pair sampler draws through sample_conv, so every
    # recorded draw is the denominator's
    draws = sample_spy(Gamma)
    spec = Gamma(2.0, 1.0)
    generalized_wpcp(spec, 2, make_shift(1.0), mc_small)
    den_first = draws[0]
    estimate_first = spec.sample(next(substreams(mc_small)),
                                 next(batch_sizes(mc_small)))
    assert not np.array_equal(den_first, estimate_first)


def test_generalized_wpcp_order_validation():
    with pytest.raises(InvalidParams):
        generalized_wpcp(Gamma(2.0, 1.0), 0, make_shift(1.0))


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
