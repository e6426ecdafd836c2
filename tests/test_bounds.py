"""Variance bounds: the Cacoullos bracket, Chen's jump bound, posterior
wrappers."""

import math
import os
import sys

import numpy as np
import pytest

from levy_stein import (
    BGD,
    DivergentMoment,
    Gamma,
    InvalidParams,
    Laplace,
    MCConfig,
    MCEstimate,
    VarianceBounds,
    cacoullos_bounds,
    chen_upper_bound,
    posterior_bounds_gamma,
    posterior_bounds_poisson,
)
from levy_stein.functions import GAUSS, IDENTITY, SIN, SQUARE, \
    make_exp_tilt, make_shift
from levy_stein.functions import TestFunction as GFunction
from levy_stein.levy_core import BiasVariable
from levy_stein.mc import batch_sizes

from conftest import SMALL_SWEEP, SMALL_SWEEP_SPECS, rel_err

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
from reference import Reference  # noqa: E402


def _without_terms(g):
    """g without its exponential-polynomial terms, which forces the
    bias-variable bracket and the nu-rule Chen bound."""
    return GFunction(name=f"{g.name}_mc", f=g.f, d1=g.d1, d2=g.d2)


SQUARE_MC = _without_terms(SQUARE)


# -- closed forms ----------------------------------------------------------------


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (0.5, 2.0), (3.0, 1.5)])
def test_gamma_square_bracket_closed(a, b):
    vb = cacoullos_bounds(Gamma(a, b), SQUARE)
    assert vb.method == "closed_form"
    want_lo = 4.0 * a * (a + 1.0) ** 2 / b**4
    want_hi = 4.0 * a * (a + 1.0) * (a + 2.0) / b**4
    assert rel_err(vb.lower, want_lo) < 1e-12
    assert rel_err(vb.upper, want_hi) < 1e-12
    # the bracketed quantity Var(X^2) sits strictly inside
    truth = a * (a + 1.0) * (4.0 * a + 6.0) / b**4
    assert want_lo < truth < want_hi


@pytest.mark.parametrize("g", [IDENTITY, make_shift(2.0)])
def test_affine_g_bracket_is_tight(g):
    spec = BGD(2.0, 3.0, 1.0, 4.0)
    vb = cacoullos_bounds(spec, g)
    assert vb.method == "closed_form"
    var = spec.variance()
    assert rel_err(vb.lower, var) < 1e-12
    assert vb.lower == vb.upper


MC_BRACKET = MCConfig(n_samples=10**5, seed=43, batch=10**4)


@pytest.mark.parametrize("entry", list(SMALL_SWEEP_SPECS))
def test_polynomial_bracket_closed_on_every_family(entry):
    # the closed moments of X + Y_1 against the bias-variable draws
    spec = SMALL_SWEEP_SPECS[entry]
    vb = cacoullos_bounds(spec, SQUARE)
    assert vb.method == "closed_form"
    nb = cacoullos_bounds(spec, SQUARE_MC, MC_BRACKET)
    assert nb.method == "numeric"
    assert abs(vb.lower - nb.lower) <= 4 * nb.lower_se, entry
    assert abs(vb.upper - nb.upper) <= 4 * nb.upper_se, entry


# seed and size fixed before the first run
MC_ROUTES = MCConfig(n_samples=10**5, seed=43, batch=10**4)
EXP_TILT = make_exp_tilt(0.3)


@pytest.mark.parametrize("g", [SIN, EXP_TILT], ids=lambda g: g.name)
@pytest.mark.parametrize("entry", list(SMALL_SWEEP_SPECS))
def test_closed_bounds_match_the_sampling_routes(entry, g):
    # the closed bracket and Chen bound against the Monte Carlo routes
    # they replace for g with terms
    spec = SMALL_SWEEP_SPECS[entry]
    vb = cacoullos_bounds(spec, g)
    chen = chen_upper_bound(spec, g)
    assert vb.method == "closed_form" and chen.n == 0
    nb = cacoullos_bounds(spec, _without_terms(g), MC_ROUTES)
    nchen = chen_upper_bound(spec, _without_terms(g), MC_ROUTES)
    assert nb.method == "numeric" and nchen.n == MC_ROUTES.n_samples
    assert abs(vb.lower - nb.lower) <= 4 * nb.lower_se, entry
    assert abs(vb.upper - nb.upper) <= 4 * nb.upper_se, entry
    assert abs(chen.value - nchen.value) <= 4 * nchen.std_error, entry
    if g is SIN:
        var = Reference(*SMALL_SWEEP[entry]).var_g("sin")
        assert vb.lower <= var <= vb.upper, entry


@pytest.mark.parametrize("entry", list(SMALL_SWEEP_SPECS))
def test_bounds_with_terms_draw_only_the_oracle(entry, sample_spy,
                                                monkeypatch, mc_small):
    spec = SMALL_SWEEP_SPECS[entry]
    draws = sample_spy(type(spec))

    def no_bias_draws(self, rng, size):
        raise AssertionError("a bound on g with terms drew a bias variable")

    monkeypatch.setattr(BiasVariable, "sample", no_bias_draws)
    n_batches = len(list(batch_sizes(mc_small)))
    # the oracle needs 4 kappa below the decay rate, 1 on laplace and
    # two_sided_exp
    for g in (IDENTITY, SQUARE, SIN, make_exp_tilt(0.2), make_shift(1.0)):
        draws.clear()
        vb = cacoullos_bounds(spec, g, mc_small, with_oracle=True)
        chen = chen_upper_bound(spec, g, mc_small)
        assert vb.method == "closed_form" and chen.n == 0, g.name
        # one pass of the variance oracle, and nothing else
        assert len(draws) == n_batches, g.name
        assert vb.oracle.n == mc_small.n_samples


# -- sampling path ----------------------------------------------------------------


def test_numeric_bracket_matches_closed(mc_medium):
    vb = cacoullos_bounds(Gamma(2.0, 1.0), SQUARE_MC, mc_medium)
    assert vb.method == "numeric"
    assert abs(vb.lower - 72.0) <= 4 * vb.lower_se
    assert abs(vb.upper - 96.0) <= 4 * vb.upper_se
    assert vb.lower <= vb.upper


def test_numeric_bracket_contains_oracle(mc_medium):
    vb = cacoullos_bounds(Laplace(0.3, 0.8), GAUSS, mc_medium,
                          with_oracle=True)
    assert vb.method == "numeric"
    assert vb.oracle is not None
    assert vb.lower - 4 * (vb.lower_se + vb.oracle.std_error) <= vb.oracle.value
    assert vb.oracle.value <= vb.upper + 4 * (vb.upper_se + vb.oracle.std_error)


def test_bracket_deterministic(mc_small):
    a = cacoullos_bounds(Laplace(0.3, 0.8), GAUSS, mc_small)
    b = cacoullos_bounds(Laplace(0.3, 0.8), GAUSS, mc_small)
    assert (a.lower, a.upper, a.lower_se, a.upper_se) == \
        (b.lower, b.upper, b.lower_se, b.upper_se)


def test_oracle_and_chen_draw_their_own_streams(sample_spy, mc_small):
    draws = sample_spy(Gamma)
    spec = Gamma(2.0, 1.5)
    cacoullos_bounds(spec, SQUARE_MC, mc_small, with_oracle=True)
    chen_upper_bound(spec, SQUARE_MC, mc_small)
    n_batches = len(list(batch_sizes(mc_small)))
    assert len(draws) == 3 * n_batches
    # first batches of the oracle, the bracket and Chen's bound, in run order
    oracle, bracket, chen = draws[::n_batches]
    assert not np.array_equal(oracle, bracket)
    assert not np.array_equal(chen, bracket)
    assert not np.array_equal(chen, oracle)


# -- Chen's bound -----------------------------------------------------------------


def test_chen_g_id_recovers_variance(mc_small):
    # (g(x+u) - g(x))^2 = u^2: the inner rule returns C_2 for every sample
    spec = BGD(2.0, 3.0, 1.0, 4.0)
    est = chen_upper_bound(spec, IDENTITY, mc_small)
    assert rel_err(est.value, spec.variance()) < 1e-9
    assert est.std_error < 1e-12


def test_chen_dominates_oracle_variance(mc_medium):
    spec = Laplace(0.3, 0.8)
    chen = chen_upper_bound(spec, GAUSS, mc_medium)
    vb = cacoullos_bounds(spec, GAUSS, mc_medium, with_oracle=True)
    assert vb.oracle.value <= chen.value + 4 * (chen.std_error
                                                + vb.oracle.std_error)


# -- integrability guards -----------------------------------------------------------


def test_variance_oracle_needs_four_times_the_tilt():
    # the oracle's SE, that of a sample variance, reads E[e^{4 kappa X}]:
    # on Ga(2, 1.5) kappa = 0.5 keeps the bracket (2 kappa < 1.5) but not
    # the oracle, and kappa = 0.3 keeps both
    spec = Gamma(2.0, 1.5)
    assert cacoullos_bounds(spec, make_exp_tilt(0.5)).oracle is None
    with pytest.raises(DivergentMoment, match=r"exp_tilt\(0.5\)\^2 squared"):
        cacoullos_bounds(spec, make_exp_tilt(0.5), with_oracle=True)
    vb = cacoullos_bounds(spec, make_exp_tilt(0.3), MC_ROUTES,
                          with_oracle=True)
    # Var(e^{kappa X}) = (1 - 2 kappa / b)^{-a} - (1 - kappa / b)^{-2a}
    truth = (1.0 - 0.6 / 1.5) ** -2.0 - (1.0 - 0.3 / 1.5) ** -4.0
    assert abs(vb.oracle.value - truth) <= 4.0 * vb.oracle.std_error


def test_tilt_guards():
    # upper edges square the growth, so half the decay rate is the cutoff
    with pytest.raises(DivergentMoment):
        cacoullos_bounds(Gamma(2.0, 1.5), make_exp_tilt(0.8))
    with pytest.raises(DivergentMoment):
        chen_upper_bound(Gamma(2.0, 1.5), make_exp_tilt(0.8))
    with pytest.raises(DivergentMoment):
        cacoullos_bounds(Gamma(2.0, 1.5), make_exp_tilt(1.5))
    # (g(x+u) - g(x))^2 grows only on g's side: 2 kappa = 0.6 passes the
    # negative decay rate 0.5 but not the positive one, 3, so the bound is
    # finite, E[e^{2 kappa X}] int (e^{kappa u} - 1)^2 nu(du)
    # = e^{Psi_0(0.6)} (Psi_0(0.6) - 2 Psi_0(0.3))
    ap, lp, an, ln_ = 2.0, 3.0, 1.0, 0.5

    def psi0(z):
        return -ap * math.log1p(-z / lp) - an * math.log1p(z / ln_)

    want = math.exp(psi0(0.6)) * (psi0(0.6) - 2.0 * psi0(0.3))
    assert want == pytest.approx(0.12528, abs=1e-5)
    est = chen_upper_bound(BGD(ap, lp, an, ln_), make_exp_tilt(0.3))
    assert est.n == 0
    assert rel_err(est.value, want) < 1e-12


# -- posterior wrappers ---------------------------------------------------------------


def test_posterior_gamma_is_substitution():
    got = posterior_bounds_gamma(k=2.0, a=1.0, b=1.0, n=5, xbar=1.2, g=SQUARE)
    want = cacoullos_bounds(Gamma(1.0 + 5 * 2.0, 1.0 + 5 * 1.2), SQUARE)
    assert got == want


def test_posterior_poisson_is_substitution():
    got = posterior_bounds_poisson(a=1.5, b=2.0, n=8, xbar=2.25, g=SQUARE)
    want = cacoullos_bounds(Gamma(1.5 + 8 * 2.25, 2.0 + 8), SQUARE)
    assert got == want


@pytest.mark.parametrize("kwargs", [
    {"k": 0.0, "a": 1.0, "b": 1.0, "n": 5, "xbar": 1.0},
    {"k": 2.0, "a": -1.0, "b": 1.0, "n": 5, "xbar": 1.0},
    {"k": 2.0, "a": 1.0, "b": 1.0, "n": 0, "xbar": 1.0},
    {"k": 2.0, "a": 1.0, "b": 1.0, "n": 5, "xbar": -0.5},
])
def test_posterior_gamma_validation(kwargs):
    with pytest.raises(InvalidParams):
        posterior_bounds_gamma(g=SQUARE, **kwargs)


def test_bounds_crossing_rejected():
    with pytest.raises(InvalidParams):
        VarianceBounds(MCEstimate(2.0, 0.0, 0, "closed"),
                       MCEstimate(1.0, 0.0, 0, "closed"))


@pytest.mark.parametrize("spec,g,route", [
    (Gamma(2.0, 1.5), GAUSS, "bias"),
    (Gamma(2.0, 1.5), SIN, "closed"),
    # a point mass: the closed bracket [0, 0]
    (Gamma(0.0, 1.5), GAUSS, "closed"),
], ids=["numeric", "closed", "point_mass"])
def test_edges_carry_their_draws_and_route(spec, g, route, mc_small):
    vb = cacoullos_bounds(spec, g, mc_small)
    n = mc_small.n_samples if route == "bias" else 0
    for edge in (vb.lower_edge, vb.upper_edge):
        assert (edge.n, edge.route) == (n, route)
    assert (vb.lower, vb.upper, vb.lower_se, vb.upper_se) == (
        vb.lower_edge.value, vb.upper_edge.value,
        vb.lower_edge.std_error, vb.upper_edge.std_error)
    assert vb.method == ("numeric" if n else "closed_form")
    if spec.variance() == 0.0:
        assert (vb.lower, vb.upper) == (0.0, 0.0)
