"""Covariance representations and Stein-type residuals for IDD laws.

The central object is the identity

    Cov(X^n, g(X)) = sum_{k=0}^{n-1} C(n,k) int_0^1 E[ Y_s^k I_{n-k}(X_s) ] ds,

where (X_s, Y_s) is the exchangeable pair sharing an s-fraction of the Lévy
machinery (X_s = A + C, Y_s = B + C with A, B ~ X^{*(1-s)}, C ~ X^{*s},
independent) and

    I_m(x) = int g'(x + v) eta_m(v) dv = int u^m (g(x+u) - g(x)) nu(du).

The two expressions for I_m are a Fubini identity; every estimator here
uses the nu-form, and the tests cross-check it against the eta-form. The
route is chosen by g. When g is an exponential polynomial (it carries
terms) the nu-form is closed, on every support: an exponential polynomial
in x again, evaluated per sample. Otherwise, for measures supported on the
positive half-line, I_m(x) = C_{m+1} E[g'(x + Y_m)] with Y_m the bias
variable of order m, which gives a quadrature-free sampling route; on other
supports the nu-form runs through a fixed nu-rule, an exact sum for atomic
measures.

At n <= 2 the outer integral over s is closed. X_s has the law of X, and
Y_s enters only at n = 2, once, where the bridge property of the Lévy
process gives E[Y_s | X_s] = (1 - s) E X + s X_s; integrated over s,

    Cov(X^2, g(X)) = E[ I_2(X) + (E X + X) I_1(X) ],

so X is drawn directly. For n >= 3 the outer integral is handled by drawing
s ~ U(0,1) per sample with the coupled pair, which keeps the estimator
unbiased without any grid.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, Optional

import numpy as np

from .dist_catalog import BGD, CGMY, VGD, IDDSpec, vgd_to_alt
from .errors import DivergentMoment, InvalidParams
from .functions import TestFunction
from .levy_core import (BiasVariable, ClosedInner, LevyMeasure,
                        closed_inner, nu_rule)
from .mc import ORACLE, MCConfig, MCEstimate, mc_cov, mc_mean

__all__ = [
    "JointPairSampler",
    "sample_joint",
    "cov_identity_rhs",
    "identity_route",
    "inner_route",
    "cov_first_order",
    "cov_oracle",
    "stein_residual_cgmy",
    "stein_residual_vgd",
    "stein_residual_bgd",
]


class JointPairSampler:
    """Draws the coupled pair (X_s, Y_s) with a shared component of weight s.

    s may be a fixed value in [0, 1] or None, in which case each sample gets
    its own s ~ U(0, 1) (the Monte Carlo form of int_0^1 ... ds). Marginally
    X_s ~ X and Y_s ~ X for every s; only the dependence varies, from
    independence at s = 0 to X_s = Y_s at s = 1.

    `cov_identity_rhs` draws it for n >= 3; at n <= 2 the integral over s
    is closed and X alone is drawn.
    """

    def __init__(self, base: IDDSpec, s: Optional[float] = None):
        if s is not None and not 0.0 <= s <= 1.0:
            raise InvalidParams(f"coupling weight s={s} outside [0, 1]")
        self.base = base
        self.s = s

    def sample(self, rng: np.random.Generator, size: int):
        """Returns (x, y, s) arrays of the given size."""
        if self.s is None:
            s = rng.random(size)
        else:
            s = np.full(size, float(self.s))
        a = self.base.sample_conv(rng, 1.0 - s)
        b = self.base.sample_conv(rng, 1.0 - s)
        c = self.base.sample_conv(rng, s)
        return a + c, b + c, s


def sample_joint(base: IDDSpec, rng: np.random.Generator, size: int,
                 s: Optional[float] = None):
    return JointPairSampler(base, s).sample(rng, size)


def _check_tilt_headroom(base: IDDSpec, g: TestFunction, power: int = 1):
    """g growing like e^{tilt x} needs power * tilt below the Lévy decay rate
    on g's side, otherwise the inner integrals (and the covariance itself)
    diverge. The variance bounds integrate squares of g' or of g's
    increments and check with power 2."""
    left, right = base.tail_rates()
    rate = power * g.tilt
    name = g.name if power == 1 else f"{g.name} squared"
    if rate > 0 and rate >= right:
        raise DivergentMoment(
            f"{name} grows at rate {rate}, at or beyond the positive "
            f"Lévy decay rate {right}")
    if rate < 0 and -rate >= left:
        raise DivergentMoment(
            f"{name} grows at rate {-rate} on the left, at or beyond "
            f"the negative Lévy decay rate {left}")


def _moment_precheck(base: IDDSpec, n: int):
    """All cumulants through order n+1 must be finite: `LevyMeasure.moment`
    raises DivergentMoment for the first that is not."""
    for k in range(2, n + 2):
        base.measure.moment(k)


def inner_route(measure: LevyMeasure, g: Optional[TestFunction]) -> str:
    """How a nu-form inner integral of g is evaluated: 'closed' when g has
    exponential-polynomial terms, otherwise a fixed rule, which is an exact
    sum over 'atoms' for atomic measures and a quadrature 'rule' else."""
    if g is not None and g.terms:
        return "closed"
    return "atoms" if measure.is_atomic else "rule"


def _nu_inner(measure: LevyMeasure, g: TestFunction, m: int,
              subtract: bool = True):
    """x -> int u^m (g(x+u) - [subtract] g(x)) nu(du), on the route that
    `inner_route` names: closed, or a fixed nu-rule (exact over atoms)."""
    if g.terms:
        return closed_inner(measure, g.terms, m, subtract)
    rule = nu_rule(measure, m, tilt=g.tilt)
    return partial(rule.shifted_sum, g.f, subtract_at_x=subtract)


def _closed_low_order(measure: LevyMeasure, terms, n: int,
                      mu: float) -> ClosedInner:
    """The whole integrand at n <= 2 as one exponential polynomial in x:
    I_1(x) at n = 1, and I_2(x) + (mu + x) I_1(x) at n = 2, where each
    term (a, p, z) of I_1 gives (a mu, p, z) and (a, p + 1, z). Each
    distinct z then costs one exponential per entry, not one per I_m."""
    low = closed_inner(measure, terms, 1)
    if n == 1:
        return low
    return ClosedInner(closed_inner(measure, terms, 2).terms + tuple(
        t for a, p, z in low.terms for t in ((a * mu, p, z), (a, p + 1, z))))


def identity_route(base: IDDSpec, n: int, g: TestFunction,
                   route: str = "auto") -> str:
    """The inner-integral route of `cov_identity_rhs`: 'closed', 'bias',
    'atoms' or 'rule'.

    'auto' routes by what g is: 'closed' whenever g has terms, on any
    support; otherwise the bias variables on positive support, and a fixed
    rule (exact over 'atoms') elsewhere. 'bias' may be asked for with any
    g; 'quadrature' is the nu-form, closed or by rule.
    """
    meas = base.measure
    if route == "auto":
        route = ("bias" if not g.terms and meas.support == "positive"
                 else "quadrature")
    if route == "bias":
        if meas.support != "positive" and n > 1:
            raise InvalidParams(
                "bias-sampling route needs positive support for n > 1 "
                "(even-order bias variables do not exist two-sided)")
        return route
    if route != "quadrature":
        raise InvalidParams(f"unknown route {route!r}")
    return inner_route(meas, g)


def cov_identity_rhs(base: IDDSpec, n: int, g: TestFunction,
                     mc: MCConfig = MCConfig(),
                     route: str = "auto") -> MCEstimate:
    """Monte Carlo value of the right-hand side of the order-n identity.

    route 'bias' draws the inner integral through equilibrium variables
    (positive support; two-sided only at n = 1), 'quadrature' evaluates
    the nu-form of I_m in closed form when g has terms, and otherwise with
    fixed nu-rules (exact sums for atomic measures); 'auto' picks by g, as
    `identity_route` says, and names the pick.

    At n <= 2 each batch draws X once with `sample`, not the coupled
    pair: X_s has the law of X, and at n = 2 the factor Y_s of I_1(X_s)
    is replaced by E[Y_s | X_s] = (1 - s) mu + s X_s integrated over s,
    giving E[I_2(X) + (mu + X) I_1(X)] (see the module docstring). That is
    the pair estimator's conditional mean, so its variance is no larger.
    On the closed route the integrand is one exponential polynomial in X.
    For n >= 3 `JointPairSampler` draws (X_s, Y_s) with s ~ U(0, 1) per
    sample.
    """
    if n < 1:
        raise InvalidParams("identity order n must be a positive integer")
    _moment_precheck(base, n)
    _check_tilt_headroom(base, g)
    route = identity_route(base, n, g, route)
    meas = base.measure
    mu = base.mean()
    if route == "closed" and n <= 2:
        whole = _closed_low_order(meas, g.terms, n, mu)
        return mc_mean(lambda rng, size: whole(base.sample(rng, size)), mc)

    pair = JointPairSampler(base)
    binom = [math.comb(n, k) for k in range(n)]

    if route == "bias":
        bank: Dict[int, BiasVariable] = {
            m: BiasVariable(meas, m) for m in range(1, n + 1)}
        # I_m(x) = C_{m+1} E[g'(x + Y_m)], summed in units of C_{n+1}: the
        # k = 0 term carries no factor, and a constant g' leaves SE 0
        scale = bank[n].normalizer

        def inner(rng, m, x):
            shift = bank[m].sample(rng, x.size)
            return bank[m].normalizer / scale * g.d1(x + shift)
    else:
        scale = 1.0
        closed_or_rule = {m: _nu_inner(meas, g, m) for m in range(1, n + 1)}

        def inner(rng, m, x):
            return closed_or_rule[m](x)

    def batch(rng, size):
        if n > 2:
            x, y, _ = pair.sample(rng, size)
        else:
            # X_s has the law of X; at n = 2, E[Y_s | X_s] integrated over s
            x = base.sample(rng, size)
            y = 0.5 * (mu + x) if n == 2 else None
        z = inner(rng, n, x)
        for k in range(1, n):
            z += binom[k] * y**k * inner(rng, n - k, x)
        return z

    est = mc_mean(batch, mc)
    return MCEstimate(scale * est.value, scale * est.std_error, est.n)


def cov_first_order(base: IDDSpec, g: TestFunction,
                    mc: MCConfig = MCConfig()) -> MCEstimate:
    """Cov(X, g(X)) = Var(X) * E[g'(X + Y_1)]; valid for every catalog
    family, since the first-order bias variable exists two-sided. It is
    the n = 1 bias route of `cov_identity_rhs`."""
    return cov_identity_rhs(base, 1, g, mc, route="bias")


def cov_oracle(base: IDDSpec, n: int, g: TestFunction,
               mc: MCConfig = MCConfig()) -> MCEstimate:
    """Plain sample covariance of (X^n, g(X)); the independent check the
    identity estimators are held against, drawn from the ORACLE streams."""
    if n < 1:
        raise InvalidParams("moment order n must be a positive integer")

    def batch(rng, size):
        x = base.sample(rng, size)
        return x**n, g.f(x)

    return mc_cov(batch, mc, ORACLE)


# -- Stein-type characterizing residuals ---------------------------------------


def stein_residual_cgmy(spec: CGMY, g: TestFunction,
                        mc: MCConfig = MCConfig()) -> MCEstimate:
    """E[X g(X) - int u g(X + u) nu(du)] vanishes exactly on the CGMY law.

    The inner integral is closed when g has terms and a fixed nu-rule
    otherwise, so the residual is a plain mean whose MC error the caller
    can read off the estimate.
    """
    if not isinstance(spec, CGMY):
        raise InvalidParams("stein_residual_cgmy expects a CGMY spec")
    _check_tilt_headroom(spec, g)
    inner = _nu_inner(spec.measure, g, 1, subtract=False)

    def batch(rng, size):
        x = spec.sample(rng, size)
        return x * g.f(x) - inner(x)

    return mc_mean(batch, mc)


def stein_residual_vgd(spec: VGD, g: TestFunction,
                       mc: MCConfig = MCConfig()) -> MCEstimate:
    """Second-order Stein residual, written in the (mu0, sigma2, r, theta)
    parametrization of `vgd_to_alt`:

        E[ sigma2 (X-mu0) g'' + (sigma2 r + 2 theta (X-mu0)) g'
           + (r theta - (X-mu0)) g ] = 0.
    """
    if not isinstance(spec, VGD):
        raise InvalidParams("stein_residual_vgd expects a VGD spec")
    _check_tilt_headroom(spec, g)
    alt = vgd_to_alt(spec)
    s2, r, th, mu0 = alt.sigma2, alt.r, alt.theta, alt.mu0

    def batch(rng, size):
        x = spec.sample(rng, size)
        xc = x - mu0
        return (s2 * xc * g.d2(x) + (s2 * r + 2.0 * th * xc) * g.d1(x)
                + (r * th - xc) * g.f(x))

    return mc_mean(batch, mc)


def stein_residual_bgd(spec: BGD, g: TestFunction,
                       mc: MCConfig = MCConfig()) -> MCEstimate:
    """Second-order Stein residual for the bilateral gamma law:

        E[ X g'' + ((a+ + a-) - (l+ - l-) X) g'
           + ((a+ l- - a- l+) - l+ l- X) g ] = 0.
    """
    if not isinstance(spec, BGD):
        raise InvalidParams("stein_residual_bgd expects a BGD spec")
    _check_tilt_headroom(spec, g)
    ap, lp, an, ln_ = spec.alpha_pos, spec.lam_pos, spec.alpha_neg, spec.lam_neg

    def batch(rng, size):
        x = spec.sample(rng, size)
        return (x * g.d2(x) + ((ap + an) - (lp - ln_) * x) * g.d1(x)
                + ((ap * ln_ - an * lp) - lp * ln_ * x) * g.f(x))

    return mc_mean(batch, mc)
