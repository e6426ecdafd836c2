"""Premium principles and the Gini index, computed from the Lévy measure.

The weighted premium H_w^(n)(X) = E[X^n w(X)] / E[w(X)] (n = 1: H_w) is
closed for every registry weight: each is an exponential polynomial, and
E[X^q e^{zX}] comes from the cumulants of X under the tilt e^{zX}
(`levy_core.exp_poly_mean`). With w = e^{kappa x} it is the Esscher premium
E(X) + Psi_1(kappa), Psi_1(kappa) = int u (e^{kappa u} - 1) nu(du).

The Gini index G = (2/mu) Cov(X, F(X)) is Monte Carlo: `gini` computes it
through the Lévy formula with the inner integral against nu, or as a plain
sample covariance (the oracle).

Every premium and the index are returned as an `MCEstimate`; a premium is
closed, so it has SE 0 and n = 0 (no draws).
"""

from __future__ import annotations

import math

from .dist_catalog import IDDSpec
from .errors import DivergentMoment, InvalidParams, ZeroDenominator
from .functions import ONE, TestFunction
from .levy_core import exp_moment, exp_poly_mean, exp_poly_means, nu_rule
from .mc import ORACLE, MCConfig, MCEstimate, mc_cov, mc_mean

__all__ = [
    "wpcp",
    "esscher_closed",
    "modified_variance",
    "generalized_wpcp",
    "gini",
    "gini_variance_scale",
    "raw_moment",
]

# Esscher tilts are kept strictly inside the convergence strip, with a
# margin: at the boundary the premium is infinite
TILT_MARGIN = 0.999


def _nonzero_mean(base: IDDSpec) -> float:
    mu = base.mean()
    if mu == 0.0:
        raise ZeroDenominator("risk has zero mean")
    return mu


def wpcp(base: IDDSpec, w: TestFunction) -> MCEstimate:
    """Weighted premium H_w(X) = E[X w(X)] / E[w(X)]: `generalized_wpcp` at
    n = 1. For w = e^{kappa x} it is the Esscher premium."""
    return generalized_wpcp(base, 1, w)


def esscher_closed(base: IDDSpec, kappa: float) -> MCEstimate:
    """Esscher premium H(kappa) = E(X) + int u (e^{kappa u} - 1) nu(du).

    Closed form for every catalog family: the shift is Psi_1(kappa) from
    `exp_moment`. kappa must stay inside the convergence strip with a margin.
    """
    if kappa <= 0:
        raise InvalidParams("esscher tilt kappa must be strictly positive")
    # E[e^{kappa X}] is finite below the right tail's decay rate
    kmax = base.tail_rates()[1]
    if math.isfinite(kmax) and kappa > TILT_MARGIN * kmax:
        raise InvalidParams(
            f"esscher tilt kappa={kappa} beyond {TILT_MARGIN} * kappa_max "
            f"= {TILT_MARGIN * kmax:.6g} for this family")
    delta = float(exp_moment(base.measure, 1, kappa).real)
    return MCEstimate(base.mean() + delta, 0.0, 0)


def modified_variance(base: IDDSpec) -> MCEstimate:
    """H = E(X) + Var(X)/E(X) from cumulants."""
    mu = _nonzero_mean(base)
    var = base.variance()
    return MCEstimate(mu + var / mu, 0.0, 0)


def raw_moment(base: IDDSpec, n: int) -> float:
    """E[X^n] from the cumulants: `exp_poly_mean` of the weight one, that is
    the complete Bell polynomial of C_1, ..., C_n."""
    if n < 1:
        raise InvalidParams("moment order must be a positive integer")
    return exp_poly_mean(base, ONE.terms, n)


def generalized_wpcp(base: IDDSpec, n: int,
                     w: TestFunction) -> MCEstimate:
    """H_w^(n)(X) = E[X^n w(X)] / E[w(X)], both means from `exp_poly_means`
    with their common factor e^s taken out before the ratio."""
    if n < 1:
        raise InvalidParams("premium order n must be a positive integer")
    if not w.terms:
        raise InvalidParams(f"weight {w.name} is not an exponential "
                            "polynomial, so its premium has no closed form")
    num, den = exp_poly_means(base, w.terms, (n, 0), factored=True)
    if den == 0.0:
        raise ZeroDenominator("weight has zero mean under the risk law")
    value = num / den
    if not math.isfinite(value):
        raise DivergentMoment("premium overflows the range of a double")
    return MCEstimate(value, 0.0, 0)


def gini(base: IDDSpec, mc: MCConfig = MCConfig(),
         method: str = "levy_formula") -> MCEstimate:
    """Gini index G = (2/mu) Cov(X, F(X)) of a positive-mean risk.

    method 'levy_formula' evaluates the covariance through the Lévy measure
    (inner fixed rule against nu, outer MC), 'covariance_oracle' estimates
    it as a plain sample covariance on the independent ORACLE streams. For
    laws with support crossing zero the number is still (2/mu) Cov(X, F(X)),
    but it is not a Lorenz-curve Gini; the CLI flags that case rather than
    rejecting it. Both methods return the index as a Monte Carlo
    `MCEstimate` over the n draws of X; the Lévy formula's `route` is its
    nu-rule's, 'atoms' or 'rule'.
    """
    mu = _nonzero_mean(base)
    if mu < 0:
        raise InvalidParams("gini index needs a positive mean")
    F = base.cdf_fn()
    route = None
    if method == "levy_formula":
        rule = nu_rule(base.measure, 1)
        route = rule.route

        def batch(rng, size):
            x = base.sample(rng, size)
            return rule.shifted_sum(F, x, subtract_at_x=True)

        est = mc_mean(batch, mc)
    elif method == "covariance_oracle":

        def batch(rng, size):
            x = base.sample(rng, size)
            return x, F(x)

        est = mc_cov(batch, mc, ORACLE)
    else:
        raise InvalidParams(f"unknown gini method {method!r}")
    return MCEstimate(2.0 / mu * est.value, 2.0 / mu * est.std_error, est.n,
                      route)


def gini_variance_scale(base: IDDSpec) -> float:
    """(2/mu) Var(X): the number obtained from the Gini covariance formula
    when F is replaced by the identity. It is not a Gini coefficient (it is
    not even scale free); reported only so diagnostics can quantify how far
    it sits from the actual index."""
    mu = _nonzero_mean(base)
    return 2.0 / mu * base.variance()
