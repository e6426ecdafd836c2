"""Variance bounds: the Cacoullos-type bracket, Chen's jump bound, and the
conjugate-posterior wrappers.

The bracket is

    Var(X) (E[g'(X + Y_1)])^2  <=  Var(g(X))  <=  Var(X) E[(g'(X + Y_1))^2],

with Y_1 the first-order bias variable of the Lévy measure. Both edges are
first-order covariances, Cov(X, g(X))^2 / Var(X) and Cov(X, H(X)) with
H' = (g')^2, closed sums for g with terms; otherwise lower and upper
estimates share the same draws of (X, Y_1), so their ordering holds sample
by sample and the bracket cannot cross from Monte Carlo noise alone.

Chen's upper bound E[int (g(X+u) - g(X))^2 nu(du)] is looser in general but
needs no bias variable and holds for any support. It is closed for g with
terms; otherwise a fixed nu-rule gives its inner integral.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dist_catalog import Gamma, IDDSpec
from .errors import DivergentMoment, InvalidParams
from .functions import TestFunction, antiderivative, derivative, \
    square_of, squared
from .identities import _check_tilt_headroom, _closed_integrand
from .levy_core import BiasVariable, closed_sq_diff, exp_poly_mean, nu_rule
from .mc import BOUND, ESTIMATE, ORACLE, MCConfig, MCEstimate, _accumulate, \
    mc_mean, mc_variance

__all__ = [
    "VarianceBounds",
    "cacoullos_bounds",
    "chen_upper_bound",
    "posterior_bounds_gamma",
    "posterior_bounds_poisson",
]


@dataclass(frozen=True)
class VarianceBounds:
    """The bracket's edges as estimates, both closed (n = 0, route
    'closed') or both drawn together on the 'bias' route, and the optional
    direct oracle of Var(g(X))."""

    lower_edge: MCEstimate
    upper_edge: MCEstimate
    oracle: Optional[MCEstimate] = None

    def __post_init__(self):
        if self.lower > self.upper + 1e-12 * max(abs(self.upper), 1.0):
            raise InvalidParams(
                f"variance bounds cross: lower {self.lower} > upper {self.upper}")

    lower = property(lambda self: self.lower_edge.value)
    upper = property(lambda self: self.upper_edge.value)
    lower_se = property(lambda self: self.lower_edge.std_error)
    upper_se = property(lambda self: self.upper_edge.std_error)
    # 'closed_form' or 'numeric', the edges' own
    method = property(lambda self: self.lower_edge.method)


def _closed_cov_x(base: IDDSpec, terms) -> float:
    """Cov(X, f(X)), f = Re sum of terms: the order-1 closed integrand's
    mean, so E X never enters a subtraction."""
    return exp_poly_mean(base, _closed_integrand(base, terms, 1).terms)


def cacoullos_bounds(base: IDDSpec, g: TestFunction,
                     mc: MCConfig = MCConfig(), *,
                     with_oracle: bool = False) -> VarianceBounds:
    """The variance bracket for Var(g(X)).

    Closed form for g with terms on every family, from `_closed_cov_x`;
    for affine g both edges are (g')^2 Var(X). g without terms is Monte
    Carlo with shared draws. A point mass (Var(X) = 0) gives the closed
    bracket [0, 0]. `with_oracle` attaches a direct sample-variance
    estimate of Var(g(X)) from the independent ORACLE streams; for g
    growing like e^{tilt x} it needs 4 tilt below the Lévy decay rate.
    """
    # the upper edge integrates (g')^2 ~ e^{2 tilt x}; the oracle is a
    # sample variance, a mean of g(X)^2, whose SE reads E[g(X)^4]
    _check_tilt_headroom(base, square_of(g) if with_oracle else g)
    var = base.variance()
    oracle = mc_variance(lambda rng, m: g.f(base.sample(rng, m)), mc,
                         ORACLE) if with_oracle else None
    if var == 0.0:
        zero = MCEstimate(0.0, 0.0, 0, "closed")
        return VarianceBounds(zero, zero, oracle)

    if g.terms:
        slope = _closed_cov_x(base, g.terms) / var  # E[g'(X + Y_1)]
        h = antiderivative(squared(derivative(g.terms)))  # H' = (g')^2
        return VarianceBounds(
            MCEstimate(var * (slope * slope), 0.0, 0, "closed"),
            MCEstimate(_closed_cov_x(base, h), 0.0, 0, "closed"), oracle)

    bv = BiasVariable(base.measure, 1)

    def batch(rng, m):
        t = np.asarray(g.d1(base.sample(rng, m) + bv.sample(rng, m)),
                       dtype=float)
        if not np.all(np.isfinite(t)):
            raise DivergentMoment(
                f"g'={g.name} produced non-finite values at X + Y_1")
        return t, t * t

    pooled = _accumulate(batch, mc, ESTIMATE)
    et, et2 = pooled.mean  # E[t], E[t^2]
    lower = pooled.estimate(var * et**2, (2.0 * var * et, 0.0))
    upper = pooled.estimate(var * et2, (0.0, var))
    return VarianceBounds(replace(lower, route="bias"),
                          replace(upper, route="bias"), oracle)


def chen_upper_bound(base: IDDSpec, g: TestFunction,
                     mc: MCConfig = MCConfig()) -> MCEstimate:
    """E[int (g(X+u) - g(X))^2 nu(du)], the jump form of the upper bound.

    The integrand has a double zero at u = 0, which is what keeps the
    integral finite even though nu itself may be infinite near the origin.
    For g with terms it is a closed sum, with SE 0 and n 0 (no draws);
    otherwise it draws from the BOUND streams, independent of the bracket's.
    The estimate's `route` is 'closed', or the fixed nu-rule's.
    """
    # (g(x+u) - g(x))^2 grows at twice the rate of g, on g's side only
    _check_tilt_headroom(base, g)
    if g.terms:
        inner = closed_sq_diff(base.measure, g.terms).terms
        return MCEstimate(exp_poly_mean(base, inner), 0.0, 0, "closed")
    rule = nu_rule(base.measure, 0)
    est = mc_mean(lambda rng, size: rule.shifted_sum_sq_diff(
        g.f, base.sample(rng, size)), mc, BOUND)
    return replace(est, route=rule.route)


def posterior_bounds_gamma(k: float, a: float, b: float, n: int, xbar: float,
                           g: TestFunction, mc: MCConfig = MCConfig(), *,
                           with_oracle: bool = False) -> VarianceBounds:
    """Bracket for Var(g(theta) | data) in the Ga(k, theta) model with a
    Ga(a, b) prior on the rate theta: the posterior is Ga(a + nk, b + n xbar).
    """
    if k <= 0 or a <= 0 or b <= 0:
        raise InvalidParams("gamma model needs k, a, b > 0")
    if n < 1 or xbar < 0:
        raise InvalidParams("need n >= 1 observations with nonnegative mean")
    post = Gamma(a + n * k, b + n * xbar)
    return cacoullos_bounds(post, g, mc, with_oracle=with_oracle)


def posterior_bounds_poisson(a: float, b: float, n: int, xbar: float,
                             g: TestFunction, mc: MCConfig = MCConfig(), *,
                             with_oracle: bool = False) -> VarianceBounds:
    """Bracket for Var(g(lambda) | data) in the Poisson model with a
    Ga(a, b) prior on lambda: the posterior is Ga(a + n xbar, b + n).
    """
    if a <= 0 or b <= 0:
        raise InvalidParams("poisson model needs a, b > 0")
    if n < 1 or xbar < 0:
        raise InvalidParams("need n >= 1 observations with nonnegative mean")
    post = Gamma(a + n * xbar, b + n)
    return cacoullos_bounds(post, g, mc, with_oracle=with_oracle)
