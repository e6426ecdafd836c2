"""Variance bounds: the Cacoullos-type bracket, Chen's jump bound, and the
conjugate-posterior wrappers.

The bracket is

    Var(X) (E[g'(X + Y_1)])^2  <=  Var(g(X))  <=  Var(X) E[(g'(X + Y_1))^2],

with Y_1 the first-order bias variable of the Lévy measure. Lower and upper
estimates share the same draws of (X, Y_1), so their ordering holds sample
by sample and the bracket cannot cross from Monte Carlo noise alone.

Chen's upper bound E[int (g(X+u) - g(X))^2 nu(du)] is looser in general but
needs no bias variable and holds for any support. Its inner integral is
closed when g has exponential-polynomial terms, and a fixed nu-rule
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .dist_catalog import Gamma, IDDSpec
from .errors import DivergentMoment, InvalidParams
from .functions import TestFunction
from .identities import _check_tilt_headroom
from .levy_core import (DEFAULT_QUAD, BiasVariable, QuadratureConfig,
                        closed_sq_diff, nu_rule)
from .mc import BOUND, ORACLE, MCConfig, MCEstimate, Welford, batch_sizes, \
    mc_mean, mc_variance, substreams

__all__ = [
    "VarianceBounds",
    "cacoullos_bounds",
    "chen_upper_bound",
    "posterior_bounds_gamma",
    "posterior_bounds_poisson",
]


@dataclass(frozen=True)
class VarianceBounds:
    lower: float
    upper: float
    method: str  # 'closed_form' or 'numeric'
    lower_se: float = 0.0
    upper_se: float = 0.0
    oracle: Optional[MCEstimate] = None

    def __post_init__(self):
        if self.lower > self.upper + 1e-12 * max(abs(self.upper), 1.0):
            raise InvalidParams(
                f"variance bounds cross: lower {self.lower} > upper {self.upper}")


def _gamma_raw_moment(a: float, b: float, j: int) -> float:
    """E[X^j] for X ~ Ga(a, b)."""
    if j == 0:
        return 1.0
    return math.exp(math.lgamma(a + j) - math.lgamma(a)) / b**j


def _poly_mean(coeffs, moment) -> float:
    """E[p(X)] for p given lowest-order-first, via a raw-moment oracle."""
    return sum(c * moment(j) for j, c in enumerate(coeffs))


def _poly_square(coeffs):
    """Coefficients of p(x)^2, lowest order first."""
    n = len(coeffs)
    out = [0.0] * (2 * n - 1)
    for i, ci in enumerate(coeffs):
        for j, cj in enumerate(coeffs):
            out[i + j] += ci * cj
    return tuple(out)


def cacoullos_bounds(base: IDDSpec, g: TestFunction,
                     mc: MCConfig = MCConfig(),
                     cfg: QuadratureConfig = DEFAULT_QUAD,
                     with_oracle: bool = False) -> VarianceBounds:
    """The variance bracket for Var(g(X)).

    Closed form when it is exact, read from the terms of g: affine g on any
    family (both sides equal (g')^2 Var(X)), and polynomial g on the gamma
    family, where X + Y_1 is again gamma with the shape bumped by one.
    Everything else is Monte Carlo with shared draws. `with_oracle`
    attaches a direct sample-variance estimate of Var(g(X)) from the
    independent ORACLE streams.
    """
    _check_tilt_headroom(base, g)
    if g.tilt != 0.0:
        # the upper edge integrates (g')^2 ~ e^{2 tilt x}
        left, right = base.tail_rates()
        if g.tilt > 0 and 2.0 * g.tilt >= right:
            raise DivergentMoment(
                f"({g.name}')^2 grows at rate {2 * g.tilt}, at or beyond "
                f"the positive Lévy decay rate {right}")
        if g.tilt < 0 and 2.0 * -g.tilt >= left:
            raise DivergentMoment(
                f"({g.name}')^2 grows at rate {2 * -g.tilt} on the left, at "
                f"or beyond the negative Lévy decay rate {left}")
    var = base.variance(cfg)
    oracle = mc_variance(lambda rng, m: g.f(base.sample(rng, m)), mc,
                         ORACLE) if with_oracle else None

    if g.d1_poly is not None and len(g.d1_poly) == 1:
        c = g.d1_poly[0]
        return VarianceBounds(lower=var * c * c, upper=var * c * c,
                              method="closed_form", oracle=oracle)

    if g.d1_poly is not None and isinstance(base, Gamma) and base.a > 0:
        a, b = base.a, base.b
        mean_d1 = _poly_mean(g.d1_poly, lambda j: _gamma_raw_moment(a + 1, b, j))
        mean_d1sq = _poly_mean(_poly_square(g.d1_poly),
                               lambda j: _gamma_raw_moment(a + 1, b, j))
        return VarianceBounds(lower=var * mean_d1**2, upper=var * mean_d1sq,
                              method="closed_form", oracle=oracle)

    bv = BiasVariable(base.measure, 1, cfg)
    acc_t = Welford()
    acc_t2 = Welford()
    for rng, m in zip(substreams(mc), batch_sizes(mc)):
        w = base.sample(rng, m) + bv.sample(rng, m)
        t = np.asarray(g.d1(w), dtype=float)
        if not np.all(np.isfinite(t)):
            raise DivergentMoment(
                f"g'={g.name} produced non-finite values at X + Y_1")
        acc_t.add_batch(t)
        acc_t2.add_batch(t * t)
    et, et2 = acc_t.estimate(), acc_t2.estimate()
    lower = var * et.value**2
    upper = var * et2.value
    # delta method on x -> x^2 for the lower edge
    lower_se = var * 2.0 * abs(et.value) * et.std_error
    upper_se = var * et2.std_error
    return VarianceBounds(lower=lower, upper=upper, method="numeric",
                          lower_se=lower_se, upper_se=upper_se, oracle=oracle)


def chen_upper_bound(base: IDDSpec, g: TestFunction,
                     mc: MCConfig = MCConfig(),
                     cfg: QuadratureConfig = DEFAULT_QUAD) -> MCEstimate:
    """E[int (g(X+u) - g(X))^2 nu(du)], the jump form of the upper bound.

    The integrand has a double zero at u = 0, which is what keeps the
    integral finite even though nu itself may be infinite near the origin.
    It draws from the BOUND streams, independent of the bracket's.
    """
    _check_tilt_headroom(base, g)
    if g.tilt != 0.0:
        # (g(x+u)-g(x))^2 grows at twice the rate of g
        left, right = base.tail_rates()
        if 2.0 * abs(g.tilt) >= min(left, right):
            raise DivergentMoment(
                f"(delta {g.name})^2 grows at rate {2 * abs(g.tilt)}, beyond "
                "the Lévy decay rates")
    if g.terms:
        inner = closed_sq_diff(base.measure, g.terms)
    else:
        inner = partial(nu_rule(base.measure, 0, cfg, tilt=2.0 * g.tilt)
                        .shifted_sum_sq_diff, g.f)

    def batch(rng, size):
        return inner(base.sample(rng, size))

    return mc_mean(batch, mc, BOUND)


def posterior_bounds_gamma(k: float, a: float, b: float, n: int, xbar: float,
                           g: TestFunction, mc: MCConfig = MCConfig(),
                           cfg: QuadratureConfig = DEFAULT_QUAD,
                           with_oracle: bool = False) -> VarianceBounds:
    """Bracket for Var(g(theta) | data) in the Ga(k, theta) model with a
    Ga(a, b) prior on the rate theta: the posterior is Ga(a + nk, b + n xbar).
    """
    if k <= 0 or a <= 0 or b <= 0:
        raise InvalidParams("gamma model needs k, a, b > 0")
    if n < 1 or xbar < 0:
        raise InvalidParams("need n >= 1 observations with nonnegative mean")
    post = Gamma(a + n * k, b + n * xbar)
    return cacoullos_bounds(post, g, mc, cfg, with_oracle=with_oracle)


def posterior_bounds_poisson(a: float, b: float, n: int, xbar: float,
                             g: TestFunction, mc: MCConfig = MCConfig(),
                             cfg: QuadratureConfig = DEFAULT_QUAD,
                             with_oracle: bool = False) -> VarianceBounds:
    """Bracket for Var(g(lambda) | data) in the Poisson model with a
    Ga(a, b) prior on lambda: the posterior is Ga(a + n xbar, b + n).
    """
    if a <= 0 or b <= 0:
        raise InvalidParams("poisson model needs a, b > 0")
    if n < 1 or xbar < 0:
        raise InvalidParams("need n >= 1 observations with nonnegative mean")
    post = Gamma(a + n * xbar, b + n)
    return cacoullos_bounds(post, g, mc, cfg, with_oracle=with_oracle)
