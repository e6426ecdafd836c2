"""Covariance representations and Stein-type residuals for IDD laws.

The central object is the identity

    Cov(X^n, g(X)) = sum_{k=0}^{n-1} C(n,k) int_0^1 E[ Y_s^k I_{n-k}(X_s) ] ds,

where (X_s, Y_s) is the exchangeable pair sharing an s-fraction of the Lévy
machinery (X_s = A + C, Y_s = B + C with A, B ~ X^{*(1-s)}, C ~ X^{*s},
independent) and

    I_m(x) = int g'(x + v) eta_m(v) dv = int u^m (g(x+u) - g(x)) nu(du).

The two expressions for I_m are a Fubini identity; every estimator here
uses the nu-form, and the tests cross-check it against the eta-form. When g
is an exponential polynomial (it carries terms) the nu-form is closed: an
exponential polynomial in x again, evaluated per sample. Otherwise it runs
through a fixed nu-rule, an exact sum for atomic measures. For measures
supported on the positive half-line, I_m(x) = C_{m+1} E[g'(x + Y_m)] with
Y_m the bias variable of order m, which gives a quadrature-free sampling
route.

The outer integral over s is handled by drawing s ~ U(0,1) per sample,
which keeps the estimator unbiased without any grid.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, Optional

import numpy as np

from .dist_catalog import BGD, CGMY, IDDSpec, VGDAltParams, vgd_from_alt
from .errors import DivergentMoment, InvalidParams
from .functions import TestFunction
from .levy_core import (
    DEFAULT_QUAD,
    BiasVariable,
    LevyMeasure,
    QuadratureConfig,
    closed_inner,
    nu_rule,
)
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


def _check_tilt_headroom(base: IDDSpec, g: TestFunction):
    """g growing like e^{tilt x} needs tilt below the Lévy decay rate,
    otherwise the inner integrals (and the covariance itself) diverge."""
    left, right = base.tail_rates()
    if g.tilt > 0 and g.tilt >= right:
        raise DivergentMoment(
            f"{g.name} grows at rate {g.tilt}, at or beyond the positive "
            f"Lévy decay rate {right}")
    if g.tilt < 0 and -g.tilt >= left:
        raise DivergentMoment(
            f"{g.name} grows at rate {-g.tilt} on the left, at or beyond "
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
              cfg: QuadratureConfig, subtract: bool = True):
    """x -> int u^m (g(x+u) - [subtract] g(x)) nu(du), on the route that
    `inner_route` names: closed, or a fixed nu-rule (exact over atoms)."""
    if g.terms:
        return closed_inner(measure, g.terms, m, subtract)
    rule = nu_rule(measure, m, cfg, tilt=g.tilt)
    return partial(rule.shifted_sum, g.f, subtract_at_x=subtract)


def identity_route(base: IDDSpec, n: int, g: TestFunction,
                   route: str = "auto") -> str:
    """The inner-integral route of `cov_identity_rhs`: 'bias', 'closed',
    'atoms' or 'rule'."""
    meas = base.measure
    if route == "auto":
        route = "bias" if meas.support == "positive" else "quadrature"
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
                     cfg: QuadratureConfig = DEFAULT_QUAD,
                     route: str = "auto") -> MCEstimate:
    """Monte Carlo value of the right-hand side of the order-n identity.

    route 'bias' draws the inner integral through equilibrium variables
    (positive support; two-sided only at n = 1), 'quadrature' evaluates
    the nu-form of I_m in closed form when g has terms, and otherwise with
    fixed nu-rules (exact sums for atomic measures); 'auto' picks
    whichever is natural for the measure. `identity_route` names the pick.
    """
    if n < 1:
        raise InvalidParams("identity order n must be a positive integer")
    _moment_precheck(base, n)
    _check_tilt_headroom(base, g)
    route = identity_route(base, n, g, route)
    pair = JointPairSampler(base)
    binom = [math.comb(n, k) for k in range(n)]
    meas = base.measure

    if route == "bias":
        bank: Dict[int, BiasVariable] = {
            m: BiasVariable(meas, m, cfg) for m in range(1, n + 1)}
        consts = {m: bank[m].normalizer for m in bank}

        def batch(rng, size):
            x, y, _ = pair.sample(rng, size)
            z = np.zeros(size)
            for k in range(n):
                m = n - k
                shift = bank[m].sample(rng, size)
                z += binom[k] * y**k * consts[m] * g.d1(x + shift)
            return z

        return mc_mean(batch, mc)

    inner = {m: _nu_inner(meas, g, m, cfg) for m in range(1, n + 1)}

    def batch(rng, size):
        x, y, _ = pair.sample(rng, size)
        z = np.zeros(size)
        for k in range(n):
            z += binom[k] * y**k * inner[n - k](x)
        return z

    return mc_mean(batch, mc)


def cov_first_order(base: IDDSpec, g: TestFunction,
                    mc: MCConfig = MCConfig(),
                    cfg: QuadratureConfig = DEFAULT_QUAD) -> MCEstimate:
    """Cov(X, g(X)) = Var(X) * E[g'(X + Y_1)]; valid for every catalog
    family, since the first-order bias variable exists two-sided."""
    _check_tilt_headroom(base, g)
    bv = BiasVariable(base.measure, 1, cfg)
    var = base.variance(cfg)

    def batch(rng, size):
        x = base.sample(rng, size)
        return g.d1(x + bv.sample(rng, size))

    est = mc_mean(batch, mc)
    return MCEstimate(var * est.value, var * est.std_error, est.n)


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
                        mc: MCConfig = MCConfig(),
                        cfg: QuadratureConfig = DEFAULT_QUAD) -> MCEstimate:
    """E[X g(X) - int u g(X + u) nu(du)] vanishes exactly on the CGMY law.

    The inner integral is closed when g has terms and a fixed nu-rule
    otherwise, so the residual is a plain mean whose MC error the caller
    can read off the estimate.
    """
    if not isinstance(spec, CGMY):
        raise InvalidParams("stein_residual_cgmy expects a CGMY spec")
    _check_tilt_headroom(spec, g)
    inner = _nu_inner(spec.measure, g, 1, cfg, subtract=False)

    def batch(rng, size):
        x = spec.sample(rng, size)
        return x * g.f(x) - inner(x)

    return mc_mean(batch, mc)


def stein_residual_vgd(params: VGDAltParams, g: TestFunction,
                       mc: MCConfig = MCConfig()) -> MCEstimate:
    """Second-order Stein residual in the (mu0, sigma2, r, theta)
    parametrization:

        E[ sigma2 (X-mu0) g'' + (sigma2 r + 2 theta (X-mu0)) g'
           + (r theta - (X-mu0)) g ] = 0.
    """
    spec = vgd_from_alt(params)
    _check_tilt_headroom(spec, g)
    s2, r, th, mu0 = params.sigma2, params.r, params.theta, params.mu0

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
