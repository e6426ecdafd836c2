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
measures. Each estimate names the route it took in its `route`: 'closed',
'bias', 'atoms' or 'rule'.

For g with terms the outer integral over s is closed at every n. With
g = e^{zx}, I_m(x) = e^{zx} Psi_m(z), and under the tilt e^{z X_s} the
pair's Y_s has cumulants (1 - s) kappa_j(0) + s kappa_j(z), where
kappa_1(z) = E X + Psi_1(z) and kappa_j(z) = C_j + Psi_j(z). So

    Cov(X^n, e^{zX}) = E[ Phi_n(z) e^{zX} ],
    Phi_n(z) = sum_{k<n} C(n,k) Psi_{n-k}(z) int_0^1 B_k(c(s)) ds,

with B_k the complete Bell polynomial of the mixed cumulants c(s); a term
x^p e^{zx} takes the p-th z-derivative. The whole integrand is one
exponential polynomial in x, and X is drawn directly. Off the closed route
(g without terms, or the bias route asked for by name) X is still drawn
alone at n <= 2: X_s has the law of X, and Y_s enters only at n = 2, once,
where the bridge property of the Lévy process gives
E[Y_s | X_s] = (1 - s) E X + s X_s; integrated over s,

    Cov(X^2, g(X)) = E[ I_2(X) + (E X + X) I_1(X) ].

The coupled pair serves only g without terms at n >= 3 (and the bias route
by name), drawn at the ceil(n / 2) Gauss-Legendre nodes in s, which are
exact: the s-integrand has degree at most n - 1 (`JointPairSampler`).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import replace
from functools import partial
from typing import Dict, Optional

import numpy as np

from .dist_catalog import BGD, VGD, IDDSpec, vgd_to_alt
from .errors import DivergentMoment, InvalidParams
from .functions import TestFunction
from .levy_core import (BiasVariable, ClosedInner, LevyMeasure,
                        closed_inner, exp_moment, moments_from_cumulants,
                        nu_rule)
from .mc import ORACLE, MCConfig, MCEstimate, mc_cov, mc_mean

__all__ = [
    "JointPairSampler",
    "sample_joint",
    "cov_identity_rhs",
    "cov_first_order",
    "cov_oracle",
    "stein_residual",
    "stein_residual_cgmy",
    "stein_residual_vgd",
    "stein_residual_bgd",
]


class JointPairSampler:
    """Draws the coupled pair (X_s, Y_s) with a shared component of weight s.

    Marginally X_s ~ X and Y_s ~ X for every s; only the dependence varies,
    from independence at s = 0 to X_s = Y_s at s = 1. At a fixed s every
    entry has that s. With s None the pair stands for int_0^1 ... ds in the
    order-`order` identity: a batch is split into near-equal shares, one at
    each of the ceil(order / 2) Gauss-Legendre nodes s_j, weighted so that
    its mean is sum_j w_j (share mean). That is exact: E[Y_s^k | X_s] is a
    polynomial of degree at most k in s, so the order-n integrand has
    degree at most n - 1. `cov_identity_rhs` draws it only for g without
    terms at n >= 3, and on the bias route asked for by name.
    """

    def __init__(self, base: IDDSpec, s: Optional[float] = None,
                 order: int = 2):
        if s is not None and not 0.0 <= s <= 1.0:
            raise InvalidParams(f"coupling weight s={s} outside [0, 1]")
        if order < 1:
            raise InvalidParams(f"identity order {order} is not positive")
        self.base = base
        if s is None:
            nodes, weights = np.polynomial.legendre.leggauss((order + 1) // 2)
            self.nodes, self.weights = 0.5 * (nodes + 1.0), 0.5 * weights
        else:
            self.nodes, self.weights = [float(s)], [1.0]

    def sample(self, rng: np.random.Generator, size: int):
        """(x, y, w) of the given size, share by share (A, B ~
        X^{*(1 - s_j)}, C ~ X^{*s_j}), w_j size / (share size) per entry."""
        k = len(self.nodes)
        if size < k:
            raise InvalidParams(
                f"a batch of {size} cannot cover {k} Gauss-Legendre nodes")
        parts = []
        for j, (s, weight) in enumerate(zip(self.nodes, self.weights)):
            m = size // k + (j < size % k)
            a, b, c = (self.base.sample_conv(rng, p, m)
                       for p in (1.0 - s, 1.0 - s, s))
            parts.append((a + c, b + c, np.full(m, weight * size / m)))
        return tuple(np.concatenate(col) for col in zip(*parts))


def sample_joint(base: IDDSpec, rng: np.random.Generator, size: int,
                 s: Optional[float] = None, order: int = 2):
    return JointPairSampler(base, s, order).sample(rng, size)


def _check_tilt_headroom(base: IDDSpec, g: TestFunction):
    """g growing like e^{tilt x} needs 2 tilt below the Lévy decay rate on
    g's side: every caller averages something that grows like g squared,
    a Monte Carlo mean that needs a finite variance or a bound's square of
    g' or of g's increments."""
    left, right = base.tail_rates()
    rate = 2.0 * g.tilt
    side, limit = ("positive", right) if rate > 0 else ("negative", left)
    if rate != 0 and abs(rate) >= limit:
        raise DivergentMoment(
            f"{g.name} squared grows at rate {abs(rate)} on the {side} side, "
            f"at or beyond its Lévy decay rate {limit}")


def _moment_precheck(base: IDDSpec, n: int):
    """All cumulants through order n+1 must be finite: `LevyMeasure.moment`
    raises DivergentMoment for the first that is not."""
    for k in range(2, n + 2):
        base.measure.moment(k)


def _nu_inner(measure: LevyMeasure, g: TestFunction, m: int,
              subtract: bool = True):
    """(route, x -> int u^m (g(x+u) - [subtract] g(x)) nu(du)): 'closed'
    when g has exponential-polynomial terms, otherwise the fixed nu-rule's
    route, an exact sum over 'atoms' or a quadrature 'rule'."""
    if g.terms:
        return "closed", closed_inner(measure, g.terms, m, subtract)
    rule = nu_rule(measure, m)
    return rule.route, partial(rule.shifted_sum, g.f, subtract_at_x=subtract)


def _series_mul(a, b):
    """Product of power series in t truncated to their common length;
    coefficients run along the first axis, the rest broadcast."""
    out = a[0] * b
    for i in range(1, len(a)):
        out[i:] += a[i] * b[:-i]
    return out


def _overflow(n: int) -> DivergentMoment:
    return DivergentMoment(
        f"the order-{n} identity's closed integrand overflows the range of "
        "a double")


def _phi_derivatives(measure: LevyMeasure, mu: float, n: int, z: complex,
                     deg: int) -> np.ndarray:
    """Phi_n^(j)(z), j = 0..deg, for

        Phi_n(z) = sum_{k<n} C(n,k) Psi_{n-k}(z) int_0^1 B_k(c(s)) ds,

    where B_k is the complete Bell polynomial and c_j(s) = (1 - s) kappa_j(0)
    + s kappa_j(z) are the cumulants of Y_s under the tilt e^{z X_s}. It
    works in power series of t around z, built from int u^q e^{zu} nu(du) =
    C_q + Psi_q(z), read directly (`exp_moment` with minus_one False), as
    the sum cancels at large |z|: the t^i coefficient of Psi_m(z + t) is
    that integral at q = m + i over i!, and kappa_j(z) is Psi_j(z) plus its
    value at z = 0, mu or C_j. The s-integrand has degree n - 1 in s, so
    ceil(n / 2) Gauss-Legendre nodes integrate it exactly. The Bell
    recursion makes O(n^2) series products and stops at the first moment
    beyond the range of a double.
    """
    at_z = np.array([0j] + [complex(exp_moment(measure, q, z))
                            for q in range(1, n + 1)])
    # entries 0 and 1 land only in row 0, unused, or in column 0, at_z's
    tilted = np.array([0j, 0j] + [
        complex(exp_moment(measure, q, z, minus_one=False))
        for q in range(2, n + deg + 1)])
    fact = np.array([math.factorial(i) for i in range(deg + 1)], dtype=float)
    # row m: the series of Psi_m(z + t), m = 0..n (row 0 is unused)
    psi = tilted[np.arange(n + 1)[:, None] + np.arange(deg + 1)] / fact
    psi[:, 0] = at_z
    nodes, weights = np.polynomial.legendre.leggauss((n + 1) // 2)
    s = 0.5 * (nodes + 1.0)
    cums = []
    for j in range(1, n):
        c = psi[j][:, None] * s
        c[0] += mu if j == 1 else measure.moment(j)
        cums.append(c)
    mean_bell = [np.eye(deg + 1)[0]]
    for m in moments_from_cumulants(cums, _series_mul):
        if not np.isfinite(m).all():
            raise _overflow(n)
        mean_bell.append(0.5 * m @ weights)
    return fact * sum(math.comb(n, k) * _series_mul(psi[n - k], mean_bell[k])
                      for k in range(n))


def _closed_integrand(base: IDDSpec, terms, n: int) -> ClosedInner:
    """The order-n right-hand side as one exponential polynomial h in x,
    Cov(X^n, g(X)) = E[h(X)] for g = Re sum of terms (a, p, z).

    For g = e^{zx} the identity's right-hand side is E[Phi_n(z) e^{zX}]
    (`_phi_derivatives`), and x^p e^{zx} = d^p/dz^p e^{zx} gives
    sum_j C(p, j) Phi_n^(j)(z) x^{p-j} e^{zx}. Terms are gathered by
    (power, z), so each distinct z costs one exponential per entry. A
    coefficient beyond the range of a double raises DivergentMoment.
    """
    terms = [(complex(a), p, complex(z)) for a, p, z in terms]
    deg = defaultdict(int)
    for _, p, z in terms:
        deg[z] = max(deg[z], p)
    coef = defaultdict(complex)
    with np.errstate(all="ignore"):
        try:
            phi = {z: _phi_derivatives(base.measure, base.mean(), n, z, top)
                   for z, top in deg.items()}
        except OverflowError:  # C(n, k) beyond the range of a double
            raise _overflow(n) from None
        for a, p, z in terms:
            for j in range(p + 1):
                coef[p - j, z] += a * math.comb(p, j) * phi[z][j]
    if not all(np.isfinite(c) for c in coef.values()):
        raise _overflow(n)
    return ClosedInner(tuple((complex(c), p, z) for (p, z), c in coef.items()
                             if c))


def cov_identity_rhs(base: IDDSpec, n: int, g: TestFunction,
                     mc: MCConfig = MCConfig(),
                     route: str = "auto") -> MCEstimate:
    """Monte Carlo value of the right-hand side of the order-n identity.

    route 'bias' draws the inner integral through equilibrium variables
    (positive support; two-sided only at n = 1), 'quadrature' evaluates
    the nu-form of I_m in closed form when g has terms, and otherwise with
    fixed nu-rules (exact sums for atomic measures). 'auto' picks by g:
    'closed' whenever g has terms, on any support; otherwise the bias
    variables on positive support, and a fixed rule elsewhere. The
    estimate's `route` names the route taken: 'closed', 'bias', 'atoms' or
    'rule'.

    On the closed route each batch draws X once with `sample`, at every n:
    the integrand is the exponential polynomial Phi_n(z) e^{zx} per term
    of g, differentiated in z for powers of x (see the module docstring
    and `_closed_integrand`). Off the closed route X is drawn alone at
    n <= 2: X_s has the law of X, and at n = 2 the factor Y_s of I_1(X_s)
    is replaced by E[Y_s | X_s] = (1 - s) mu + s X_s integrated over s,
    giving E[I_2(X) + (mu + X) I_1(X)], the pair estimator's conditional
    mean. Only there, at n >= 3, `JointPairSampler` draws (X_s, Y_s) at
    the Gauss-Legendre nodes in s; the SE treats its weighted entries as
    one sample, which can only overstate it.
    """
    if n < 1:
        raise InvalidParams("identity order n must be a positive integer")
    _moment_precheck(base, n)
    _check_tilt_headroom(base, g)
    meas = base.measure
    if route == "auto":
        route = ("bias" if not g.terms and meas.support == "positive"
                 else "quadrature")
    if route == "bias":
        if meas.support != "positive" and n > 1:
            raise InvalidParams(
                "bias-sampling route needs positive support for n > 1 "
                "(even-order bias variables do not exist two-sided)")
    elif route != "quadrature":
        raise InvalidParams(f"unknown route {route!r}")
    elif g.terms:
        whole = _closed_integrand(base, g.terms, n)
        est = mc_mean(lambda rng, size: whole(base.sample(rng, size)), mc)
        return replace(est, route="closed")

    mu = base.mean()
    pair = JointPairSampler(base, order=n)
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
        rules = {m: _nu_inner(meas, g, m) for m in range(1, n + 1)}
        route = rules[n][0]

        def inner(rng, m, x):
            return rules[m][1](x)

    def batch(rng, size):
        if n > 2:
            x, y, w = pair.sample(rng, size)
        else:
            # X_s has the law of X; at n = 2, E[Y_s | X_s] integrated over s
            x, w = base.sample(rng, size), 1.0
            y = 0.5 * (mu + x) if n == 2 else None
        z = inner(rng, n, x)
        for k in range(1, n):
            z += binom[k] * y**k * inner(rng, n - k, x)
        return w * z

    est = mc_mean(batch, mc)
    return MCEstimate(scale * est.value, scale * est.std_error, est.n, route)


def cov_first_order(base: IDDSpec, g: TestFunction,
                    mc: MCConfig = MCConfig()) -> MCEstimate:
    """Cov(X, g(X)) = Var(X) * E[g'(X + Y_1)]; valid for every catalog
    family, since the first-order bias variable exists two-sided. It is
    the n = 1 bias route of `cov_identity_rhs`."""
    return cov_identity_rhs(base, 1, g, mc, route="bias")


def cov_oracle(base: IDDSpec, n: int, g: TestFunction,
               mc: MCConfig = MCConfig()) -> MCEstimate:
    """Plain sample covariance of (X^n, g(X)); the independent check the
    identity estimators are held against, drawn from the ORACLE streams.
    A g whose square grows past the Lévy decay rate raises
    DivergentMoment, as the identity does."""
    if n < 1:
        raise InvalidParams("moment order n must be a positive integer")
    _check_tilt_headroom(base, g)

    def batch(rng, size):
        x = base.sample(rng, size)
        return x**n, g.f(x)

    return mc_cov(batch, mc, ORACLE)


# -- Stein-type characterizing residuals ---------------------------------------


def stein_residual(spec: IDDSpec, g: TestFunction,
                   mc: MCConfig = MCConfig()) -> MCEstimate:
    """E[(X - b) g(X) - int u g(X + u) nu(du)] vanishes exactly on every
    IDD law, with b its uncompensated drift: b = 0 for CGMY, and Poisson
    gives Chen's E[X g(X)] = lam E[g(X + 1)]. The inner integral is closed
    when g has terms and a fixed nu-rule otherwise, so the residual is a
    plain mean whose MC error the caller can read off the estimate, and
    whose `route` names the inner integral's.
    """
    _check_tilt_headroom(spec, g)
    b = spec.drift
    route, inner = _nu_inner(spec.measure, g, 1, subtract=False)

    def batch(rng, size):
        x = spec.sample(rng, size)
        return (x - b) * g.f(x) - inner(x)

    return replace(mc_mean(batch, mc), route=route)


# the CGMY case (b = 0) under its earlier name
stein_residual_cgmy = stein_residual


def stein_residual_vgd(spec: VGD, g: TestFunction,
                       mc: MCConfig = MCConfig()) -> MCEstimate:
    """The paper's second-order Stein residual for the variance gamma law,
    written in the (mu0, sigma2, r, theta) parametrization of `vgd_to_alt`:

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
    """The paper's second-order Stein residual for the bilateral gamma law:

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
