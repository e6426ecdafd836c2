"""Premium principles and the Gini index, computed from the Lévy measure.

The weighted premium of a positive-mean risk X under a weight w is

    H_w(X) = E[X w(X)] / E[w(X)] = E(X) + Cov(X, w(X)) / E[w(X)],

and the covariance is evaluated through the first-order identity
Cov(X, w(X)) = E[ int u (w(X+u) - w(X)) nu(du) ], so the premium is read off
the Lévy measure rather than fitted to the distribution. With w = e^{kappa x}
this is the Esscher premium, which also has a closed form for every catalog
family through the tilted first moment of nu.

The Gini index admits the same treatment with w replaced by the cdf:
G = (2/mu) Cov(X, F(X)); `gini` computes it either that way (the covariance
oracle) or through the Lévy formula with the inner integral against nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dist_catalog import IDDSpec
from .errors import InvalidParams, ZeroDenominator
from .functions import TestFunction
from .identities import _check_tilt_headroom, _nu_inner, cov_identity_rhs
from .levy_core import DEFAULT_QUAD, QuadratureConfig, nu_rule, \
    tilted_first_moment_delta
from .mc import DENOMINATOR, ORACLE, MCConfig, mc_cov, mc_mean, mc_ratio

__all__ = [
    "PremiumReport",
    "GiniReport",
    "wpcp",
    "esscher_closed",
    "modified_variance",
    "generalized_wpcp",
    "gini",
    "gini_variance_scale",
    "raw_moment",
]

# tilts are kept strictly inside the convergence strip; at the boundary the
# premium is infinite and just short of it the MC variance explodes
TILT_MARGIN = 0.999


@dataclass(frozen=True)
class PremiumReport:
    principle: str
    value: float
    method: str  # 'closed_form' or 'numeric'
    std_error: Optional[float] = None
    n: Optional[int] = None


@dataclass(frozen=True)
class GiniReport:
    value: float
    method: str  # 'levy_formula' or 'covariance_oracle'
    std_error: float
    n: int


def _nonzero_mean(base: IDDSpec, cfg: QuadratureConfig) -> float:
    mu = base.mean(cfg)
    if mu == 0.0:
        raise ZeroDenominator("risk has zero mean")
    return mu


def wpcp(base: IDDSpec, w: TestFunction, mc: MCConfig = MCConfig(),
         cfg: QuadratureConfig = DEFAULT_QUAD) -> PremiumReport:
    """Weighted premium H_w(X) = E(X) + E[I_1^w(X)] / E[w(X)], Monte Carlo.

    I_1^w(x) = int u (w(x+u) - w(x)) nu(du) is closed when w has terms and
    a fixed rule otherwise (exact for atomic measures), so each sample
    contributes a deterministic inner value; only the outer expectation is
    sampled. For w = e^{kappa x} the closed I_1^w(x) is w(x) Psi_1(kappa),
    so every sample's ratio is the Esscher shift of `esscher_closed`.
    """
    _check_tilt_headroom(base, w)
    mean = base.mean(cfg)
    inner = _nu_inner(base.measure, w, 1, cfg)

    def batch(rng, size):
        x = base.sample(rng, size)
        return inner(x), w.f(x)

    est = mc_ratio(batch, mc)
    return PremiumReport(principle=f"wpcp({w.name})", value=mean + est.value,
                         method="numeric", std_error=est.std_error, n=est.n)


def esscher_closed(base: IDDSpec, kappa: float,
                   cfg: QuadratureConfig = DEFAULT_QUAD) -> PremiumReport:
    """Esscher premium H(kappa) = E(X) + int u (e^{kappa u} - 1) nu(du).

    Closed form for every catalog family, through the tilted first moment
    of nu. kappa must stay inside the convergence strip with a margin.
    """
    if kappa <= 0:
        raise InvalidParams("esscher tilt kappa must be strictly positive")
    kmax = base.esscher_kappa_max()
    if math.isfinite(kmax) and kappa > TILT_MARGIN * kmax:
        raise InvalidParams(
            f"esscher tilt kappa={kappa} beyond {TILT_MARGIN} * kappa_max "
            f"= {TILT_MARGIN * kmax:.6g} for this family")
    delta = tilted_first_moment_delta(base.measure, kappa, cfg)
    return PremiumReport(principle=f"esscher({kappa:g})",
                         value=base.mean(cfg) + delta, method="closed_form")


def modified_variance(base: IDDSpec,
                      cfg: QuadratureConfig = DEFAULT_QUAD) -> PremiumReport:
    """H = E(X) + Var(X)/E(X) from cumulants."""
    mu = _nonzero_mean(base, cfg)
    var = base.variance(cfg)
    return PremiumReport(principle="modified_variance", value=mu + var / mu,
                         method="closed_form")


def raw_moment(base: IDDSpec, n: int,
               cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """E[X^n] from the cumulants via the standard recursion
    m_j = sum_i C(j-1, i-1) c_i m_{j-i}."""
    if n < 1:
        raise InvalidParams("moment order must be a positive integer")
    cums = [base.closed_cumulant(k) for k in range(1, n + 1)]
    moments = [1.0]
    for j in range(1, n + 1):
        moments.append(sum(math.comb(j - 1, i - 1) * cums[i - 1] * moments[j - i]
                           for i in range(1, j + 1)))
    return moments[n]


def generalized_wpcp(base: IDDSpec, n: int, w: TestFunction,
                     mc: MCConfig = MCConfig(),
                     cfg: QuadratureConfig = DEFAULT_QUAD) -> PremiumReport:
    """H_w^(n)(X) = E[X^n w(X)] / E[w(X)] = E[X^n] + Cov(X^n, w(X)) / E[w(X)].

    The covariance comes from the order-n identity, the weight mean from a
    plain MC mean on the independent DENOMINATOR streams; the SE combines
    the two by the delta method.
    """
    if n < 1:
        raise InvalidParams("premium order n must be a positive integer")
    cov = cov_identity_rhs(base, n, w, mc, cfg)
    den = mc_mean(lambda rng, m: np.asarray(w.f(base.sample(rng, m)),
                                            dtype=float), mc, DENOMINATOR)
    if den.value == 0.0:
        raise ZeroDenominator("weight has zero mean under the risk law")
    mn = raw_moment(base, n, cfg)
    value = mn + cov.value / den.value
    se = math.hypot(cov.std_error / den.value,
                    cov.value * den.std_error / den.value**2)
    return PremiumReport(principle=f"generalized_wpcp(n={n}, {w.name})",
                         value=value, method="numeric", std_error=se, n=cov.n)


def gini(base: IDDSpec, mc: MCConfig = MCConfig(),
         cfg: QuadratureConfig = DEFAULT_QUAD,
         method: str = "levy_formula") -> GiniReport:
    """Gini index G = (2/mu) Cov(X, F(X)) of a positive-mean risk.

    method 'levy_formula' evaluates the covariance through the Lévy measure
    (inner fixed rule against nu, outer MC), 'covariance_oracle' estimates
    it as a plain sample covariance on the independent ORACLE streams. For
    laws with support crossing zero the number is still (2/mu) Cov(X, F(X)),
    but it is not a Lorenz-curve Gini; the CLI flags that case rather than
    rejecting it.
    """
    mu = _nonzero_mean(base, cfg)
    if mu < 0:
        raise InvalidParams("gini index needs a positive mean")
    F = base.cdf_fn(cfg)
    if method == "levy_formula":
        rule = nu_rule(base.measure, 1, cfg)

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
    return GiniReport(value=2.0 / mu * est.value, method=method,
                      std_error=2.0 / mu * est.std_error, n=est.n)


def gini_variance_scale(base: IDDSpec,
                        cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """(2/mu) Var(X): the number obtained from the Gini covariance formula
    when F is replaced by the identity. It is not a Gini coefficient (it is
    not even scale free); reported only so diagnostics can quantify how far
    it sits from the actual index."""
    mu = _nonzero_mean(base, cfg)
    return 2.0 / mu * base.variance(cfg)
