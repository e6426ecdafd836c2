"""Lévy measures, tail integrals, cumulants and bias variables.

Everything downstream (identities, bounds, premiums) reduces to integrals
against a Lévy measure nu or against its tail integrals

    eta_k+(u) = int_u^inf y^k nu(dy)          for u > 0,
    eta_k-(u) = -int_{-inf}^u y^k nu(dy)      for u < 0.

The sign of eta_k- is stored exactly as defined (with the leading minus), so
eta_k is nonnegative on both sides for odd k; for even k the negative side
can be negative. That is a feature of the definition, not a bug.

A measure is either finitely many atoms or one tilted-power side per
half-line (density alpha |u|^{-1-beta} e^{-rate |u|}); every catalog family
is one of the two. Tail integrals and moments then have closed forms
through the upper incomplete gamma function, and adaptive quadrature of
the density is kept only as an independent oracle for them.

The same holds for exponential moments: int u^m e^{zu} nu(du) is a finite
sum over atoms or c Gamma(m-beta) (rate-z)^{beta-m} per side, for complex
z. So for a test function given as an exponential polynomial
g(x) = Re sum a x^p e^{zx}, the inner integrals int u^m (g(x+u) - g(x))
nu(du), int u g(x+u) nu(du) and int (g(x+u) - g(x))^2 nu(du) are again
exponential polynomials in x with closed coefficients (`closed_inner`,
`closed_sq_diff`). Functions without that form (gauss, log1psq, a cdf) go
through the fixed nu-rule (`nu_rule`); `eta_rule` is its eta-form check.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy import integrate
from scipy.special import gammainc, gammaincc, gammainccinv, gammaln

from .errors import (
    AtomicMeasure,
    DivergentMoment,
    InvalidParams,
    NonConvergence,
)

__all__ = [
    "QuadratureConfig",
    "TiltedPowerSide",
    "LevyMeasure",
    "TailIntegral",
    "BiasVariable",
    "FixedRule",
    "ClosedInner",
    "integrate_levy",
    "eta",
    "cumulant",
    "bias_density",
    "nu_rule",
    "eta_rule",
    "exp_moment",
    "closed_inner",
    "closed_sq_diff",
    "eval_terms",
]


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise InvalidParams("quadrature tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise InvalidParams("max_subdivisions must be positive")


DEFAULT_QUAD = QuadratureConfig()


def _in_double_range(k: int, moment: Callable[[], float]) -> float:
    """moment(), or DivergentMoment naming the order k when its value
    leaves the range of a double (math.exp and float powers raise
    OverflowError there, products and sums give inf or nan)."""
    try:
        value = moment()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DivergentMoment(
            f"moment of order {k} overflows the range of a double")
    return value


@dataclass(frozen=True)
class TiltedPowerSide:
    """One side of a tilted-power Lévy density: coef*u^{-1-beta}*e^{-rate*u}.

    u here is the distance from the origin, so the same object describes
    either side. beta < 1 keeps int |u| nu(du) finite near zero; beta may be
    negative (compound-Poisson gamma jumps have beta = -a).
    """

    coef: float
    beta: float
    rate: float

    def __post_init__(self):
        if self.coef < 0:
            raise InvalidParams("tilted-power coefficient must be nonnegative")
        if self.beta >= 1:
            raise InvalidParams(
                f"tilted-power exponent beta={self.beta} not allowed: beta < 1 "
                "is required so that int |u| nu(du) is finite near 0"
            )
        if self.rate <= 0:
            raise InvalidParams("tilted-power tilt rate must be strictly positive")

    def density(self, u):
        """Density at distance u > 0 from the origin."""
        u = np.asarray(u, dtype=float)
        return self.coef * u ** (-1.0 - self.beta) * np.exp(-self.rate * u)

    def moment(self, k: int) -> float:
        """int_0^inf u^k (density) du = coef * Gamma(k-beta) * rate^{beta-k}."""
        if k - self.beta <= 0:
            raise DivergentMoment(f"moment of order {k} diverges (beta={self.beta})")
        if self.coef == 0.0:
            return 0.0
        return _in_double_range(k, lambda: self.coef * math.exp(
            gammaln(k - self.beta) + (self.beta - k) * math.log(self.rate)))

    def tail(self, k: int, u):
        """int_u^inf y^k (density) dy for u >= 0, vectorized."""
        u = np.asarray(u, dtype=float)
        if self.coef == 0.0:
            return np.zeros_like(u)
        return self.moment(k) * gammaincc(k - self.beta, self.rate * u)

    def partial_moment(self, k: int, u) -> np.ndarray:
        """int_0^u y^k (density) dy, vectorized."""
        u = np.asarray(u, dtype=float)
        if self.coef == 0.0:
            return np.zeros_like(u)
        return self.moment(k) * gammainc(k - self.beta, self.rate * u)

    def exp_moment(self, m: int, z, subtract_one: bool = False) -> np.ndarray:
        """int_0^inf u^m (e^{zu} - [subtract_one]) (density) du, complex z.

        Closed form c Gamma(s) rate^{-s} (1 - z/rate)^{-s}, s = m - beta,
        minus c Gamma(s) rate^{-s} when subtract_one; that difference is
        taken as an expm1 so it keeps its digits for small z, and at s = 0
        it is the limit -c log(1 - z/rate). Needs Re z < rate; without
        subtract_one it also needs s > 0.
        """
        z = np.asarray(z, dtype=complex)
        if np.any(z.real >= self.rate):
            raise DivergentMoment(
                f"exponential moment at Re z = {np.max(z.real)} diverges: the "
                f"tilted-power side decays at rate {self.rate}")
        s = m - self.beta
        if s <= 0 and not subtract_one:
            raise DivergentMoment(
                f"moment of order {m} diverges (beta={self.beta})")
        w = -z / self.rate
        # log(1 + w); numpy's complex log1p forms |1 + w| directly and
        # loses the digits of a small w, so the real part goes through
        # the real log1p
        log1p_w = (0.5 * np.log1p(w.real * (2.0 + w.real) + w.imag**2)
                   + 1j * np.arctan2(w.imag, 1.0 + w.real))
        if s == 0:
            return -self.coef * log1p_w
        # c Gamma(s) rate^{-s} is the plain moment for s > 0, which stays in
        # range when Gamma(s) alone does not (gamma jumps of large shape)
        scale = (self.moment(m) if s > 0
                 else self.coef * math.gamma(s) * self.rate**-s)
        if subtract_one:
            return scale * np.expm1(-s * log1p_w)
        return scale * np.exp(-s * log1p_w)


class LevyMeasure:
    """A Lévy measure on R \\ {0}: finitely many atoms, or one tilted-power
    side per half-line (either side may be absent).

    Build it with `atomic` or `from_tilted`. Atom tail sums use the
    open-interval convention: eta_k+(u) sums atoms with location strictly
    greater than u (mirrored on the left), so eta vanishes at the atom
    itself.
    """

    def __init__(self, atoms=None,
                 pos_structure: Optional[TiltedPowerSide] = None,
                 neg_structure: Optional[TiltedPowerSide] = None):
        if (atoms is None) == (pos_structure is None and neg_structure is None):
            raise InvalidParams(
                "a Lévy measure holds either atoms or tilted-power sides")
        if atoms is not None:
            atoms = tuple((float(l), float(m)) for l, m in atoms)
            for loc, mass in atoms:
                if loc == 0.0:
                    raise InvalidParams("atom location must be nonzero")
                if mass <= 0.0:
                    raise InvalidParams("atom mass must be strictly positive")
        self.atoms = atoms
        self.pos_structure = pos_structure
        self.neg_structure = neg_structure

    # -- constructors ------------------------------------------------------

    @classmethod
    def atomic(cls, atoms: Sequence[Tuple[float, float]]) -> "LevyMeasure":
        return cls(atoms=atoms)

    @classmethod
    def from_tilted(cls, pos: Optional[TiltedPowerSide] = None,
                    neg: Optional[TiltedPowerSide] = None) -> "LevyMeasure":
        """Tilted-power measure; sides with zero coefficient are dropped."""
        if pos is not None and pos.coef == 0.0:
            pos = None
        if neg is not None and neg.coef == 0.0:
            neg = None
        if pos is None and neg is None:
            # zero measure; representable as an empty atomic measure
            return cls.atomic(())
        return cls(pos_structure=pos, neg_structure=neg)

    # -- basic queries -----------------------------------------------------

    @property
    def is_atomic(self) -> bool:
        return self.atoms is not None

    @property
    def has_pos(self) -> bool:
        if self.is_atomic:
            return any(loc > 0 for loc, _ in self.atoms)
        return self.pos_structure is not None

    @property
    def has_neg(self) -> bool:
        if self.is_atomic:
            return any(loc < 0 for loc, _ in self.atoms)
        return self.neg_structure is not None

    @property
    def support(self) -> str:
        """'positive', 'negative' or 'both'."""
        if self.has_pos and self.has_neg:
            return "both"
        return "positive" if self.has_pos else "negative"

    def sides(self):
        """(sign, side) for each tilted-power side present, positive first."""
        return [(sign, side) for sign, side in ((1.0, self.pos_structure),
                                                (-1.0, self.neg_structure))
                if side is not None]

    def density(self, u):
        if self.is_atomic:
            raise AtomicMeasure("atomic measures have no Lévy density")
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        for sign, side in self.sides():
            on = sign * u > 0
            out[on] = side.density(sign * u[on])
        return out

    # -- moments -----------------------------------------------------------

    def moment(self, k: int, cfg: QuadratureConfig = DEFAULT_QUAD,
               method: str = "auto") -> float:
        """int u^k nu(du) over the whole line, k >= 1.

        method 'auto' and 'closed' use the closed tilted-power formulas,
        'quad' forces adaptive quadrature of the density (used by the
        closed-vs-quadrature checks).
        """
        if k < 1:
            raise InvalidParams("moment order must be a positive integer")
        if self.is_atomic:
            return _in_double_range(k, lambda: float(
                sum(mass * loc**k for loc, mass in self.atoms)))
        if method not in ("auto", "quad", "closed"):
            raise InvalidParams(f"unknown moment method {method!r}")
        if method == "quad":
            return integrate_levy(self, lambda u: u**k, "both", cfg)
        return sum(sign**k * side.moment(k) for sign, side in self.sides())


class TailIntegral:
    """Evaluator for eta_k of a fixed measure; vectorized over u.

    pos(u) is eta_k+ for u > 0, neg(u) is eta_k- for u < 0 (with the
    defining minus sign), and __call__ dispatches on the sign of u.
    """

    def __init__(self, measure: LevyMeasure, k: int,
                 cfg: QuadratureConfig = DEFAULT_QUAD):
        if k < 1:
            raise InvalidParams("tail-integral order k must be a positive integer")
        self.measure = measure
        self.k = int(k)
        self.cfg = cfg

    def pos(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u < 0):
            raise InvalidParams("eta_k+ is defined for u >= 0")
        m = self.measure
        if m.is_atomic:
            out = np.zeros_like(u)
            for loc, mass in m.atoms:
                if loc > 0:
                    out = out + mass * loc**self.k * (u < loc)
            return out
        if m.pos_structure is None:
            return np.zeros_like(u)
        return m.pos_structure.tail(self.k, u)

    def neg(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u > 0):
            raise InvalidParams("eta_k- is defined for u <= 0")
        m = self.measure
        if m.is_atomic:
            out = np.zeros_like(u)
            for loc, mass in m.atoms:
                if loc < 0:
                    out = out - mass * loc**self.k * (loc < u)
            return out
        if m.neg_structure is None:
            return np.zeros_like(u)
        # int_{-inf}^u y^k nu(dy) = (-1)^k * (structured tail at |u|)
        return (-1.0) ** (self.k + 1) * m.neg_structure.tail(self.k, -u)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u == 0):
            raise InvalidParams("eta_k is defined on nonzero u")
        out = np.zeros_like(u)
        pos = u > 0
        neg = u < 0
        if np.any(pos):
            out[pos] = self.pos(u[pos])
        if np.any(neg):
            out[neg] = self.neg(u[neg])
        return out if out.ndim else float(out)


def _quad_improper(f, a, b, cfg: QuadratureConfig) -> float:
    """scipy adaptive Gauss-Kronrod with the configured budget."""
    out = integrate.quad(f, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                         limit=cfg.max_subdivisions, full_output=1)
    val, abserr = out[0], out[1]
    if len(out) > 3:
        raise NonConvergence(
            f"quadrature on ({a}, {b}) did not reach tolerance: {out[3].strip()}",
            value=val, error_estimate=abserr)
    if not np.isfinite(val):
        raise NonConvergence(f"quadrature on ({a}, {b}) returned {val}",
                             value=val, error_estimate=abserr)
    return val


def integrate_levy(measure: LevyMeasure, integrand: Callable[[float], float],
                   region: str = "both",
                   cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """int integrand(u) nu(du) over the requested region.

    Atomic measures are summed exactly. Continuous sides are integrated
    against `measure.density` with adaptive quadrature, split at |u| = 1 to
    isolate the origin panel where the density may be singular. This is the
    independent oracle for the closed forms and fixed rules; the integrand
    must make integrand * nu absolutely integrable, which catalog callers
    guarantee by always carrying a u^k factor, k >= 1.
    """
    if region not in ("pos", "neg", "both"):
        raise InvalidParams(f"unknown region {region!r}")
    if measure.is_atomic:
        total = 0.0
        for loc, mass in measure.atoms:
            if (region == "pos" and loc < 0) or (region == "neg" and loc > 0):
                continue
            total += mass * float(integrand(loc))
        return total

    def f(u):
        return float(integrand(u)) * float(measure.density(u))

    pieces = []
    if region != "neg" and measure.pos_structure is not None:
        pieces += [(0.0, 1.0), (1.0, np.inf)]
    if region != "pos" and measure.neg_structure is not None:
        pieces += [(-np.inf, -1.0), (-1.0, 0.0)]
    return sum((_quad_improper(f, a, b, cfg) for a, b in pieces), 0.0)


def eta(measure: LevyMeasure, k: int, u: float,
        cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """eta_k+(u) for u > 0, eta_k-(u) for u < 0."""
    if u == 0:
        raise InvalidParams("eta is defined on nonzero u")
    t = TailIntegral(measure, k, cfg)
    return float(t(np.asarray(u, dtype=float)))


def cumulant(spec, k: int, cfg: QuadratureConfig = DEFAULT_QUAD,
             method: str = "auto") -> float:
    """C_k(X) for X ~ IDD(mu, 0, nu): C_1 = E(X), C_k = int u^k nu(du), k>=2.

    `spec` is any object with a `measure` attribute and a `mean(cfg)` method
    (the distribution catalog provides both).
    """
    if k < 1:
        raise InvalidParams("cumulant order must be a positive integer")
    if k == 1:
        return float(spec.mean(cfg))
    return spec.measure.moment(k, cfg, method=method)


# -- bias variables --------------------------------------------------------


class BiasVariable:
    """The auxiliary variable Y_k with density eta_k / C_{k+1}.

    Supported cases: measures with positive support (any k >= 1), and
    two-sided or negative-support measures with odd k, where eta_k is
    nonnegative on both sides and the normalizer int u^{k+1} nu(du) is
    positive. Even k off the positive half-line is rejected: eta_k then
    changes sign and is not a density.

    Samplers are exact, via the equilibrium-distribution factorization
    Y = U * V with U ~ U(0,1) and V distributed as u^{k+1} nu(du)
    (normalized): a discrete draw for atoms, a gamma draw for tilted-power
    sides.
    """

    def __init__(self, measure: LevyMeasure, k: int,
                 cfg: QuadratureConfig = DEFAULT_QUAD):
        if k < 1:
            raise InvalidParams("bias order k must be a positive integer")
        if measure.support != "positive" and k % 2 == 0:
            raise InvalidParams(
                "even-order bias variables are defined only for measures with "
                "positive support (eta_k changes sign otherwise)")
        self.measure = measure
        self.k = int(k)
        self.cfg = cfg
        self._tail = TailIntegral(measure, k, cfg)
        self._mass_pos = self._side_mass(positive=True)
        self._mass_neg = self._side_mass(positive=False)
        self.normalizer = self._mass_pos + self._mass_neg
        if not np.isfinite(self.normalizer) or self.normalizer <= 0:
            raise DivergentMoment(
                f"bias normalizer C_{k+1} = {self.normalizer} is not positive")

    def _side_mass(self, positive: bool) -> float:
        """int over one side of |u|^{k+1} nu(du); the side's share of C_{k+1}."""
        m, k = self.measure, self.k
        if m.is_atomic:
            return float(sum(mass * abs(loc) ** (k + 1) for loc, mass in m.atoms
                             if (loc > 0) == positive))
        side = m.pos_structure if positive else m.neg_structure
        return side.moment(k + 1) if side is not None else 0.0

    def density(self, y):
        y = np.asarray(y, dtype=float)
        if np.any(y == 0):
            raise InvalidParams("bias density is evaluated on nonzero y")
        vals = self._tail(y) / self.normalizer
        return vals

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        p_pos = self._mass_pos / self.normalizer
        side_pos = rng.random(size) < p_pos
        u = rng.random(size)
        out = np.empty(size, dtype=float)
        n_pos = int(side_pos.sum())
        if n_pos:
            v = self._sample_v(rng, n_pos, positive=True)
            out[side_pos] = u[side_pos] * v
        if size - n_pos:
            v = self._sample_v(rng, size - n_pos, positive=False)
            out[~side_pos] = -u[~side_pos] * v
        return out

    def _sample_v(self, rng, size, positive: bool) -> np.ndarray:
        """Draw |V| from |u|^{k+1} nu(du) restricted to one side, normalized."""
        m, k = self.measure, self.k
        if m.is_atomic:
            locs = np.array([abs(l) for l, mm in m.atoms if (l > 0) == positive])
            w = np.array([mm * abs(l) ** (k + 1) for l, mm in m.atoms
                          if (l > 0) == positive])
            cum = np.cumsum(w / w.sum())
            return locs[np.searchsorted(cum, rng.random(size))]
        side = m.pos_structure if positive else m.neg_structure
        # u^{k+1} * u^{-1-beta} e^{-rate u} is a Ga(k+1-beta, rate) kernel
        return rng.gamma(k + 1 - side.beta, 1.0 / side.rate, size)


def bias_density(measure: LevyMeasure, k: int, y: float,
                 cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """f_k(y) = eta_k(y) / C_{k+1}; see BiasVariable for the supported cases."""
    return float(BiasVariable(measure, k, cfg).density(np.asarray(y, dtype=float)))


# -- fixed product rules ---------------------------------------------------


@dataclass
class FixedRule:
    """Nodes/weights for sum_q w_q h(x + u_q) style inner integrals.

    The route for integrands without a closed form: the cdf of the Gini
    formula, and test functions without exponential-polynomial terms
    (gauss, log1psq); `ClosedInner` covers the others. Built once per
    (measure, order) and reused across every Monte Carlo sample; exactness
    for atomic measures, panelled Gauss-Legendre with an origin
    substitution otherwise. Validated against adaptive quadrature and the
    closed transforms in the test suite.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, h: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(np.dot(self.weights, h(self.nodes)))

    def shifted_sum(self, h, x: np.ndarray, subtract_at_x: bool = False):
        """sum_q w_q h(x + u_q) (optionally minus h(x) sum_q w_q), vectorized.

        Loops over nodes, not samples, to keep memory at O(len(x)).
        """
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for u_q, w_q in zip(self.nodes, self.weights):
            acc += w_q * h(x + u_q)
        if subtract_at_x:
            acc -= self.weights.sum() * h(x)
        return acc

    def shifted_sum_sq_diff(self, h, x: np.ndarray):
        """sum_q w_q (h(x + u_q) - h(x))^2, vectorized (Chen's bound)."""
        x = np.asarray(x, dtype=float)
        hx = h(x)
        acc = np.zeros_like(x)
        for u_q, w_q in zip(self.nodes, self.weights):
            acc += w_q * np.square(h(x + u_q) - hx)
        return acc


_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)


def _gl_panel(a: float, b: float) -> Tuple[np.ndarray, np.ndarray]:
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * _GL_X, half * _GL_W


def _panel_rule(measure: LevyMeasure, m: int, tilt: float, neg_tilt: float,
                power: Callable[[TiltedPowerSide], int],
                weight: Callable[..., np.ndarray]) -> FixedRule:
    """Panelled Gauss-Legendre rule over the tilted-power sides of `measure`.

    On each side, with u the distance from the origin, the rule covers
    (0, u_hi], where Gamma(s, lam_eff u_hi) / Gamma(s) = 1e-18 for
    s = m - beta (0.5 when that is not positive) and lam_eff is the side's
    decay rate less the growth rate of the integrand (tilt on the positive
    side, neg_tilt on the negative one). The origin panel (0, u_break] gets
    the substitution u = u_break * t^p, p = power(side), which tames the
    singularity or cusp of the weight there (p = 1 is a plain panel); panels
    of doubling width follow out to u_hi. weight(sign, side, w, u) turns the
    Gauss-Legendre weights w at distances u into rule weights; nodes on the
    negative side are mirrored to -u.
    """
    nodes, weights = [], []
    for sign, side in measure.sides():
        growth = max(tilt if sign > 0 else neg_tilt, 0.0)
        lam_eff = side.rate - growth
        if lam_eff <= 0:
            raise DivergentMoment(
                f"integrand growth rate {growth} reaches the Lévy decay rate "
                f"{side.rate}; the inner integral diverges")
        s = m - side.beta
        u_hi = float(gammainccinv(s if s > 0 else 0.5, 1e-18)) / lam_eff
        u_break = min(1.0 / side.rate, u_hi / 2.0)
        edges = [u_break]
        while edges[-1] < u_hi:
            edges.append(min(2.0 * edges[-1], u_hi))
        p = power(side)
        panels = []
        if p > 1:
            t, wt = _gl_panel(0.0, 1.0)
            jac = u_break * p * t ** (p - 1)
            panels.append((u_break * t**p, wt * jac))
        else:
            edges.insert(0, 0.0)
        panels += [_gl_panel(a, b) for a, b in zip(edges[:-1], edges[1:])]
        for u, w in panels:
            # a weight that leaves floating range raises just below
            with np.errstate(over="ignore", divide="ignore",
                             invalid="ignore"):
                w = weight(sign, side, w, u)
            if not np.all(np.isfinite(w)):
                raise NonConvergence(
                    f"fixed rule of order m={m} for a tilted-power side with "
                    f"beta={side.beta} has non-finite weights: the origin "
                    f"substitution u = u_break * t^{p} leaves floating range")
            nodes.append(sign * u)
            weights.append(w)
    return FixedRule(np.concatenate(nodes), np.concatenate(weights))


def nu_rule(measure: LevyMeasure, m: int,
            cfg: QuadratureConfig = DEFAULT_QUAD, tilt: float = 0.0,
            neg_tilt: Optional[float] = None) -> FixedRule:
    """Fixed rule for int h(u) u^m nu(du) over the support.

    tilt / neg_tilt bound the exponential growth of h on the positive /
    negative side (neg_tilt defaults to -tilt mirrored: growth e^{|neg_tilt| |u|}).
    The origin substitution makes u^{m-1-beta} du smooth in t; the rule's
    domain is stretched by the tilt so the product still decays to ~1e-18
    relative.
    """
    if neg_tilt is None:
        neg_tilt = -tilt
    if measure.is_atomic:
        locs = np.array([l for l, _ in measure.atoms])
        w = np.array([mass * l**m for l, mass in measure.atoms])
        return FixedRule(locs, w)
    return _panel_rule(
        measure, m, tilt, neg_tilt,
        power=lambda side: (max(2, math.ceil(2.0 / (1.0 - side.beta)))
                            if side.beta > 0 else 2),
        # mirror: int h(u) u^m nu(du) over u<0 = int h(-t) (-t)^m nu_-(t) dt
        weight=lambda sign, side, w, u: w * u**m * side.density(u) * sign**m)


def eta_rule(measure: LevyMeasure, m: int,
             cfg: QuadratureConfig = DEFAULT_QUAD, tilt: float = 0.0,
             neg_tilt: Optional[float] = None) -> FixedRule:
    """Fixed rule for int h(v) eta_m(v) dv over the whole line.

    eta_m is bounded at the origin but has a v^{m-beta} cusp there when
    m - beta is not an integer, so the origin panel then gets the power
    substitution too. Atomic measures are handled exactly elsewhere (the
    integral against eta collapses to finite differences of the
    antiderivative).
    """
    if neg_tilt is None:
        neg_tilt = -tilt
    if measure.is_atomic:
        raise AtomicMeasure(
            "eta rules are for continuous measures; atomic eta integrals "
            "reduce to exact sums")

    def power(side):
        s = m - side.beta
        return max(2, math.ceil(4.0 / s)) if s != round(s) else 1

    # eta_m- at -v is (-1)^{m+1} times the side's tail at v
    return _panel_rule(
        measure, m, tilt, neg_tilt, power,
        weight=lambda sign, side, w, v: w * side.tail(m, v) * sign ** (m + 1))


# -- closed inner integrals ------------------------------------------------


def exp_moment(measure: LevyMeasure, m: int, z,
               subtract_one: bool = False) -> np.ndarray:
    """int u^m (e^{zu} - [subtract_one]) nu(du), vectorised over complex z.

    With subtract_one this is Psi_m(z), finite for every m >= 0 because
    beta < 1; the plain moment needs m - beta > 0. Atoms give finite sums,
    and the negative side is the positive formula mirrored: (-1)^m times its
    value at -z.
    """
    z = np.asarray(z, dtype=complex)
    if measure.is_atomic:
        out = np.zeros_like(z)
        for loc, mass in measure.atoms:
            e = np.expm1(z * loc) if subtract_one else np.exp(z * loc)
            out = out + mass * loc**m * e
        return out
    return sum(sign**m * side.exp_moment(m, sign * z, subtract_one)
               for sign, side in measure.sides())


@dataclass(frozen=True)
class ClosedInner:
    """An inner integral in closed form, x -> Re sum a x^p e^{zx} over its
    terms (a, p, z).

    The closed counterpart of a FixedRule's shifted sums for exponential
    polynomial g: built once per task by `closed_inner` or
    `closed_sq_diff`, it costs one exponential per distinct z and sample
    instead of one evaluation of g per rule node and sample.
    """

    terms: Tuple[Tuple[complex, int, complex], ...]

    def __call__(self, x) -> np.ndarray:
        return eval_terms(self.terms, x)


def eval_terms(terms, x) -> np.ndarray:
    """Re sum a x^p e^{zx} over terms (a, p, z), vectorised over real x."""
    x = np.asarray(x, dtype=float)
    by_z = defaultdict(dict)
    for a, p, z in terms:
        poly = by_z[complex(z)]
        poly[p] = poly.get(p, 0j) + complex(a)
    out = np.zeros_like(x)
    for z, poly in by_z.items():
        val = np.polynomial.polynomial.polyval(
            x, [poly.get(p, 0j) for p in range(max(poly) + 1)])
        if z.imag:
            out += (val * np.exp(z * x)).real
        elif z.real:
            out += val.real * np.exp(z.real * x)
        else:
            out += val.real
    return out


def _shifted(terms, m: int, subtract: bool):
    """u^m (G(x+u) - [subtract] G(x)) for G = sum of terms (a, p, z), as
    monomials (c, i, zx, q, zu) meaning c x^i e^{zx x} u^q e^{zu u}:
    (x+u)^p e^{z(x+u)} = sum_k C(p, k) x^{p-k} e^{zx} u^k e^{zu}."""
    out = []
    for a, p, z in terms:
        a, z = complex(a), complex(z)
        out += [(a * math.comb(p, k), p - k, z, m + k, z)
                for k in range(p + 1)]
        if subtract:
            out.append((-a, p, z, m, 0j))
    return out


def _integrate_monomials(measure: LevyMeasure, monomials) -> ClosedInner:
    """int over nu(du) of a sum of monomials (c, i, zx, q, zu).

    Each monomial is split as u^q (e^{zu u} - 1) + u^q. The first part is
    Psi_q(zu); the second is gathered per x-part and moment order, so the
    pieces that cancel in G(x+u) - G(x) cancel before they meet C_q. At
    q = 0 the monomials of each x-part must sum to zero (the integrand
    vanishes at u = 0, as every caller's does), and Psi_0 alone carries them.
    """
    coef = defaultdict(complex)
    plain = defaultdict(complex)
    for c, i, zx, q, zu in monomials:
        coef[i, zx] += c * complex(exp_moment(measure, q, zu, True))
        if q:
            plain[i, zx, q] += c
    for (i, zx, q), c in plain.items():
        if c:
            coef[i, zx] += c * measure.moment(q)
    return ClosedInner(tuple((a, i, zx) for (i, zx), a in coef.items() if a))


def closed_inner(measure: LevyMeasure, terms, m: int,
                 subtract: bool = True) -> ClosedInner:
    """I_m(x) = int u^m (g(x+u) - g(x)) nu(du) for g = Re sum of terms
    (a, p, z); with subtract False, int u^m g(x+u) nu(du) (m >= 1).

    For a single term a e^{zx} this is Re a e^{zx} Psi_m(z); powers of x
    add moments int u^{m+k} e^{zu} nu(du) of higher order.
    """
    if m < 0 or (m == 0 and not subtract):
        raise InvalidParams(
            f"closed inner integral of order m={m} needs m >= 1, or m = 0 "
            "with g(x) subtracted")
    return _integrate_monomials(measure, _shifted(terms, m, subtract))


def closed_sq_diff(measure: LevyMeasure, terms) -> ClosedInner:
    """int (g(x+u) - g(x))^2 nu(du) for g = Re sum of terms, Chen's bound.

    With D = G(x+u) - G(x), (Re D)^2 = Re(D D + D conj(D)) / 2, and both
    products expand into monomials again.
    """
    d = _shifted(terms, 0, True)
    d_conj = [(c.conjugate(), i, zx.conjugate(), q, zu.conjugate())
              for c, i, zx, q, zu in d]
    return _integrate_monomials(measure, [
        (0.5 * c1 * c2, i1 + i2, zx1 + zx2, q1 + q2, zu1 + zu2)
        for c1, i1, zx1, q1, zu1 in d
        for c2, i2, zx2, q2, zu2 in d + d_conj])
