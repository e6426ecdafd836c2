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
through the upper incomplete gamma function. The density
(`LevyMeasure.density`) is kept for the adaptive-quadrature oracle of the
test suite (`tests/quad_oracle.py`), which checks them independently.

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
import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence, Tuple

import numpy as np
from scipy.special import gammaincc, gammainccinv, gammaln

from .errors import (
    AtomicMeasure,
    DivergentMoment,
    InvalidParams,
    NonConvergence,
)

__all__ = [
    "TiltedPowerSide",
    "LevyMeasure",
    "TailIntegral",
    "BiasVariable",
    "FixedRule",
    "ClosedInner",
    "eta",
    "cumulant",
    "moments_from_cumulants",
    "bias_density",
    "nu_rule",
    "eta_rule",
    "exp_moment",
    "exp_poly_mean",
    "closed_inner",
    "closed_sq_diff",
    "eval_terms",
]


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

    def exp_moment(self, m: int, z, minus_one: bool = True) -> np.ndarray:
        """Psi_m(z) = int_0^inf u^m (e^{zu} - 1) (density) du, complex z.

        Closed form c Gamma(s) rate^{-s} ((1 - z/rate)^{-s} - 1),
        s = m - beta, taken as an expm1 so it keeps its digits for small z;
        at s = 0 it is the limit -c log(1 - z/rate). With minus_one False
        and m >= 1, int_0^inf u^m e^{zu} (density) du = c Gamma(s)
        (rate - z)^{-s} itself, which keeps its digits where z is large
        against the rate and Psi_m(z) is close to -C_m. Needs Re z < rate.
        """
        z = np.asarray(z, dtype=complex)
        if np.any(z.real >= self.rate):
            raise DivergentMoment(
                f"exponential moment at Re z = {np.max(z.real)} diverges: the "
                f"tilted-power side decays at rate {self.rate}")
        s = m - self.beta
        w = -z / self.rate
        # log(1 + w); numpy's complex log1p forms |1 + w| directly and
        # loses the digits of a small w, so the real part goes through
        # the real log1p. Near the pole that sum cancels instead, so where
        # |1 + w| < 1/4 the log takes 1 + w as (rate - z)/rate, whose
        # difference is exact there
        log1p_w = (0.5 * np.log1p(w.real * (2.0 + w.real) + w.imag**2)
                   + 1j * np.arctan2(w.imag, 1.0 + w.real))
        near = np.abs(1.0 + w) < 0.25
        if np.any(near):
            log1p_w = np.where(near, np.log((self.rate - z) / self.rate),
                               log1p_w)
        if s == 0:
            return -self.coef * log1p_w
        # c Gamma(s) rate^{-s} is the plain moment for s > 0, which stays in
        # range when Gamma(s) alone does not (gamma jumps of large shape)
        scale = (self.moment(m) if s > 0
                 else self.coef * math.gamma(s) * self.rate**-s)
        return scale * (np.expm1 if minus_one else np.exp)(-s * log1p_w)


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

    def moment(self, k: int) -> float:
        """int u^k nu(du) over the whole line, k >= 1, in closed form: a sum
        over atoms, or c Gamma(k-beta) rate^{beta-k} per tilted-power side.

        The test suite's `quad_oracle.integrate_levy(measure, lambda u:
        u**k)` is the quadrature oracle for it.
        """
        if k < 1:
            raise InvalidParams("moment order must be a positive integer")
        if self.is_atomic:
            return _in_double_range(k, lambda: float(
                sum(mass * loc**k for loc, mass in self.atoms)))
        return sum(sign**k * side.moment(k) for sign, side in self.sides())


class TailIntegral:
    """Evaluator for eta_k of a fixed measure; vectorized over u.

    pos(u) is eta_k+ for u > 0, neg(u) is eta_k- for u < 0 (with the
    defining minus sign), and __call__ dispatches on the sign of u.
    """

    def __init__(self, measure: LevyMeasure, k: int):
        if k < 1:
            raise InvalidParams("tail-integral order k must be a positive integer")
        self.measure = measure
        self.k = int(k)

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


def eta(measure: LevyMeasure, k: int, u: float) -> float:
    """eta_k+(u) for u > 0, eta_k-(u) for u < 0."""
    if u == 0:
        raise InvalidParams("eta is defined on nonzero u")
    t = TailIntegral(measure, k)
    return float(t(np.asarray(u, dtype=float)))


def cumulant(spec, k: int) -> float:
    """C_k(X) for X ~ IDD(mu, 0, nu): C_1 = E(X), C_k = int u^k nu(du), k>=2,
    both in closed form.

    `spec` is any object with a `measure` attribute and a `mean()` method
    (the distribution catalog provides both).
    """
    if k < 1:
        raise InvalidParams("cumulant order must be a positive integer")
    if k == 1:
        return float(spec.mean())
    return spec.measure.moment(k)


def moments_from_cumulants(cums, mul=operator.mul):
    """Yields the raw moments m_1, ..., m_n from cumulants [c_1, ..., c_n]
    by the complete Bell recursion m_j = sum_i C(j-1, i-1) c_i m_{j-i},
    m_0 = 1, each as soon as it is known.

    mul(c, m) multiplies a scaled cumulant into a moment, so the entries may
    be numbers, arrays, or truncated power series with a product of their
    own.
    """
    moments = []
    for j in range(1, len(cums) + 1):
        moments.append(sum(
            mul(math.comb(j - 1, i - 1) * cums[i - 1], moments[j - i - 1])
            if i < j else cums[j - 1] for i in range(1, j + 1)))
        yield moments[-1]


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

    def __init__(self, measure: LevyMeasure, k: int):
        if k < 1:
            raise InvalidParams("bias order k must be a positive integer")
        if measure.support != "positive" and k % 2 == 0:
            raise InvalidParams(
                "even-order bias variables are defined only for measures with "
                "positive support (eta_k changes sign otherwise)")
        self.measure = measure
        self.k = int(k)
        self._tail = TailIntegral(measure, k)
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
        # one side carrying all of C_{k+1}: no side draw and no masks
        if not self._mass_neg:
            return rng.random(size) * self._sample_v(rng, size, positive=True)
        if not self._mass_pos:
            return -rng.random(size) * self._sample_v(rng, size,
                                                      positive=False)
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


def bias_density(measure: LevyMeasure, k: int, y: float) -> float:
    """f_k(y) = eta_k(y) / C_{k+1}; see BiasVariable for the supported cases."""
    return float(BiasVariable(measure, k).density(np.asarray(y, dtype=float)))


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
    closed transforms in the test suite. `route` names it: a quadrature
    'rule', or 'atoms' for the exact sum over an atomic measure's atoms.
    """

    nodes: np.ndarray
    weights: np.ndarray
    route: ClassVar[str] = "rule"

    def integrate(self, h: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(np.dot(self.weights, h(self.nodes)))

    def shifted_sum(self, h, x: np.ndarray, subtract_at_x: bool = False):
        """sum_q w_q h(x + u_q) (optionally minus h(x) sum_q w_q), vectorized.

        h gets at most _BLOCK points a call (`_node_values`), so memory
        stays at O(len(x) + _BLOCK).
        """
        def chunk_sum(xs):
            acc = np.zeros_like(xs)
            for w_q, h_q in self._node_values(h, xs):
                acc += w_q * h_q
            if subtract_at_x:
                acc -= self.weights.sum() * h(xs)
            return acc

        return _by_chunks(chunk_sum, x)

    def shifted_sum_sq_diff(self, h, x: np.ndarray):
        """sum_q w_q (h(x + u_q) - h(x))^2, vectorized (Chen's bound)."""
        def chunk_sum(xs):
            hx = h(xs)
            acc = np.zeros_like(xs)
            for w_q, h_q in self._node_values(h, xs):
                acc += w_q * np.square(h_q - hx)
            return acc

        return _by_chunks(chunk_sum, x)

    def _node_values(self, h, xs: np.ndarray):
        """(w_q, h(xs + u_q)) for each node in order, xs flat with 1 to
        _BLOCK entries: h runs once per block of _BLOCK // len(xs) nodes,
        on the block's shifted points. h acts entry by entry, so callers
        that add the terms in node order get a per-node loop's sum bit for
        bit."""
        step = _BLOCK // xs.size
        for lo in range(0, self.nodes.size, step):
            u = self.nodes[lo:lo + step]
            hu = np.reshape(h((u[:, None] + xs).ravel()), (u.size, xs.size))
            yield from zip(self.weights[lo:lo + step], hu)


class _AtomSum(FixedRule):
    route = "atoms"


# entries of x + u that FixedRule's sums hand h at once (32 KB of floats)
_BLOCK = 1 << 12


def _by_chunks(chunk_sum, x) -> np.ndarray:
    """chunk_sum over the entries of x, at most _BLOCK at a time, in the
    shape of x."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _BLOCK):
        out[lo:lo + _BLOCK] = chunk_sum(flat[lo:lo + _BLOCK])
    return out.reshape(x.shape)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)


def _gl_panel(a: float, b: float) -> Tuple[np.ndarray, np.ndarray]:
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * _GL_X, half * _GL_W


def _panel_rule(measure: LevyMeasure, m: int,
                power: Callable[[TiltedPowerSide], int],
                weight: Callable[..., np.ndarray]) -> FixedRule:
    """Panelled Gauss-Legendre rule over the tilted-power sides of `measure`.

    On each side, with u the distance from the origin, the rule covers
    (0, u_hi], where Gamma(s, rate u_hi) / Gamma(s) = 1e-18 for
    s = m - beta (0.5 when that is not positive) and rate is the side's
    decay rate; the integrand h is bounded or grows slower than any
    exponential (the rules serve g without terms and the cdf, and every g
    with terms takes the closed route). The origin panel (0, u_break] gets
    the substitution u = u_break * t^p, p = power(side), which tames the
    singularity or cusp of the weight there (p = 1 is a plain panel); panels
    of doubling width follow out to u_hi. weight(sign, side, w, u) turns the
    Gauss-Legendre weights w at distances u into rule weights; nodes on the
    negative side are mirrored to -u.
    """
    nodes, weights = [], []
    for sign, side in measure.sides():
        s = m - side.beta
        u_hi = float(gammainccinv(s if s > 0 else 0.5, 1e-18)) / side.rate
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


def nu_rule(measure: LevyMeasure, m: int) -> FixedRule:
    """Fixed rule for int h(u) u^m nu(du) over the support, for h without
    exponential growth. The origin substitution makes u^{m-1-beta} du
    smooth in t.
    """
    if measure.is_atomic:
        locs = np.array([l for l, _ in measure.atoms])
        w = np.array([mass * l**m for l, mass in measure.atoms])
        return _AtomSum(locs, w)
    return _panel_rule(
        measure, m,
        power=lambda side: (max(2, math.ceil(2.0 / (1.0 - side.beta)))
                            if side.beta > 0 else 2),
        # mirror: int h(u) u^m nu(du) over u<0 = int h(-t) (-t)^m nu_-(t) dt
        weight=lambda sign, side, w, u: w * u**m * side.density(u) * sign**m)


def eta_rule(measure: LevyMeasure, m: int) -> FixedRule:
    """Fixed rule for int h(v) eta_m(v) dv over the whole line, for h
    without exponential growth.

    eta_m is bounded at the origin but has a v^{m-beta} cusp there when
    m - beta is not an integer, so the origin panel then gets the power
    substitution too. Atomic measures are handled exactly elsewhere (the
    integral against eta collapses to finite differences of the
    antiderivative).
    """
    if measure.is_atomic:
        raise AtomicMeasure(
            "eta rules are for continuous measures; atomic eta integrals "
            "reduce to exact sums")

    def power(side):
        s = m - side.beta
        return max(2, math.ceil(4.0 / s)) if s != round(s) else 1

    # eta_m- at -v is (-1)^{m+1} times the side's tail at v
    return _panel_rule(
        measure, m, power,
        weight=lambda sign, side, w, v: w * side.tail(m, v) * sign ** (m + 1))


# -- closed inner integrals ------------------------------------------------


def exp_moment(measure: LevyMeasure, m: int, z,
               minus_one: bool = True) -> np.ndarray:
    """Psi_m(z) = int u^m (e^{zu} - 1) nu(du), vectorised over complex z;
    with minus_one False and m >= 1, int u^m e^{zu} nu(du) = C_m + Psi_m(z)
    read directly (`TiltedPowerSide.exp_moment`).

    Finite for every m >= 0 because beta < 1. Atoms give finite sums, and
    the negative side is the positive formula mirrored: (-1)^m times its
    value at -z.
    """
    z = np.asarray(z, dtype=complex)
    if measure.is_atomic:
        kernel = np.expm1 if minus_one else np.exp
        out = np.zeros_like(z)
        for loc, mass in measure.atoms:
            out = out + mass * loc**m * kernel(z * loc)
        return out
    return sum(sign**m * side.exp_moment(m, sign * z, minus_one)
               for sign, side in measure.sides())


def exp_poly_mean(spec, terms, n: int = 0) -> float:
    """E[X^n g(X)] for g = Re sum of terms (a, p, z), in closed form.

    Under the tilt e^{zX}, X has cumulants kappa_1(z) = b + int u e^{zu}
    nu(du) and kappa_j(z) = int u^j e^{zu} nu(du), each read directly
    rather than as C_j + Psi_j(z), which cancels where z is large against a
    decay rate. So E[X^q e^{zX}] = M(z) B_q(kappa_1(z), ..., kappa_q(z)),
    with M(z) = E[e^{zX}] = exp(z b + Psi_0(z)), b the uncompensated drift
    `spec.drift`, and B_q the complete Bell polynomial
    (`moments_from_cumulants`): one recursion per distinct z. A z beyond a
    Lévy decay rate, or a value beyond the range of a double, raises
    DivergentMoment.
    """
    return exp_poly_means(spec, terms, (n,))[0]


def exp_poly_means(spec, terms, orders, factored: bool = False) -> list:
    """E[X^n g(X)] for each n in orders, as `exp_poly_mean` reads it.

    With factored, each mean is divided by one common e^s, s the largest
    Re log M(z) = Re(z b + Psi_0(z)) over the distinct z of the terms, so
    a ratio of two of them is formed before M(z) can overflow or underflow:
    under Poisson(7e4) with g = e^{0.01 x}, M(0.01) = e^{703.5} alone is a
    double, but M(0.01) E X is not.
    """
    if min(orders) < 0:
        raise InvalidParams("moment order must be a nonnegative integer")
    by_z = defaultdict(list)
    for a, p, z in terms:
        by_z[complex(z)].append((complex(a), p))
    measure, b = spec.measure, spec.drift
    values = [0j] * len(orders)
    try:
        with np.errstate(all="ignore"):
            parts = []  # (log M(z), the Bell sum of each order) per z
            for z, pieces in by_z.items():
                top = max(orders) + max(p for _, p in pieces)
                kappa = [complex(exp_moment(measure, j, z, minus_one=j == 0))
                         for j in range(top + 1)]
                bell = [1.0, *moments_from_cumulants(
                    [kappa[j] + (b if j == 1 else 0.0)
                     for j in range(1, len(kappa))])]
                parts.append((z * b + kappa[0],
                              [sum(a * bell[n + p] for a, p in pieces)
                               for n in orders]))
            s = max((w.real for w, _ in parts), default=0.0) if factored \
                else 0.0
            s = s if math.isfinite(s) else 0.0  # M(z) of 0 or inf stays so
            for w, sums in parts:
                scale = np.exp(w - s)
                values = [v + scale * t for v, t in zip(values, sums)]
    except OverflowError:  # C(q - 1, i - 1) beyond the range of a double
        values = [math.inf] * len(orders)
    for n, value in zip(orders, values):
        if not np.isfinite(value):
            raise DivergentMoment(
                f"E[X^{n} g(X)] of order {n} overflows the range of a double")
    return [float(value.real) for value in values]


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
    """Re sum a x^p e^{zx} over terms (a, p, z), vectorised over real x.

    Each distinct z is evaluated in real arithmetic, with no complex
    temporaries: for P the polynomial of its terms,
    Re P(x) e^{zx} = e^{Re z x} (Re P(x) cos(Im z x) - Im P(x) sin(Im z x)).
    x is taken `_BLOCK` entries at a time, so the temporaries stay small
    whatever the length of x.
    """
    by_z = defaultdict(dict)
    for a, p, z in terms:
        poly = by_z[complex(z)]
        poly[p] = poly.get(p, 0j) + complex(a)
    polys = [(z, np.array([poly.get(p, 0j) for p in range(max(poly) + 1)]))
             for z, poly in by_z.items()]
    polyval = np.polynomial.polynomial.polyval

    def chunk_sum(xs):
        out = np.zeros_like(xs)
        for z, coef in polys:
            val = polyval(xs, coef.real)
            if z.imag:
                w = z.imag * xs
                val *= np.cos(w)
                val -= polyval(xs, coef.imag) * np.sin(w)
            if z.real:
                val *= np.exp(z.real * xs)
            out += val
        return out

    return _by_chunks(chunk_sum, x)


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


def _integrate_monomials(measure: LevyMeasure, monomials,
                         split: bool = True) -> ClosedInner:
    """int over nu(du) of a sum of monomials (c, i, zx, q, zu).

    Each monomial is split as u^q (e^{zu u} - 1) + u^q. The first part is
    Psi_q(zu); the second is gathered per x-part and moment order, so the
    pieces that cancel in G(x+u) - G(x) cancel before they meet C_q. At
    q = 0 the monomials of each x-part must sum to zero (the integrand
    vanishes at u = 0, as every caller's does), and Psi_0 alone carries them.
    With split False nothing cancels and every q >= 1, so each monomial is
    read directly as int u^q e^{zu u} nu(du).
    """
    coef = defaultdict(complex)
    plain = defaultdict(complex)
    for c, i, zx, q, zu in monomials:
        coef[i, zx] += c * complex(exp_moment(measure, q, zu, split))
        if q and split:
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
    return _integrate_monomials(measure, _shifted(terms, m, subtract),
                                subtract)


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
