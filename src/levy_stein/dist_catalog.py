"""Catalog of infinitely divisible distributions as IDD(mu, 0, nu) specs.

Each family knows only its Lévy triplet (a measure of atoms or tilted-power
sides, and a drift constant); `IDDSpec` derives mean, variance, cf, cdf and
the exact samplers of the convolution powers from it. The inverse Gaussian
keeps numpy's Wald sampler; no family writes its own cdf. Two drift
conventions coexist in the catalog: families built from jumps of finite
first moment are stored uncompensated (constant drift, cf kernel
e^{itu} - 1), while the generalized tempered stable family is compensated
(drift equals the mean, kernel e^{itu} - 1 - itu).
`IDDSpec.drift` reads the uncompensated drift b of either; nothing else in
the package needs to care which one a family uses.

A fractional convolution power X^{*s}, 0 <= s <= 1, has the scaled
triplet (s b, 0, s nu), and `IDDSpec.sample_conv` draws it exactly from
that triplet for every family, which is what makes the exact joint-pair
samplers in `identities` possible.

Every cdf is the triplet's closed form (`_triplet_cdf`) where it has one;
the other laws get a `CdfTable` of a knot rule's values.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, fields
from functools import cached_property, partial
from numbers import Real
from typing import ClassVar, Tuple, Union

import numpy as np
from scipy.fft import dst
from scipy.special import (
    gamma as gamma_fn,
    gammainc,
    gammaincc,
    gammainccinv,
    gammaln,
    log_ndtr,
    ndtr,
)

from .errors import (DivergentMoment, InvalidParams, NonConvergence,
                     ValidationError)
from .levy_core import LevyMeasure, TiltedPowerSide, exp_moment

__all__ = [
    "IDDSpec",
    "Poisson",
    "CompoundPoisson",
    "AtomicJumps",
    "GammaJumps",
    "Gamma",
    "InverseGaussian",
    "Laplace",
    "TwoSidedExp",
    "BGD",
    "VGD",
    "VGDAltParams",
    "CGMY",
    "GTSD",
    "FAMILIES",
    "make_spec",
    "cdf_route",
    "vgd_from_alt",
    "vgd_to_alt",
]


def _require(cond: bool, msg: str):
    if not cond:
        raise InvalidParams(msg)


def _check_power(s) -> float:
    """The power s of X^{*s} as a float; InvalidParams unless s is finite
    and nonnegative."""
    s = float(s)
    _require(math.isfinite(s) and s >= 0,
             f"convolution power s must be finite and nonnegative, not {s}")
    return s


def _as_float_array(x):
    return np.asarray(x, dtype=float)


class IDDSpec:
    """Shared interface; concrete families are frozen dataclasses below.

    A family supplies its triplet IDD(mu, 0, nu) as `measure` and `drift0`
    (in its `drift_convention`). `drift` (the uncompensated drift b),
    `mean`, `variance`, `cf` and the cdf are derived from these here, and
    every cumulant by `levy_core.cumulant`, all exact for every catalog
    family. `sample_conv(rng, s, size)` draws `size` variates of X^{*s}
    from its scaled triplet (s b, 0, s nu), at one power s per call; the
    coupled pair draws its shares with it. `sample(rng, size)` is its case
    s = 1. The cdf rule is chosen once per spec, in `_exact_cdf`: the
    triplet's closed form (`_triplet_cdf`), else the knot rule of a table
    (the COS series when a side has beta > 0, the double-exponential rule
    of `_gamma_diff_cdf` for two beta = 0 sides). `cdf_fn` returns that
    closed F, or the `CdfTable` its knot rule fills (`_cdf`, which keeps F
    with the route that `cdf_route` prints). `cdf` is the rule itself at
    one point, never the table's interpolant.
    """

    family: ClassVar[str] = "?"
    drift_convention: ClassVar[str] = "uncompensated"

    # -- things subclasses must provide -------------------------------------

    @cached_property
    def measure(self) -> LevyMeasure:
        raise NotImplementedError

    @cached_property
    def _exact_cdf(self):
        """(F, rule), F exact at any finite points: the triplet's closed
        form ('triplet'), else a table's knot rule, 'cos' when a side has
        beta > 0 and 'double_exponential' otherwise; chosen on first use
        and kept as long as the spec."""
        f = _triplet_cdf(self)
        if f is not None:
            return f, "triplet"
        if any(side.beta > 0 for _, side in self.measure.sides()):
            return partial(_cos_cdf, self), "cos"
        return (lambda x: _gamma_diff_cdf(self, x)[0]), "double_exponential"

    @cached_property
    def _cos_series(self) -> np.ndarray:
        """The coefficients c_1..c_N of the COS series on `_cdf_range`
        (`_cos_terms`), built on first use and kept as long as the spec, so
        a scalar `cdf` repeats neither the cutoff search nor a cf term; N
        doubles, at most _COS_MAX_TERMS."""
        return np.concatenate([c for _, c in _cos_terms(self,
                                                        *_cdf_range(self))])

    @cached_property
    def _cdf(self):
        """(F, route): the vectorized F of `cdf_fn` and the dict of
        `cdf_route`, built on first use and kept as long as the spec."""
        f, rule = self._exact_cdf
        if rule == "triplet":
            route = {"route": rule}
            if isinstance(f, _GammaMixtureCdf):
                route.update(mixture_terms=f.terms,
                             gammainc_calls=f.gammainc_calls)
        else:
            f = CdfTable(self, rule)
            route = {"route": "table", "range": [f.lo, f.hi],
                     "knots": _CDF_KNOTS, "knot_rule": rule,
                     "knot_error_estimate": f.knot_error}
        return _finite_only(f), route

    @property
    def drift0(self) -> float:
        """The constant drift in the family's own convention."""
        return 0.0

    @property
    def drift(self) -> float:
        """b, the uncompensated drift: drift0, less int u nu(du) when the
        family's drift is compensated."""
        if self.drift_convention == "compensated":
            return self.drift0 - self.measure.moment(1)
        return self.drift0

    # -- shared machinery ----------------------------------------------------

    def mean(self) -> float:
        """E(X): drift0, plus int u nu(du) when the drift is uncompensated."""
        if self.drift_convention == "compensated":
            return self.drift0
        return self.drift0 + self.measure.moment(1)

    def variance(self) -> float:
        """Var(X) = C_2 = int u^2 nu(du)."""
        return self.measure.moment(2)

    def cf(self, t):
        """E[e^{itX}] = exp(itb + int (e^{itu} - 1) nu(du)), b the
        uncompensated drift; vectorised over real t."""
        t = _as_float_array(t)
        return np.exp(1j * t * self.drift
                      + exp_moment(self.measure, 0, 1j * t))

    def std(self) -> float:
        return math.sqrt(self.variance())

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.sample_conv(rng, 1.0, size)

    def sample_conv(self, rng: np.random.Generator, s: float,
                    size: int) -> np.ndarray:
        """`size` exact draws of X^{*s}: b s plus the jumps of s nu, with b
        the uncompensated drift. An atom (loc, mass) adds loc Poisson(s
        mass); a side with beta = 0 adds Ga(s coef, rate); one with beta < 0
        (gamma jumps) adds Ga(-beta N, rate) for N ~ Poisson(s int nu); the
        sides with beta > 0 add `_tempered_sums`. InvalidParams unless s
        is finite and nonnegative."""
        s = _check_power(s)
        m = self.measure
        jumps = np.zeros(size)
        if m.is_atomic:
            for loc, mass in m.atoms:
                jumps += loc * rng.poisson(s * mass, size)
        # (coef, rate) of the positive and negative sides of s nu with
        # beta > 0, which share one beta in every catalog family
        stable, beta = [(0.0, 1.0), (0.0, 1.0)], 0.0
        for sign, side in m.sides():
            if side.beta > 0:
                stable[sign < 0], beta = (s * side.coef, side.rate), side.beta
                continue
            k = (s * side.coef if side.beta == 0 else
                 -side.beta * rng.poisson(s * side.moment(0), size))
            jumps += sign * rng.gamma(k, 1.0 / side.rate, size)
        if beta > 0:
            jumps += _tempered_sums(rng, size, beta, *stable)
        return jumps + self.drift * s

    def params(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def cdf(self, x: float) -> float:
        """F(x) by the spec's one rule (`_exact_cdf`) at x: for a tabulated
        law its knot rule, which neither builds the table nor reads its
        interpolant."""
        return float(_finite_only(self._exact_cdf[0])([float(x)])[0])

    def cdf_fn(self):
        """Vectorized cdf: the triplet's closed F when it has one, else a
        monotone PCHIP interpolant of the knot rule's values; one object per
        spec (`_cdf`)."""
        return self._cdf[0]

    def tail_rates(self) -> Tuple[float, float]:
        """(left, right) exponential decay rates of the Lévy tails."""
        m = self.measure
        left = m.neg_structure.rate if m.neg_structure is not None else math.inf
        right = m.pos_structure.rate if m.pos_structure is not None else math.inf
        return left, right


# -- cdf -----------------------------------------------------------------------


def _finite_only(f):
    """The vectorized cdf f, called on the finite entries of x only: nan
    stays nan, -inf gives 0 and +inf 1 before any lattice, series or
    quadrature runs."""
    def cdf(x):
        x = _as_float_array(x)
        finite = np.isfinite(x)
        if finite.all():
            return f(x)
        out = np.clip(x, 0.0, 1.0)
        if finite.any():
            out[finite] = f(x[finite])
        return out

    return cdf


def _triplet_cdf(spec: IDDSpec):
    """Vectorized F at finite points from the triplet (nu, b), b the
    uncompensated drift, or None: one atom at loc > 0 (b + loc Poisson);
    any other atomic nu, the zero measure included (`_lattice`); one side
    with beta <= 0 (`_GammaMixtureCdf`); one positive side with beta = 1/2
    (b + IG); two beta = 0 sides of coefficient 1 (b + Exp - Exp)."""
    m, b = spec.measure, spec.drift
    if m.is_atomic:
        if len(m.atoms) == 1 and m.atoms[0][0] > 0:
            (loc, mass), = m.atoms
            return partial(_poisson_cdf, loc, mass, b)
        pts, cum, tol = _lattice(m.atoms)
        return lambda x: cum[np.searchsorted(
            pts, _as_float_array(x) - b + tol, side="right")]
    (sign, side), *rest = m.sides()
    if not rest:
        if side.beta <= 0:
            return _GammaMixtureCdf(side, sign, b)
        if side.beta == 0.5 and sign > 0:
            return partial(_ig_cdf, *_ig_mean_shape(side.coef, side.rate), b)
        return None
    neg = rest[0][1]
    if side.beta == neg.beta == 0 and side.coef == neg.coef == 1:
        return partial(_two_sided_exp_cdf, side.rate, neg.rate, b)
    return None


def _poisson_cdf(loc: float, mass: float, b: float, x):
    """F of b + loc N, N ~ Poisson(mass), loc > 0: exact for every mass,
    where the lattice would sum O(mass) jump counts. A point within 12
    digits of an atom b + loc k counts it, as the lattice's points do."""
    t = (_as_float_array(x) - b) / loc
    k = np.rint(t)
    t = np.where(np.abs(t - k) <= 1e-12 * np.maximum(1.0, np.abs(t)), k, t)
    return np.where(t >= 0, gammaincc(np.floor(np.maximum(t, 0.0)) + 1.0,
                                      mass), 0.0)


def _ig_mean_shape(coef: float, rate: float) -> Tuple[float, float]:
    """(mean m, shape L) of the IG law of the Lévy density coef u^{-3/2}
    e^{-rate u}, u > 0: m = coef sqrt(pi/rate), L = 2 pi coef^2."""
    return coef * math.sqrt(math.pi / rate), 2.0 * math.pi * coef**2


def _ig_cdf(m: float, shape: float, b: float, x):
    """F of b + IG(m, shape) at finite x."""
    xs = _as_float_array(x) - b
    out = np.zeros_like(xs)
    ok = xs > 0
    xs = xs[ok]
    r = np.sqrt(shape / xs)
    term1 = ndtr(r * (xs / m - 1.0))
    # e^{2L/m} Phi(-r (x/m + 1)) in log space to dodge overflow
    term2 = np.exp(2.0 * shape / m + log_ndtr(-r * (xs / m + 1.0)))
    out[ok] = np.clip(term1 + term2, 0.0, 1.0)
    return out


def _two_sided_exp_cdf(rate_pos: float, rate_neg: float, b: float, x):
    """F of b + Exp(rate_pos) - Exp(rate_neg)."""
    t = _as_float_array(x) - b
    total = rate_pos + rate_neg
    return np.where(t >= 0,
                    1.0 - (rate_neg / total) * np.exp(-rate_pos * np.abs(t)),
                    (rate_pos / total) * np.exp(-rate_neg * np.abs(t)))


def _poisson_weights(lam: float) -> np.ndarray:
    """P(N = n) for N ~ Poisson(lam), n = 0..n_max, where n_max is the
    first count with P(N > n_max) <= 1e-15; NonConvergence past 10 000."""
    n_max = 1
    while gammainc(n_max + 1.0, lam) > 1e-15:
        n_max += 1
        if n_max > 10_000:
            raise NonConvergence(
                f"Poisson({lam:g}) jump counts need more than 10 000 terms")
    ns = np.arange(n_max + 1)
    return np.exp(-lam + ns * math.log(lam) - gammaln(ns + 1.0))


def _lattice(atoms: Tuple[Tuple[float, float], ...]):
    """Support points of the jump sum of the atomic measure ((loc, mass),
    ...), Poisson(int nu) jumps each at loc with probability mass / int nu,
    and its cdf below the first point (0) and at each point. Sums that
    agree to 12 digits of the largest |loc| are one point, at any scale,
    and a query within tol, half that last digit, of a point counts it."""
    lam = sum(mass for _, mass in atoms)
    if lam == 0:
        return np.zeros(1), np.array([0.0, 1.0]), 0.0
    jumps = [(loc, mass / lam) for loc, mass in atoms]
    digits = 12 - math.floor(math.log10(max(abs(loc) for loc, _ in atoms)))
    weights = _poisson_weights(lam)
    dist, conv = defaultdict(float, {0.0: weights[0]}), {0.0: 1.0}
    for w in weights[1:]:
        nxt = defaultdict(float)
        for v, pv in conv.items():
            for loc, pj in jumps:
                nxt[round(v + loc, digits)] += pv * pj
        conv = nxt
        for v, pv in conv.items():
            dist[v] += w * pv
    pts = np.array(sorted(dist))
    cum = np.cumsum([0.0] + [dist[v] for v in pts])
    cum = np.clip(cum / max(cum[-1], 1.0 - 1e-12), 0.0, 1.0)
    return pts, cum, 0.5 * 10.0**-digits


# shapes an integer apart share one incomplete gamma call when at most
# this many unit steps separate neighbours. Against one call per term, the
# cdf of Ga(a, 3) jumps at rate 1.5 took 0.56 of the time at a = 16 and
# 1.08 at a = 24 (10^5 points in calls of 4096, on a 2-core host)
_CLASS_STEPS = 16
# the walk recomputes t_s directly every _ANCHOR steps, so a term that
# underflowed to 0 does not stay 0 where the terms grow
_ANCHOR = 16


def _stirlerr(s: float) -> float:
    """log Gamma(s + 1) - (s + 1/2) log s + s - log(2 pi) / 2 for s > 0:
    Stirling's series past 15, where the direct form cancels, else the
    direct form (Loader 2000)."""
    if s > 15.0:
        nn = s * s
        return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn))
                                     / nn) / nn) / nn) / s
    return (math.lgamma(s + 1.0) - (s + 0.5) * math.log(s) + s
            - 0.5 * math.log(2.0 * math.pi))


def _poisson_term(s: float, y: np.ndarray) -> np.ndarray:
    """t_s(y) = e^{-y} y^s / Gamma(s + 1) for s > 0 and y >= 0, 0 at y = 0,
    in Loader's saddle-point form exp(-stirlerr(s) - bd0) / sqrt(2 pi s),
    bd0 = s (r - 1 - log r) with r = y/s: it forms neither e^{-y} nor y^s,
    and bd0 is off by about eps |y - s|, so t_s keeps its relative
    accuracy wherever it is a normal double."""
    r = y / s
    with np.errstate(divide="ignore"):  # log 0 = -inf at y = 0
        log_r = np.log(r)
    r -= 1.0
    r -= log_r
    r *= -s
    r -= _stirlerr(s) + 0.5 * math.log(2.0 * math.pi * s)
    return np.exp(r, out=r)


class _GammaMixtureCdf:
    """F of b + sign Z, Z the jumps of one side with beta <= 0: Ga(coef,
    rate) at beta = 0, and at beta < 0 (gamma jumps) the atom at 0 and the
    mixture of Ga(a n, rate), a = -beta, over n ~ Poisson(int nu).

    With y = rate t, P(s, y) = P(s + 1, y) + t_s(y) (`_poisson_term`), so
    a class of shapes s_0 < ... < s_m that lie whole unit steps apart needs
    one incomplete gamma call: its share of F is W P(s_m, y) + sum W_s
    t_s(y) over s = s_0, ..., s_m - 1, W its weight and W_s that of its
    members of shape <= s. Mirrored, Q = 1 - P anchors at s_0, with W_s the
    weight above s. Every term is positive, so F keeps its relative
    accuracy in the tails. A class steps from one member to the next by
    at most _CLASS_STEPS; other shapes, irrational a and large a among
    them, each take their own gammainc call. `terms` counts the gamma
    terms and `gammainc_calls` the calls per point.
    """

    def __init__(self, side: TiltedPowerSide, sign: float, b: float):
        if side.beta == 0:
            p0, a, w = 0.0, float(side.coef), np.ones(1)
        else:
            w = _poisson_weights(side.moment(0))
            p0, a, w = w[0], -float(side.beta), w[1:]
        # with t = sign (x - b): F = P(Z <= t) for t >= 0 on the positive
        # side, and P(Z >= t) = P(Z > t) for t > 0 mirrored on the negative
        self.upper = sign < 0
        self.sign, self.b, self.rate = sign, b, side.rate
        self.p0 = 0.0 if self.upper else p0
        self.terms = w.size
        # the least period p of n at which the shape step a p is a whole
        # number k <= _CLASS_STEPS of unit steps; class r then holds n = r,
        # r + p, ... at shapes a r + k i. Without one, each n is a class
        p, k = w.size, 0
        for q in range(1, min(w.size, int(_CLASS_STEPS / a) + 1)):
            if (a * q).is_integer():
                p, k = q, int(a * q)
                break
        # per class: the shape of its gammainc call, its weight, its
        # bottom shape and W_s at s = s_0, s_0 + 1, ..., s_m - 1
        self.classes = []
        for r in range(1, p + 1):
            wr = w[r - 1::p]
            s0 = a * r
            if self.upper:
                shape, walk = s0, np.cumsum(wr[::-1])[-2::-1]
            else:
                shape, walk = s0 + k * (wr.size - 1), np.cumsum(wr)[:-1]
            self.classes.append((shape, wr.sum(), s0, np.repeat(walk, k)))
        self.gammainc_calls = len(self.classes)

    def __call__(self, x):
        t = self.sign * (_as_float_array(x) - self.b)
        on = t > 0 if self.upper else t >= 0
        y = self.rate * t[on]
        inc = gammaincc if self.upper else gammainc
        acc = np.full_like(y, self.p0)
        for shape, total, s0, walk in self.classes:
            acc += total * inc(shape, y)
            for j, w_s in enumerate(walk):
                if j % _ANCHOR:
                    t_s *= y  # t_s = t_{s-1} y / s
                    t_s *= 1.0 / (s0 + j)
                else:
                    t_s = _poisson_term(s0 + j, y)
                acc += w_s * t_s
        out = np.full_like(t, float(self.upper))
        out[on] = np.clip(acc, 0.0, 1.0)
        return out


# knots of every CdfTable, equispaced over its range
_CDF_KNOTS = 2049


def _pchip_end_slope(h0, h1, m0, m1):
    """PCHIP's end slope: the one-sided three-point formula, 0 where its
    sign is not that of the end interval's slope m0, and 3 m0 where the
    slopes change sign and it exceeds 3 |m0| (Moler's pchiptx)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x, y):
    """Coefficients of the monotone PCHIP cubics through (x, y), 3 knots or
    more, highest power first: column k is the cubic in x - x[k] on
    [x[k], x[k+1]]. The inner slopes are the weighted harmonic mean of the
    neighbouring secants, 0 where one is 0 or their signs differ (Fritsch &
    Carlson 1980; Fritsch & Butland 1984). The arithmetic and its order are
    scipy's PchipInterpolator's, so the coefficients are its `.c` bit for
    bit."""
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    monotone = ((np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0)
                & (m[:-1] != 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros_like(y)
    d[1:-1][monotone] = 1.0 / whmean[monotone]
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


class CdfTable:
    """Monotone PCHIP fit of F on [lo, hi] through its values at the
    _CDF_KNOTS equispaced knots, clamped outside. The knot rule is 'cos'
    (one DST of the COS series, `_cos_cdf_knots`, with no error estimate)
    or 'double_exponential' (one pass of `_gamma_diff_cdf` over every
    knot); `knot_error` is the rule's estimate."""

    def __init__(self, spec: IDDSpec, rule: str):
        lo, hi = _cdf_range(spec)
        self._knots = np.linspace(lo, hi, _CDF_KNOTS)
        if rule == "cos":
            vals, self.knot_error = _cos_cdf_knots(spec, lo, hi), None
        else:
            vals, self.knot_error = _gamma_diff_cdf(spec, self._knots)
        vals = np.clip(vals, 0.0, 1.0)
        np.maximum.accumulate(vals, out=vals)
        self.lo, self.hi = lo, hi
        self._step = (hi - lo) / (_CDF_KNOTS - 1)
        # a slope of ~1e-320 between tail knots overflows PCHIP's harmonic
        # mean of slopes to inf; its reciprocal, derivative 0, is the limit
        with np.errstate(over="ignore"):
            # the cubic on [knots[k], knots[k+1]], highest power first
            self._coef = _pchip_coefficients(self._knots, vals)

    def __call__(self, x):
        """F at x: the PCHIP cubic inside (lo, hi), 0 at or below lo, 1 at
        or above hi, nan at nan. The knots are equispaced, so one division
        finds each point's interval, and one comparison each way settles
        scipy's PPoly convention knots[k] <= x < knots[k+1]; the cubic is
        summed in PPoly's order, so the values are PchipInterpolator's bit
        for bit."""
        x = _as_float_array(x)
        inside = (x > self.lo) & (x < self.hi)
        # points outside read the first cubic at s = 0, kept finite, and
        # are replaced by their clamp
        xi = np.where(inside, x, self.lo)
        k = np.minimum(((xi - self.lo) / self._step).astype(np.intp),
                       _CDF_KNOTS - 2)
        k -= xi < self._knots[k]
        k += xi >= self._knots[k + 1]
        s = xi - self._knots[k]
        c0, c1, c2, c3 = self._coef.take(k, axis=1)
        s2 = s * s
        f = c3 + c2 * s + c1 * s2 + c0 * (s2 * s)
        return np.where(inside, f, np.heaviside(x - self.hi, 1.0))


def _cdf_range(spec: IDDSpec) -> Tuple[float, float]:
    m = spec.mean()
    sd = spec.std()
    left, right = spec.tail_rates()
    lo = m - max(30.0 * sd, 0.0 if not math.isfinite(left) else 50.0 / left)
    hi = m + max(30.0 * sd, 0.0 if not math.isfinite(right) else 50.0 / right)
    return lo, hi


def cdf_route(spec: IDDSpec) -> dict:
    """How `cdf_fn` evaluates F, as the spec chose it once (`_cdf`): route
    'triplet' (the triplet's closed form) or 'table'. A triplet gamma
    mixture adds its gamma term count and its incomplete gamma calls per
    point; a table adds its range, knot count, knot rule ('cos' or
    'double_exponential') and the rule's error estimate (None for the COS
    series)."""
    return spec._cdf[1]


# -- Poisson -----------------------------------------------------------------


@dataclass(frozen=True)
class Poisson(IDDSpec):
    lam: float
    family: ClassVar[str] = "poisson"

    def __post_init__(self):
        _require(self.lam >= 0, "poisson intensity lam must be nonnegative")

    @cached_property
    def measure(self) -> LevyMeasure:
        if self.lam == 0:
            return LevyMeasure.atomic(())
        return LevyMeasure.atomic(((1.0, self.lam),))


# -- compound Poisson --------------------------------------------------------


@dataclass(frozen=True)
class AtomicJumps:
    """Discrete jump law: ((location, probability), ...)."""

    atoms: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        _require(len(self.atoms) > 0, "need at least one jump atom")
        total = 0.0
        for loc, p in self.atoms:
            _require(loc != 0.0, "jump atom at 0 is not allowed")
            _require(p > 0.0, "jump probabilities must be strictly positive")
            total += p
        _require(abs(total - 1.0) < 1e-9,
                 f"jump probabilities sum to {total}, expected 1")


@dataclass(frozen=True)
class GammaJumps:
    """Ga(a, b) jump sizes."""

    a: float
    b: float

    def __post_init__(self):
        _require(self.a > 0 and self.b > 0, "gamma jump parameters must be > 0")


@dataclass(frozen=True)
class CompoundPoisson(IDDSpec):
    rate: float
    jumps: Union[AtomicJumps, GammaJumps]
    family: ClassVar[str] = "compound_poisson"

    def __post_init__(self):
        _require(self.rate >= 0, "compound-Poisson rate must be nonnegative")

    @cached_property
    def measure(self) -> LevyMeasure:
        if self.rate == 0:
            return LevyMeasure.atomic(())
        if isinstance(self.jumps, AtomicJumps):
            return LevyMeasure.atomic(
                tuple((loc, self.rate * p) for loc, p in self.jumps.atoms))
        a, b = self.jumps.a, self.jumps.b
        try:
            coef = self.rate * math.exp(a * math.log(b) - gammaln(a))
        except OverflowError:
            coef = math.inf
        # a coefficient rounded to 0 would drop the jumps from the measure
        # and with them the mean and every cumulant
        if not 0.0 < coef < math.inf:
            raise DivergentMoment(
                f"gamma jumps Ga({a:g}, {b:g}) at rate {self.rate:g}: the Lévy "
                "density coefficient rate b^a / Gamma(a) leaves the range of "
                "a double")
        return LevyMeasure.from_tilted(pos=TiltedPowerSide(coef, -a, b))


# -- gamma -------------------------------------------------------------------


@dataclass(frozen=True)
class Gamma(IDDSpec):
    a: float
    b: float
    family: ClassVar[str] = "gamma"

    def __post_init__(self):
        _require(self.a >= 0, "gamma shape a must be nonnegative")
        _require(self.b > 0, "gamma rate b must be strictly positive")

    @cached_property
    def measure(self) -> LevyMeasure:
        return LevyMeasure.from_tilted(pos=TiltedPowerSide(self.a, 0.0, self.b))


# -- inverse Gaussian --------------------------------------------------------


@dataclass(frozen=True)
class InverseGaussian(IDDSpec):
    """Lévy density alpha * u^{-3/2} e^{-lam u} on u > 0.

    In the (mean m, shape L) parametrization of the IG law this is
    m = alpha sqrt(pi/lam), L = 2 pi alpha^2.
    """

    alpha: float
    lam: float
    family: ClassVar[str] = "inverse_gaussian"

    def __post_init__(self):
        _require(self.alpha >= 0, "IG coefficient alpha must be nonnegative")
        _require(self.lam > 0, "IG tilt lam must be strictly positive")

    @cached_property
    def measure(self) -> LevyMeasure:
        return LevyMeasure.from_tilted(pos=TiltedPowerSide(self.alpha, 0.5, self.lam))

    def sample_conv(self, rng, s, size):
        # numpy's Wald sampler: one variate per draw, where the derived
        # sampler would sum several tempered-stable pieces. X^{*0} = 0
        # takes no draw, and numpy rejects a Wald mean of 0.
        s = _check_power(s)
        if s * self.alpha == 0:
            return np.zeros(size)
        return rng.wald(*_ig_mean_shape(s * self.alpha, self.lam), size)


# -- Laplace and the two-sided exponential ------------------------------------


@dataclass(frozen=True)
class Laplace(IDDSpec):
    mu0: float
    delta: float
    family: ClassVar[str] = "laplace"

    def __post_init__(self):
        _require(self.delta > 0, "laplace scale delta must be strictly positive")

    @cached_property
    def measure(self) -> LevyMeasure:
        side = TiltedPowerSide(1.0, 0.0, 1.0 / self.delta)
        return LevyMeasure.from_tilted(pos=side, neg=side)

    @property
    def drift0(self) -> float:
        return self.mu0


@dataclass(frozen=True)
class TwoSidedExp(IDDSpec):
    """Difference of independent exponentials: Exp(a) - Exp(b)."""

    a: float
    b: float
    family: ClassVar[str] = "two_sided_exp"

    def __post_init__(self):
        _require(self.a > 0 and self.b > 0, "TSE rates must be strictly positive")

    @cached_property
    def measure(self) -> LevyMeasure:
        return LevyMeasure.from_tilted(pos=TiltedPowerSide(1.0, 0.0, self.a),
                                       neg=TiltedPowerSide(1.0, 0.0, self.b))


# -- bilateral gamma family ----------------------------------------------------

# The double-exponential rule of `_gamma_diff_cdf` halves its step until two
# levels agree to _DE_TOL at every point, and refuses the cdf past
# _DE_MAX_LEVEL halvings; its nodes leave out at most _DE_TAIL of the mass,
# and _DE_BLOCK bounds the points x nodes evaluated at once.
_DE_TOL, _DE_MAX_LEVEL, _DE_TAIL, _DE_BLOCK = 1e-13, 8, 1e-20, 1 << 12


def _gamma_diff_cdf(spec: IDDSpec, x):
    """F at the array x of b + G+ - G-, for G+- ~ Ga(coef, rate) the jumps of
    two beta = 0 sides and b the uncompensated drift, and the error estimate
    max |I_h - I_{h/2}| of the last two levels.

    With t = x - b, F = int_0^inf P(a+, l+ u) f-(u - t) du for t <= 0, P the
    regularized incomplete gamma function and f- the density of G-; for
    t > 0 the sides swap, at -t, to give 1 - F, so each tail comes directly.
    The one singular point is u = 0 for every t, so one exp-sinh node set
    u = s exp(pi/2 sinh tau), s = 1/(l+ + l-), serves all points (Takahasi &
    Mori, Publ. RIMS 9, 1974), and each halving of the step reuses it.
    """
    (_, pos), (_, neg) = spec.measure.sides()
    t = _as_float_array(x) - spec.drift
    log_s = -math.log(pos.rate + neg.rate)
    # u_lo: P(a, rate u) <= (rate u)^a / Gamma(a + 1) <= _DE_TAIL below it on
    # both sides; u_hi: both gamma laws leave at most _DE_TAIL above it
    log_ends = np.array([
        min((math.log(_DE_TAIL) + gammaln(sd.coef + 1.0)) / sd.coef
            - math.log(sd.rate) for sd in (pos, neg)),
        max(math.log(gammainccinv(sd.coef, _DE_TAIL) / sd.rate)
            for sd in (pos, neg))])
    tau_lo, tau_hi = np.arcsinh((log_ends - log_s) / (0.5 * math.pi))
    h, sums, prev = (tau_hi - tau_lo) / 16.0, np.zeros_like(t), None
    tau = tau_lo + h * np.arange(17.0)
    for level in range(_DE_MAX_LEVEL + 1):
        for on, cdf_side, pdf_side in ((t <= 0, pos, neg), (t > 0, neg, pos)):
            sums[on] += _de_sums(tau, log_s, np.abs(t[on]), cdf_side, pdf_side)
        if prev is not None:
            err = float(np.max(np.abs(h * sums - prev)))
            if err <= _DE_TOL:
                return np.where(t <= 0, h * sums, 1.0 - h * sums), err
        prev, h = h * sums, 0.5 * h
        tau = tau_lo + h * np.arange(1.0, 32 << level, 2.0)  # the new nodes
    raise NonConvergence(f"cdf rule of {spec!r}: its last two levels differ "
                         f"by {err:.3g} > {_DE_TOL:g}", error_estimate=err)


def _de_sums(tau, log_s, dist, cdf_side, pdf_side):
    """Per point d of dist >= 0, the sum over the nodes tau of P(a, rate u)
    f(u + d) du/dtau: P the cdf of cdf_side's gamma law, f the density of
    pdf_side's, in logs where u underflows."""
    log_u = log_s + 0.5 * math.pi * np.sinh(tau)
    a, c, rate = cdf_side.coef, pdf_side.coef, pdf_side.rate
    log_y = log_u + math.log(cdf_side.rate)
    # below y = e^-40, P(a, y) = y^a / Gamma(a + 1) to double precision,
    # taken in logs since y or y^a may underflow
    with np.errstate(divide="ignore"):
        log_p = np.where(log_y < -40.0, a * np.minimum(log_y, -40.0)
                         - gammaln(a + 1.0), np.log(gammainc(a, np.exp(log_y))))
    node = (log_p + log_u + np.log(0.5 * math.pi * np.cosh(tau))
            + c * math.log(rate) - gammaln(c))
    u, out, step = np.exp(log_u), np.empty_like(dist), _DE_BLOCK // tau.size + 1
    for i in range(0, dist.size, step):
        v = u + dist[i:i + step, None]
        with np.errstate(divide="ignore"):
            e = np.log(v)
        e[dist[i:i + step] == 0] = log_u  # u may round to 0; log u may not
        e *= c - 1.0
        e += node
        e -= np.multiply(v, rate, out=v)
        out[i:i + step] = np.exp(e, out=e).sum(axis=1)
    return out


@dataclass(frozen=True)
class BGD(IDDSpec):
    """Bilateral gamma: Ga(alpha_pos, lam_pos) - Ga(alpha_neg, lam_neg)."""

    alpha_pos: float
    lam_pos: float
    alpha_neg: float
    lam_neg: float
    family: ClassVar[str] = "bgd"

    def __post_init__(self):
        _require(self.alpha_pos >= 0 and self.alpha_neg >= 0,
                 "BGD shapes must be nonnegative")
        _require(self.lam_pos > 0 and self.lam_neg > 0,
                 "BGD rates must be strictly positive")

    @cached_property
    def measure(self) -> LevyMeasure:
        return LevyMeasure.from_tilted(
            pos=TiltedPowerSide(self.alpha_pos, 0.0, self.lam_pos),
            neg=TiltedPowerSide(self.alpha_neg, 0.0, self.lam_neg))


@dataclass(frozen=True)
class VGD(IDDSpec):
    """Variance gamma: mu0 + Ga(alpha, lam_pos) - Ga(alpha, lam_neg)."""

    mu0: float
    alpha: float
    lam_pos: float
    lam_neg: float
    family: ClassVar[str] = "vgd"

    def __post_init__(self):
        _require(self.alpha >= 0, "VGD shape alpha must be nonnegative")
        _require(self.lam_pos > 0 and self.lam_neg > 0,
                 "VGD rates must be strictly positive")

    @cached_property
    def measure(self) -> LevyMeasure:
        return LevyMeasure.from_tilted(
            pos=TiltedPowerSide(self.alpha, 0.0, self.lam_pos),
            neg=TiltedPowerSide(self.alpha, 0.0, self.lam_neg))

    @property
    def drift0(self) -> float:
        return self.mu0


@dataclass(frozen=True)
class VGDAltParams:
    """(mu0, sigma2, r, theta) parametrization of the variance gamma law:
    sigma2 = 1/(lam_pos lam_neg), 2 theta = 1/lam_pos - 1/lam_neg, r = 2 alpha.
    """

    mu0: float
    sigma2: float
    r: float
    theta: float

    def __post_init__(self):
        _require(self.sigma2 > 0, "sigma2 must be strictly positive")
        _require(self.r >= 0, "r must be nonnegative")


def vgd_from_alt(p: VGDAltParams) -> VGD:
    root = math.sqrt(p.theta**2 + p.sigma2)
    lam_pos = 1.0 / (root + p.theta)
    lam_neg = 1.0 / (root - p.theta)
    return VGD(p.mu0, p.r / 2.0, lam_pos, lam_neg)


def vgd_to_alt(spec: VGD) -> VGDAltParams:
    return VGDAltParams(
        mu0=spec.mu0,
        sigma2=1.0 / (spec.lam_pos * spec.lam_neg),
        r=2.0 * spec.alpha,
        theta=0.5 * (1.0 / spec.lam_pos - 1.0 / spec.lam_neg))


# -- tempered stable sampling --------------------------------------------------

# Candidate pieces drawn per block of `_tempered_sums`: its arrays stay this
# long whatever the coefficients and the number of draws.
_PIECE_CHUNK = 1 << 13


def _open_unit(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill `out` with uniforms on the open interval (0, 1). `rng.random`
    returns multiples of 2^-53 in [0, 1); adding 2^-55 moves 0 off the lower
    end, and at the top it rounds back to 1 - 2^-53."""
    rng.random(out=out)
    out += 2.0**-55
    return out


def _tempered_sums(rng: np.random.Generator, size: int, beta: float,
                   pos: Tuple[float, float],
                   neg: Tuple[float, float]) -> np.ndarray:
    """`size` exact draws of P - N, where P and N are the (uncompensated)
    jump sums of the Lévy densities coef u^{-1-beta} e^{-rate u}, u > 0,
    for (coef, rate) = pos and neg, 0 < beta < 1.

    Each side of a draw sums k = ceil(m) pieces, m = coef |Gamma(-beta)|
    rate^beta. A candidate is the beta-stable piece of Lévy density
    (coef / k) u^{-1-beta} from Kanter's representation, kept, and then
    exactly tilted, when an independent Exp(1) is at least rate times it:
    with probability p = e^{-m/k} >= e^{-1} (Kawai & Masuda 2011). The
    candidates are i.i.d., so the kept ones in stream order are i.i.d.
    tilted pieces whichever draw each fills: blocks of candidates sized
    from p (at most `_PIECE_CHUNK`) cover the pieces still missing but for
    a shortfall beyond 4 standard deviations, and kept piece j goes to draw
    j // k. The work grows with m, like 1/beta as beta -> 0 and like
    1/(1 - beta) as beta -> 1.
    """
    # Kanter: S = [sin(beta U)/sin U] [sin((1-beta) U)/(sin U E)]^power
    power = (1.0 - beta) / beta
    kanter = np.array([1.0, -1.0 / beta, power])
    half_angles = 0.5 * np.pi * np.array([[beta], [1.0], [1.0 - beta]])
    # the blocks share their work arrays: arrays allocated afresh would be
    # paged in anew every block
    v_buf, x_buf, y_buf = np.empty((3, 3 * _PIECE_CHUNK))
    out = np.zeros(size)
    for sign, (coef, rate) in ((1.0, pos), (-1.0, neg)):
        mass = coef * -gamma_fn(-beta) * rate**beta
        k = math.ceil(mass)
        if k == 0:
            continue
        # log(rate * piece) = log(m/k)/beta + log S
        log_scale, keep_p = math.log(mass / k) / beta, math.exp(-mass / k)
        sums, n_pieces, done = np.zeros(size), size * k, 0
        # a piece below the smallest double is 0 to working precision
        with np.errstate(under="ignore"):
            while done < n_pieces:
                missing = n_pieces - done
                b = min(_PIECE_CHUNK, math.ceil(
                    (missing + 4.0 * math.sqrt(missing)) / keep_p))
                v, x, y = (buf[:3 * b].reshape(3, b)
                           for buf in (v_buf, x_buf, y_buf))
                _open_unit(rng, v)
                # with tau = tan(a/2) at the angles a = beta U, U,
                # (1 - beta) U for U = pi v[0], tau + 1/tau = 2/sin(a);
                # log S weights the logs of the three by -kanter, whose sum
                # 0 cancels the 2s
                np.tan(np.multiply(half_angles, v[0], out=x), out=x)
                x += np.divide(1.0, x, out=y)
                # E = -log v[1] and E' = -log v[2]; S holds E^-power as it
                # holds (2/sin((1 - beta) U))^-power, so E joins that row
                np.log(v[1:], out=v[1:])
                x[2] *= np.negative(v[1], out=v[1])
                np.log(x, out=x)
                t = np.subtract(log_scale, kanter @ x, out=y[0])
                log_e = np.log(np.negative(v[2], out=v[2]), out=v[2])
                # kept pieces, their logs at most log E' and so finite
                kept = np.exp(np.compress(t <= log_e, t)[:missing])
                first = done // k
                binned = np.bincount(
                    np.arange(done, done + kept.size) // k - first, kept)
                sums[first:first + binned.size] += binned
                done += kept.size
        out += sign / rate * sums
    return out


@dataclass(frozen=True)
class CGMY(IDDSpec):
    """Tempered stable with Lévy density
    alpha |u|^{-1-beta} (e^{-lam_pos u} 1_{u>0} + e^{-lam_neg |u|} 1_{u<0}),
    0 <= beta < 1, uncompensated (no drift constant). beta = 0 recovers the
    variance gamma law with mu0 = 0.

    The sampler is exact for every beta: for beta > 0 it sums exponentially
    tilted stable pieces accepted by rejection (`_tempered_sums`), at a cost
    that grows like 1/beta as beta -> 0 and like 1/(1 - beta) as beta -> 1;
    at beta = 0 it is the difference of two gamma variates.
    """

    alpha: float
    beta: float
    lam_pos: float
    lam_neg: float
    family: ClassVar[str] = "cgmy"

    def __post_init__(self):
        _require(self.alpha >= 0, "CGMY coefficient alpha must be nonnegative")
        _require(0.0 <= self.beta < 1.0,
                 f"CGMY stability index beta={self.beta} outside [0, 1): the "
                 "identities here need jumps of finite variation")
        _require(self.lam_pos > 0 and self.lam_neg > 0,
                 "CGMY tilt rates must be strictly positive")

    @cached_property
    def measure(self) -> LevyMeasure:
        return LevyMeasure.from_tilted(
            pos=TiltedPowerSide(self.alpha, self.beta, self.lam_pos),
            neg=TiltedPowerSide(self.alpha, self.beta, self.lam_neg))


@dataclass(frozen=True)
class GTSD(IDDSpec):
    """Generalized tempered stable, compensated: drift mu equals the mean,
    sides may carry different coefficients and tilts.

    The sampler is exact for every beta, the same as CGMY's: its cost grows
    like 1/beta as beta -> 0 and like 1/(1 - beta) as beta -> 1.
    """

    mu: float
    beta: float
    alpha_pos: float
    lam_pos: float
    alpha_neg: float
    lam_neg: float
    family: ClassVar[str] = "gtsd"
    drift_convention: ClassVar[str] = "compensated"

    def __post_init__(self):
        _require(self.alpha_pos >= 0 and self.alpha_neg >= 0,
                 "GTSD coefficients must be nonnegative")
        _require(0.0 <= self.beta < 1.0,
                 f"GTSD stability index beta={self.beta} outside [0, 1): the "
                 "identities here need jumps of finite variation")
        _require(self.lam_pos > 0 and self.lam_neg > 0,
                 "GTSD tilt rates must be strictly positive")

    @cached_property
    def measure(self) -> LevyMeasure:
        return LevyMeasure.from_tilted(
            pos=TiltedPowerSide(self.alpha_pos, self.beta, self.lam_pos),
            neg=TiltedPowerSide(self.alpha_neg, self.beta, self.lam_neg))

    @property
    def drift0(self) -> float:
        return self.mu


# -- COS series cdf -------------------------------------------------------------

# The COS method (Fang & Oosterlee, SIAM J. Sci. Comput. 31, 2008) expands the
# density on [lo, hi] in cosines whose coefficients are values of the cf;
# integrated, it gives the cdf as a sine series. For CGMY/GTSD with beta > 0
# the cf decays like e^{-c|t|^beta}, so the series is short unless beta and
# the coefficients are both small; past _COS_MAX_TERMS terms it is refused.
_COS_MAX_TERMS = 1 << 24
_COS_CHUNK = 1 << 15


def _cf_cutoff(spec: IDDSpec) -> float:
    """Smallest power-of-two T with |cf(T)| < 1e-12."""
    t = 1.0
    while abs(complex(spec.cf(np.asarray(t)))) >= 1e-12:
        t *= 2.0
        if t > 1e9:
            raise NonConvergence(
                f"characteristic function of {spec!r} decays too slowly: "
                f"|cf(t)| >= 1e-12 up to t = {t:.3g}; series cdf unavailable")
    return t


def _cos_terms(spec: IDDSpec, lo: float, hi: float):
    """Yield (k, c_k) in chunks, k = 1..N, for the series
    F(x) ~ (x - lo)/L + sum_k c_k sin(u_k (x - lo)) on [lo, hi], with
    L = hi - lo, u_k = k pi/L, c_k = (2/L) Re[cf(u_k) e^{-i u_k lo}] / u_k
    and N = ceil(T L / pi) for the cf cutoff T."""
    span = hi - lo
    n_terms = math.ceil(_cf_cutoff(spec) * span / math.pi)
    if n_terms > _COS_MAX_TERMS:
        raise NonConvergence(
            f"cdf series of {spec!r} needs N = {n_terms:.3g} terms, above the "
            f"cap of {_COS_MAX_TERMS}: the cf decays too slowly")
    for start in range(1, n_terms + 1, _COS_CHUNK):
        k = np.arange(start, min(start + _COS_CHUNK, n_terms + 1))
        u = k * (math.pi / span)
        yield k, (2.0 / span) * (spec.cf(u) * np.exp(-1j * u * lo)).real / u


def _cos_cdf(spec: IDDSpec, x) -> np.ndarray:
    """The series the spec keeps (`_cos_series`) at the points x, summed in
    chunks of _COS_CHUNK terms; 0 at or below and 1 at or above the table
    range, where no term is summed or built."""
    lo, hi = _cdf_range(spec)
    x = _as_float_array(x)
    out = np.heaviside(x - hi, 1.0)
    inside = (x > lo) & (x < hi)
    if inside.any():
        coef = spec._cos_series
        d = x[inside] - lo
        val, theta = d / (hi - lo), math.pi * d / (hi - lo)
        for start in range(0, coef.size, _COS_CHUNK):
            c = coef[start:start + _COS_CHUNK]
            k = np.arange(start + 1, start + 1 + c.size)
            val += np.sin(np.multiply.outer(theta, k)) @ c
        out[inside] = np.clip(val, 0.0, 1.0)
    return out


def _cos_cdf_knots(spec: IDDSpec, lo: float, hi: float) -> np.ndarray:
    """The series at the _CDF_KNOTS equispaced knots of [lo, hi] in one
    DST-I.

    At knot j of m = _CDF_KNOTS - 1 intervals the k-th sine is sin(pi k j/m).
    It depends on k only through r = k mod 2m and equals -sin(pi (2m-r) j/m)
    for r > m, so the terms fold exactly into bins 1..m-1 (bins 0 and m
    vanish at every knot).
    """
    m = _CDF_KNOTS - 1
    fold = np.zeros(m + 1)
    for k, c in _cos_terms(spec, lo, hi):
        r = k % (2 * m)
        flip = r > m
        fold += np.bincount(np.where(flip, 2 * m - r, r),
                            weights=np.where(flip, -c, c), minlength=m + 1)
    vals = np.linspace(0.0, 1.0, _CDF_KNOTS)
    vals[1:m] += 0.5 * dst(fold[1:m], type=1)
    return vals


# -- registry -------------------------------------------------------------------


FAMILIES = {
    cls.family: cls
    for cls in (Poisson, CompoundPoisson, Gamma, InverseGaussian, Laplace,
                TwoSidedExp, BGD, VGD, CGMY, GTSD)
}


def spec_float(value, name: str) -> float:
    """A number read from a spec: a finite int or float. A bool, a string
    or a non-finite value is refused, with the field named."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, Real)
              and math.isfinite(value))
    except OverflowError:  # an int beyond the range of a double
        ok = False
    if not ok:
        raise ValidationError(
            f"field {name!r} must be a finite numeric value, not {value!r}")
    return float(value)


def field_mismatch(got, required, optional=frozenset()) -> str:
    """'missing [...]; unexpected [...]' for the keys `got` against the
    required and optional names, each part only if it is not empty."""
    got = set(got)
    parts = (("missing", sorted(required - got)),
             ("unexpected", sorted(got - required - optional)))
    return "; ".join(f"{word} {names}" for word, names in parts if names)


def make_spec(family: str, params: dict) -> IDDSpec:
    """Build a catalog spec from plain JSON-style data, with field checks."""
    if not isinstance(family, str) or family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise ValidationError(f"unknown family {family!r}; known: {known}")
    cls = FAMILIES[family]
    if not isinstance(params, dict):
        raise ValidationError(f"{family}: params must be an object")
    params = dict(params)
    if family == "compound_poisson":
        jumps = params.get("jumps")
        if not isinstance(jumps, dict) or "kind" not in jumps:
            raise ValidationError(
                "compound_poisson: params.jumps must be an object with a "
                "'kind' of 'atoms' or 'gamma'")
        jumps = dict(jumps)
        kind = jumps.pop("kind")
        try:
            if kind == "atoms":
                atoms = jumps.pop("atoms", None)
                if not atoms:
                    raise ValidationError(
                        "compound_poisson: atoms jumps need a nonempty "
                        "'atoms' list of [location, probability] pairs")
                params["jumps"] = AtomicJumps(tuple(
                    (spec_float(l, "jumps.atoms"),
                     spec_float(p, "jumps.atoms")) for l, p in atoms))
            elif kind == "gamma":
                params["jumps"] = GammaJumps(
                    spec_float(jumps.pop("a"), "jumps.a"),
                    spec_float(jumps.pop("b"), "jumps.b"))
            else:
                raise ValidationError(
                    f"compound_poisson: unknown jump kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"compound_poisson: malformed jumps object ({exc})") from None
        if jumps:
            raise ValidationError(
                f"compound_poisson: unexpected jump fields {sorted(jumps)}")
    want = {f.name for f in fields(cls)}
    mismatch = field_mismatch(params, want)
    if mismatch:
        raise ValidationError(f"{family}: {mismatch}; expected fields "
                              f"{sorted(want)}")
    try:
        coerced = {k: (v if k == "jumps" else spec_float(v, k))
                   for k, v in params.items()}
        return cls(**coerced)
    except (ValidationError, InvalidParams) as exc:
        raise ValidationError(f"{family}: {exc}") from None
