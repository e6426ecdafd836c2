"""Catalog of infinitely divisible distributions as IDD(mu, 0, nu) specs.

Each family knows its Lévy triplet (a measure of atoms or tilted-power
sides, and a drift constant); `IDDSpec` derives mean, variance, cf, cdf,
convolution powers and their exact samplers from it. The inverse Gaussian
keeps numpy's Wald sampler; it, Laplace, the two-sided exponential and
Poisson keep their closed cdf. Two drift conventions coexist in the
catalog: families built from jumps of finite first moment are stored
uncompensated (constant drift, cf kernel e^{itu} - 1), while the
generalized tempered stable family is compensated (drift equals the mean,
kernel e^{itu} - 1 - itu).
`convert_drift` moves a constant between the two conventions; nothing else
in the package needs to care which one a family uses.

Fractional convolution powers X^{*s}, 0 <= s <= 1, scale the Lévy measure
and the drift by s; every family here is closed under that operation, which
is what makes the exact joint-pair samplers in `identities` possible.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from typing import ClassVar, Tuple, Union

import numpy as np
from scipy import integrate
from scipy.fft import dst
from scipy.interpolate import PchipInterpolator
from scipy.special import (
    gamma as gamma_fn,
    gammainc,
    gammaincc,
    gammaln,
    log_ndtr,
    ndtr,
)

from .errors import (DivergentMoment, InvalidParams, NonConvergence,
                     ValidationError)
from .levy_core import (
    DEFAULT_QUAD,
    LevyMeasure,
    QuadratureConfig,
    TiltedPowerSide,
    exp_moment,
)

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
    "convert_drift",
    "mean_levy",
    "vgd_from_alt",
    "vgd_to_alt",
]


def _require(cond: bool, msg: str):
    if not cond:
        raise InvalidParams(msg)


def _as_float_array(x):
    return np.asarray(x, dtype=float)


class IDDSpec:
    """Shared interface; concrete families are frozen dataclasses below.

    A family supplies its triplet IDD(mu, 0, nu) as `measure` and `drift0`
    (in its `drift_convention`), and names in `_scaled` the fields that
    X^{*s} multiplies by s. `mean`, `variance`, `cf`, `conv_power` and the
    cdf are derived from these here, and every cumulant by
    `levy_core.cumulant`, all exact for every catalog family.
    `sample_conv(rng, s)` draws one variate of X^{*s_i}, whose triplet is
    (s_i b, 0, s_i nu), per entry of the array s; it is the hot path of the
    joint coupling, and `sample` is the case s = 1. `cdf_fn` returns a
    vectorized F: a family's `_closed_cdf`, else the triplet's closed form
    (`_triplet_cdf`), else a table of exact point values (`_point_cdf`).
    `cdf` is F at one point, never the table's interpolant.
    """

    family: ClassVar[str] = "?"
    drift_convention: ClassVar[str] = "uncompensated"
    _scaled: ClassVar[Tuple[str, ...]] = ()

    # -- things subclasses must provide -------------------------------------

    @cached_property
    def measure(self) -> LevyMeasure:
        raise NotImplementedError

    @property
    def drift0(self) -> float:
        """The constant drift in the family's own convention."""
        return 0.0

    def _closed_cdf(self):
        """Closed vectorized F where the triplet's would be a table or a
        lattice of O(lam) jump counts, or None."""
        return None

    # -- shared machinery ----------------------------------------------------

    def conv_power(self, s: float) -> "IDDSpec":
        """X^{*s}: the fields in `_scaled` multiplied by s."""
        self._check_s(s)
        return replace(self, **{f: getattr(self, f) * s for f in self._scaled})

    def mean(self, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
        """E(X): drift0, plus int u nu(du) when the drift is uncompensated."""
        return convert_drift(self, "compensated", cfg)

    def variance(self, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
        """Var(X) = C_2 = int u^2 nu(du)."""
        return self.measure.moment(2, cfg)

    def cf(self, t):
        """E[e^{itX}] = exp(itb + int (e^{itu} - 1) nu(du)), b the
        uncompensated drift; vectorised over real t."""
        t = _as_float_array(t)
        b = convert_drift(self, "uncompensated")
        return np.exp(1j * t * b
                      + exp_moment(self.measure, 0, 1j * t, subtract_one=True))

    def std(self, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
        return math.sqrt(self.variance(cfg))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.sample_conv(rng, np.ones(size))

    def sample_conv(self, rng: np.random.Generator, s: np.ndarray) -> np.ndarray:
        """Exact draws of X^{*s_i}: b s_i plus the jumps of s_i nu, with b
        the uncompensated drift. An atom (loc, mass) adds loc Poisson(s_i
        mass); a side with beta = 0 adds Ga(s_i coef, rate); one with
        beta < 0 (gamma jumps) adds Ga(-beta N, rate) for N ~ Poisson(s_i
        int nu); the sides with beta > 0 add `_tempered_sums`."""
        s = _as_float_array(s)
        m = self.measure
        jumps = np.zeros_like(s)
        if m.is_atomic:
            for loc, mass in m.atoms:
                jumps += loc * rng.poisson(s * mass)
        # (coef, rate) of the positive and negative sides with beta > 0,
        # which share one beta in every catalog family
        stable, beta = [(0.0, 1.0), (0.0, 1.0)], 0.0
        for sign, side in m.sides():
            if side.beta > 0:
                stable[sign < 0], beta = (side.coef, side.rate), side.beta
                continue
            shape = (s * side.coef if side.beta == 0 else
                     -side.beta * rng.poisson(s * side.moment(0)))
            jumps += sign * rng.gamma(shape, 1.0 / side.rate)
        if beta > 0:
            jumps += _tempered_sums(rng, s, beta, *stable)
        return jumps + convert_drift(self, "uncompensated") * s

    def params(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def cdf(self, x: float, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
        """F(x); for a tabulated law the exact value, not the interpolant."""
        f = self._formula_cdf()
        if f is None:
            return _point_cdf(self, float(x), cfg)
        return float(f(np.asarray([x]))[0])

    def cdf_fn(self, cfg: QuadratureConfig = DEFAULT_QUAD):
        """Vectorized cdf: closed when the family or its triplet has one,
        else a monotone PCHIP interpolant of `_point_cdf` knot values."""
        return self._formula_cdf() or _cdf_table(self, cfg)

    def _formula_cdf(self):
        """The family's closed F, else the triplet's, else None."""
        return self._closed_cdf() or _triplet_cdf(self)

    def esscher_kappa_max(self) -> float:
        """Supremum of tilts kappa with E[e^{kappa X}] < inf.

        Atomic and purely negative measures tilt for every kappa > 0; a
        tilted-power positive side caps it at its decay rate.
        """
        pos = self.measure.pos_structure
        return pos.rate if pos is not None else math.inf

    def tail_rates(self) -> Tuple[float, float]:
        """(left, right) exponential decay rates of the Lévy tails."""
        m = self.measure
        left = m.neg_structure.rate if m.neg_structure is not None else math.inf
        right = m.pos_structure.rate if m.pos_structure is not None else math.inf
        return left, right

    def _check_s(self, s: float):
        _require(0.0 <= s <= 1.0, f"convolution power s={s} outside [0, 1]")


# -- cdf -----------------------------------------------------------------------


def _triplet_cdf(spec: IDDSpec):
    """Vectorized F from the triplet (nu, b), b the uncompensated drift,
    when nu is atomic (the zero measure included) or one side with
    beta <= 0; None otherwise."""
    m, b = spec.measure, convert_drift(spec, "uncompensated")
    if m.is_atomic:
        pts, cum = _lattice(m.atoms)
        return lambda x: cum[np.searchsorted(pts, _as_float_array(x) - b,
                                             side="right")]
    (sign, side), *rest = m.sides()
    if rest or side.beta > 0:
        return None
    return _one_side_cdf(side, sign, b)


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


@lru_cache(maxsize=32)
def _lattice(atoms: Tuple[Tuple[float, float], ...]):
    """Support points of the jump sum of the atomic measure ((loc, mass),
    ...), Poisson(int nu) jumps each at loc with probability mass / int nu,
    and its cdf below the first point (0) and at each point."""
    lam = sum(mass for _, mass in atoms)
    if lam == 0:
        return np.zeros(1), np.array([0.0, 1.0])
    jumps = [(loc, mass / lam) for loc, mass in atoms]
    weights = _poisson_weights(lam)
    dist, conv = defaultdict(float, {0.0: weights[0]}), {0.0: 1.0}
    for w in weights[1:]:
        nxt = defaultdict(float)
        for v, pv in conv.items():
            for loc, pj in jumps:
                nxt[round(v + loc, 12)] += pv * pj
        conv = nxt
        for v, pv in conv.items():
            dist[v] += w * pv
    pts = np.array(sorted(dist))
    cum = np.cumsum([0.0] + [dist[v] for v in pts])
    cum = np.clip(cum / max(cum[-1], 1.0 - 1e-12), 0.0, 1.0)
    return pts, cum


def _one_side_cdf(side: TiltedPowerSide, sign: float, b: float):
    """F of b + sign Z, Z the jumps of one side with beta <= 0: Ga(coef,
    rate) at beta = 0, and at beta < 0 (gamma jumps) the mixture of
    Ga(-beta n, rate) over n ~ Poisson(int nu)."""
    if side.beta == 0:
        p0, terms = 0.0, [(1.0, side.coef)]
    else:
        w = _poisson_weights(side.moment(0))
        p0, terms = w[0], [(w[n], -side.beta * n) for n in range(1, w.size)]
    # with t = sign (x - b): F = P(Z <= t) for t >= 0 on the positive
    # side, and P(Z >= t) = P(Z > t) for t > 0 mirrored on the negative
    inc, p0 = (gammainc, p0) if sign > 0 else (gammaincc, 0.0)

    def f(x):
        t = sign * (_as_float_array(x) - b)
        on = t >= 0 if sign > 0 else t > 0
        y = side.rate * t[on]
        acc = np.full_like(y, p0)
        for w_n, shape in terms:
            acc += w_n * inc(shape, y)
        out = np.full_like(t, float(sign < 0))
        out[on] = np.clip(acc, 0.0, 1.0)
        return out

    return f


def _point_cdf(spec: IDDSpec, x: float, cfg: QuadratureConfig) -> float:
    """Exact F(x) of a law without a closed cdf: the COS series when a side
    has beta > 0, else Ga(coef+, rate+) - Ga(coef-, rate-) shifted by b."""
    m = spec.measure
    if any(side.beta > 0 for _, side in m.sides()):
        return _cos_cdf(spec, x, cfg)
    pos, neg = m.pos_structure, m.neg_structure
    return _bgd_cdf_scalar(x - convert_drift(spec, "uncompensated"),
                           pos.coef, pos.rate, neg.coef, neg.rate, cfg)


def _cdf_knots(spec: IDDSpec, lo: float, hi: float, n_knots: int,
               cfg: QuadratureConfig) -> np.ndarray:
    """F at the n_knots equispaced points of [lo, hi] that a CdfTable
    interpolates: one COS pass when a side has beta > 0, else `_point_cdf`
    at each point."""
    if any(side.beta > 0 for _, side in spec.measure.sides()):
        return _cos_cdf_knots(spec, lo, hi, n_knots)
    return np.array([_point_cdf(spec, float(x), cfg)
                     for x in np.linspace(lo, hi, n_knots)])


class CdfTable:
    """Monotone PCHIP fit of F on [lo, hi] through the `_cdf_knots` values
    at equispaced knots, clamped outside."""

    def __init__(self, spec: IDDSpec, cfg: QuadratureConfig, n_knots: int = 2049):
        lo, hi = _cdf_range(spec, cfg)
        knots = np.linspace(lo, hi, n_knots)
        vals = np.clip(_cdf_knots(spec, lo, hi, n_knots, cfg), 0.0, 1.0)
        np.maximum.accumulate(vals, out=vals)
        self.lo, self.hi = lo, hi
        self._interp = PchipInterpolator(knots, vals, extrapolate=False)

    def __call__(self, x):
        x = _as_float_array(x)
        out = np.empty_like(x)
        below = x <= self.lo
        above = x >= self.hi
        mid = ~(below | above)
        out[below] = 0.0
        out[above] = 1.0
        if np.any(mid):
            out[mid] = self._interp(x[mid])
        return out


def _cdf_range(spec: IDDSpec, cfg: QuadratureConfig) -> Tuple[float, float]:
    m = spec.mean(cfg)
    sd = spec.std(cfg)
    left, right = spec.tail_rates()
    lo = m - max(30.0 * sd, 0.0 if not math.isfinite(left) else 50.0 / left)
    hi = m + max(30.0 * sd, 0.0 if not math.isfinite(right) else 50.0 / right)
    return lo, hi


@lru_cache(maxsize=32)
def _cdf_table(spec: IDDSpec, cfg: QuadratureConfig) -> CdfTable:
    return CdfTable(spec, cfg)


# -- Poisson -----------------------------------------------------------------


@dataclass(frozen=True)
class Poisson(IDDSpec):
    lam: float
    family: ClassVar[str] = "poisson"
    _scaled: ClassVar[Tuple[str, ...]] = ("lam",)

    def __post_init__(self):
        _require(self.lam >= 0, "poisson intensity lam must be nonnegative")

    @cached_property
    def measure(self) -> LevyMeasure:
        if self.lam == 0:
            return LevyMeasure.atomic(())
        return LevyMeasure.atomic(((1.0, self.lam),))

    def _closed_cdf(self):
        # exact for every lam; the lattice would sum O(lam) jump counts
        def f(x):
            x = _as_float_array(x)
            n = np.floor(np.maximum(x, 0.0))
            return np.where(x >= 0, gammaincc(n + 1.0, self.lam), 0.0)

        return f


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
    _scaled: ClassVar[Tuple[str, ...]] = ("rate",)

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
    _scaled: ClassVar[Tuple[str, ...]] = ("a",)

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
    _scaled: ClassVar[Tuple[str, ...]] = ("alpha",)

    def __post_init__(self):
        _require(self.alpha >= 0, "IG coefficient alpha must be nonnegative")
        _require(self.lam > 0, "IG tilt lam must be strictly positive")

    @cached_property
    def measure(self) -> LevyMeasure:
        return LevyMeasure.from_tilted(pos=TiltedPowerSide(self.alpha, 0.5, self.lam))

    def _ig_params(self, s=1.0):
        """(mean, shape) of X^{*s}, elementwise for an array s."""
        m = s * self.alpha * math.sqrt(math.pi / self.lam)
        shape = 2.0 * math.pi * (s * self.alpha) ** 2
        return m, shape

    def sample_conv(self, rng, s):
        # numpy's Wald sampler: one variate per draw, where the derived
        # sampler would sum several tempered-stable pieces
        s = _as_float_array(s)
        out = np.zeros_like(s)
        nz = s * self.alpha > 0
        out[nz] = rng.wald(*self._ig_params(s[nz]))
        return out

    def _closed_cdf(self):
        if self.alpha == 0:
            return None  # the point mass at 0, from the triplet
        m, shape = self._ig_params()

        def f(x):
            x = _as_float_array(x)
            out = np.zeros_like(x)
            ok = x > 0
            if np.any(ok):
                xs = x[ok]
                r = np.sqrt(shape / xs)
                term1 = ndtr(r * (xs / m - 1.0))
                # e^{2L/m} Phi(-r (x/m + 1)) in log space to dodge overflow
                term2 = np.exp(2.0 * shape / m + log_ndtr(-r * (xs / m + 1.0)))
                out[ok] = np.clip(term1 + term2, 0.0, 1.0)
            return out

        return f


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

    def conv_power(self, s: float) -> "VGD":
        self._check_s(s)
        return VGD(self.mu0 * s, s, 1.0 / self.delta, 1.0 / self.delta)

    def _closed_cdf(self):
        mu0, delta = self.mu0, self.delta

        def f(x):
            z = (_as_float_array(x) - mu0) / delta
            return np.where(z >= 0, 1.0 - 0.5 * np.exp(-np.abs(z)),
                            0.5 * np.exp(-np.abs(z)))

        return f


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

    def conv_power(self, s: float) -> "BGD":
        self._check_s(s)
        return BGD(s, self.a, s, self.b)

    def _closed_cdf(self):
        a, b = self.a, self.b

        def f(x):
            x = _as_float_array(x)
            return np.where(x >= 0, 1.0 - (b / (a + b)) * np.exp(-a * np.abs(x)),
                            (a / (a + b)) * np.exp(-b * np.abs(x)))

        return f


# -- bilateral gamma family ----------------------------------------------------


def _bgd_cdf_scalar(x: float, ap: float, lp: float, an: float, ln_: float,
                    cfg: QuadratureConfig) -> float:
    """P(Ga(ap,lp) - Ga(an,ln) <= x) by conditioning on the negative part.

    The characteristic function decays only polynomially (|phi| ~ |t|^-(ap+an)),
    so inversion integrals truncate badly; this nonoscillatory form costs one
    well-behaved quadrature per point instead.
    """
    log_norm = an * math.log(ln_) - gammaln(an)

    def integrand(v):
        if x + v <= 0:
            return 0.0
        fa = math.exp(log_norm + (an - 1.0) * math.log(v) - ln_ * v) if v > 0 else (
            0.0 if an > 1 else np.inf)
        return float(gammainc(ap, lp * (x + v))) * fa

    lo = max(0.0, -x)
    mid = lo + 4.0 / ln_
    out1 = integrate.quad(integrand, lo, mid, epsabs=1e-12, epsrel=1e-10,
                          limit=cfg.max_subdivisions, full_output=1)
    out2 = integrate.quad(integrand, mid, np.inf, epsabs=1e-12, epsrel=1e-10,
                          limit=cfg.max_subdivisions, full_output=1)
    for out in (out1, out2):
        if len(out) > 3:
            raise NonConvergence("bilateral-gamma cdf quadrature failed: "
                                 + out[3].strip(), value=out[0],
                                 error_estimate=out[1])
    return min(max(out1[0] + out2[0], 0.0), 1.0)


@dataclass(frozen=True)
class BGD(IDDSpec):
    """Bilateral gamma: Ga(alpha_pos, lam_pos) - Ga(alpha_neg, lam_neg)."""

    alpha_pos: float
    lam_pos: float
    alpha_neg: float
    lam_neg: float
    family: ClassVar[str] = "bgd"
    _scaled: ClassVar[Tuple[str, ...]] = ("alpha_pos", "alpha_neg")

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
    _scaled: ClassVar[Tuple[str, ...]] = ("mu0", "alpha")

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
        _require(self.r > 0, "r must be strictly positive")


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

# Pieces drawn per round of `_tempered_sums`: its arrays stay this long
# whatever the coefficients and the number of entries.
_PIECE_CHUNK = 1 << 13


def _open_unit(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill `out` with uniforms on the open interval (0, 1). `rng.random`
    returns multiples of 2^-53 in [0, 1); adding 2^-55 moves 0 off the lower
    end, and at the top it rounds back to 1 - 2^-53."""
    rng.random(out=out)
    out += 2.0**-55
    return out


def _tempered_sums(rng: np.random.Generator, s: np.ndarray, beta: float,
                   pos: Tuple[float, float],
                   neg: Tuple[float, float]) -> np.ndarray:
    """Exact draws of P_i - N_i, where P_i and N_i are the (uncompensated)
    jump sums of the Lévy densities coef s_i u^{-1-beta} e^{-rate u}, u > 0,
    for (coef, rate) = pos and neg, 0 < beta < 1.

    Each side of entry i is a sum of k_i = ceil(m_i) independent pieces,
    m_i = coef s_i |Gamma(-beta)| rate^beta. A piece is the positive
    beta-stable variate of Lévy density (coef s_i / k_i) u^{-1-beta},
    (coef s_i |Gamma(-beta)| / k_i)^{1/beta} S with S from Kanter's
    representation, kept when an independent Exp(1) is at least rate times
    it: a kept piece is exactly exponentially tilted, and a piece is kept
    with probability e^{-m_i / k_i} >= e^{-1} (Kawai & Masuda 2011).
    Rejected pieces are drawn again until none is left. The work is
    proportional to the total mass, so it grows like |Gamma(-beta)| ~ 1/beta
    as beta -> 0 (and like 1/(1 - beta) as beta -> 1).
    """
    n = s.size
    rates = np.array([pos[1], neg[1]])
    mass = (np.array([pos[0], neg[0]])[:, None] * -gamma_fn(-beta)
            * rates[:, None] ** beta * s).ravel()
    k = np.ceil(mass)
    # log(rate * piece) = log(m/k)/beta + log S (m/k = 1 for no pieces)
    log_scale = np.log(np.divide(mass, k, out=np.ones_like(mass),
                                 where=k > 0)) / beta
    # slot j (side j // n, entry j % n) owns pieces begins[j]..ends[j] - 1
    ends = np.cumsum(k.astype(np.int64))
    begins = ends - k.astype(np.int64)
    n_pieces = int(ends[-1]) if n else 0
    # Kanter: S = [sin(beta U)/sin U] [sin((1-beta) U)/(sin U E)]^power
    power = (1.0 - beta) / beta
    kanter = np.array([1.0, -1.0 / beta, power])
    half_angles = 0.5 * np.pi * np.array([[beta], [1.0], [1.0 - beta]])
    sums = np.zeros(2 * n)
    # the rounds share their work arrays: arrays of this size allocated
    # afresh would be paged in anew every round
    size = 3 * min(_PIECE_CHUNK, n_pieces)
    v_buf, x_buf, y_buf = np.empty((3, size))
    pending = np.empty(0, dtype=np.intp)
    start = 0
    # a piece below the smallest double is 0 to working precision
    with np.errstate(under="ignore"):
        while pending.size or start < n_pieces:
            slots = pending
            if start < n_pieces:  # top the round up with fresh pieces
                stop = min(n_pieces, start + _PIECE_CHUNK - pending.size)
                first, last = np.searchsorted(ends, (start, stop - 1),
                                              side="right")
                seg = slice(first, last + 1)
                slots = np.concatenate([pending, np.repeat(
                    np.arange(first, last + 1), np.minimum(ends[seg], stop)
                    - np.maximum(begins[seg], start))])
                start = stop
            v, x, y = (buf[:3 * slots.size].reshape(3, slots.size)
                       for buf in (v_buf, x_buf, y_buf))
            _open_unit(rng, v)
            # with tau = tan(a/2) at the angles a = beta U, U, (1 - beta) U
            # for U = pi v[0], tau + 1/tau = 2/sin(a); log S weights the logs
            # of the three by -kanter, whose sum 0 cancels the 2s
            np.tan(np.multiply(half_angles, v[0], out=x), out=x)
            x += np.divide(1.0, x, out=y)
            np.log(x, out=x)
            # log E and log E' of the exponentials -log v[1] and -log v[2]
            log_e = np.log(v[1:], out=v[1:])
            np.log(np.negative(log_e, out=log_e), out=log_e)
            t = log_scale[slots] - power * log_e[0] - kanter @ x
            keep = t <= log_e[1]
            # capped so that rejected pieces, weighted 0, cannot overflow;
            # binned over the slots of this round only
            low = slots.min()
            kept = np.bincount(slots - low,
                               np.exp(np.minimum(t, log_e[1])) * keep)
            sums[low:low + kept.size] += kept
            pending = slots[~keep]
    return sums[:n] / rates[0] - sums[n:] / rates[1]


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
    _scaled: ClassVar[Tuple[str, ...]] = ("alpha",)

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
    _scaled: ClassVar[Tuple[str, ...]] = ("mu", "alpha_pos", "alpha_neg")
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


def _cos_cdf(spec: IDDSpec, x: float, cfg: QuadratureConfig) -> float:
    """The series at one point; 0 below and 1 above the table range."""
    lo, hi = _cdf_range(spec, cfg)
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    theta = math.pi * (x - lo) / (hi - lo)
    val = (x - lo) / (hi - lo) + sum(float(np.dot(c, np.sin(k * theta)))
                                     for k, c in _cos_terms(spec, lo, hi))
    return min(max(val, 0.0), 1.0)


def _cos_cdf_knots(spec: IDDSpec, lo: float, hi: float,
                   n_knots: int) -> np.ndarray:
    """The series at the n_knots equispaced knots of [lo, hi] in one DST-I.

    At knot j of m = n_knots - 1 intervals the k-th sine is sin(pi k j/m).
    It depends on k only through r = k mod 2m and equals -sin(pi (2m-r) j/m)
    for r > m, so the terms fold exactly into bins 1..m-1 (bins 0 and m
    vanish at every knot).
    """
    m = n_knots - 1
    fold = np.zeros(m + 1)
    for k, c in _cos_terms(spec, lo, hi):
        r = k % (2 * m)
        flip = r > m
        fold += np.bincount(np.where(flip, 2 * m - r, r),
                            weights=np.where(flip, -c, c), minlength=m + 1)
    vals = np.linspace(0.0, 1.0, n_knots)
    vals[1:m] += 0.5 * dst(fold[1:m], type=1)
    return vals


# -- conversions and registry ---------------------------------------------------


def convert_drift(spec: IDDSpec, to: str,
                  cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """The drift constant of `spec` in the requested convention.

    compensated drift = E(X); uncompensated drift = E(X) - int u nu(du).
    Both exist for every catalog family (jumps have finite first moment).
    """
    if to not in ("compensated", "uncompensated"):
        raise InvalidParams(f"unknown drift convention {to!r}")
    if to == spec.drift_convention:
        return spec.drift0
    jump_mean = spec.measure.moment(1, cfg)
    if to == "compensated":
        return spec.drift0 + jump_mean
    return spec.drift0 - jump_mean


def mean_levy(spec: IDDSpec, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """E(X) recomputed from the Lévy triplet: drift0 plus (for uncompensated
    families) int u nu(du) evaluated by quadrature, not from the family's
    closed form. Used for representation cross-checks."""
    if spec.drift_convention == "compensated":
        return spec.drift0
    meas = spec.measure
    method = "auto" if meas.is_atomic else "quad"
    return spec.drift0 + meas.moment(1, cfg, method=method)


FAMILIES = {
    cls.family: cls
    for cls in (Poisson, CompoundPoisson, Gamma, InverseGaussian, Laplace,
                TwoSidedExp, BGD, VGD, CGMY, GTSD)
}


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
                params["jumps"] = AtomicJumps(
                    tuple((float(l), float(p)) for l, p in atoms))
            elif kind == "gamma":
                params["jumps"] = GammaJumps(float(jumps.pop("a")),
                                             float(jumps.pop("b")))
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
    got = set(params)
    if got != want:
        missing, extra = sorted(want - got), sorted(got - want)
        bits = []
        if missing:
            bits.append(f"missing {missing}")
        if extra:
            bits.append(f"unexpected {extra}")
        raise ValidationError(f"{family}: {'; '.join(bits)}; expected fields "
                              f"{sorted(want)}")
    try:
        coerced = {k: (v if k == "jumps" else float(v)) for k, v in params.items()}
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{family}: non-numeric parameter ({exc})") from None
    try:
        return cls(**coerced)
    except InvalidParams as exc:
        raise ValidationError(f"{family}: {exc}") from None
