"""Reference values for the benchmark's checks, computed apart from levy_stein.

Nothing here imports the package. Two independent routes are used:

* Laws with positive support (poisson, compound_poisson, gamma,
  inverse_gaussian) get expectations E[h(X)] from scipy.stats densities by
  adaptive quadrature, or from exact series (Poisson weights, the Panjer
  recursion for integer-valued compound Poisson jumps, the Poisson mixture
  of gamma laws for gamma jumps).
* Every family also has a Lévy-Khintchine description written out here
  (drift, tilted-power sides c |u|^{-1-b} e^{-r|u|}, atoms). Its cumulant
  function K(theta) = log E[e^{theta X}] is evaluated at real and at
  imaginary theta, which gives closed cumulants, Esscher and weighted
  premiums with exponential weights, and E[X^n sin X] through the
  characteristic function. Two-sided and tempered laws use this route.

The Gini reference is (2/mu) Cov(X, F(X)) with the right-continuous cdf F.
For laws without atoms it equals E|X - X'| / (2 mu), and E|X - X'| comes
from the characteristic function as (2/pi) int_0^inf (1 - |phi(t)|^2)/t^2 dt.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import integrate, special, stats

POSITIVE_FAMILIES = ("poisson", "compound_poisson", "gamma",
                     "inverse_gaussian")

# relative tolerance of every adaptive quadrature below; far under any
# Monte Carlo standard error the checks compare against
_QUAD_REL = 1e-11


class NoReference(ValueError):
    """A reference value that this module cannot compute."""


# -- Lévy-Khintchine description ------------------------------------------


class Law:
    """X = drift + (jumps of nu), with nu made of tilted-power sides and atoms.

    A side is (sign, coef, beta, rate): density coef |u|^{-1-beta}
    e^{-rate |u|} on the half-line of the given sign. The drift is the
    uncompensated one, so K(theta) = drift*theta + int (e^{theta u} - 1) nu(du).
    """

    def __init__(self, drift: float,
                 sides: Sequence[Tuple[int, float, float, float]] = (),
                 atoms: Sequence[Tuple[float, float]] = ()):
        self.drift = float(drift)
        self.sides = [(int(s), float(c), float(b), float(r))
                      for s, c, b, r in sides if c > 0]
        self.atoms = [(float(loc), float(m)) for loc, m in atoms if m > 0]

    def log_mgf(self, theta: complex) -> complex:
        out = self.drift * theta
        for sign, c, beta, rate in self.sides:
            z = rate - sign * theta
            if beta == 0.0:
                out += c * (math.log(rate) - np.log(complex(z)))
            else:
                out += c * special.gamma(-beta) * (
                    complex(z) ** beta - rate ** beta)
        for loc, m in self.atoms:
            out += m * (np.exp(theta * loc) - 1.0)
        return complex(out)

    def tilted_cumulant(self, j: int, theta: complex = 0.0) -> complex:
        """j-th derivative of K at theta: int u^j e^{theta u} nu(du), plus
        the drift when j = 1."""
        out = self.drift if j == 1 else 0.0
        for sign, c, beta, rate in self.sides:
            z = complex(rate - sign * theta)
            out += sign ** j * c * special.gamma(j - beta) * z ** (beta - j)
        for loc, m in self.atoms:
            out += m * loc ** j * np.exp(theta * loc)
        return complex(out)

    def tilted_moments(self, n: int, theta: complex = 0.0) -> List[complex]:
        """E[X^k e^{theta X}] / E[e^{theta X}] for k = 0..n, from the
        cumulant-to-moment recursion m_k = sum C(k-1, i-1) c_i m_{k-i}."""
        cums = [self.tilted_cumulant(j, theta) for j in range(1, n + 1)]
        m = [1.0 + 0j]
        for k in range(1, n + 1):
            m.append(sum(math.comb(k - 1, i - 1) * cums[i - 1] * m[k - i]
                          for i in range(1, k + 1)))
        return m

    def cumulant(self, k: int) -> float:
        return self.tilted_cumulant(k).real

    def mean(self) -> float:
        return self.cumulant(1)

    def raw_moment(self, n: int) -> float:
        return self.tilted_moments(n)[n].real

    def cf(self, t: float) -> complex:
        return np.exp(self.log_mgf(1j * t))

    def xn_exp(self, n: int, theta: complex) -> complex:
        """E[X^n e^{theta X}]."""
        return np.exp(self.log_mgf(theta)) * self.tilted_moments(n, theta)[n]

    @property
    def has_atom(self) -> bool:
        """True when the law of X itself has an atom: a finite Lévy measure."""
        return all(beta < 0 for _, _, beta, _ in self.sides) \
            and bool(self.sides or self.atoms)

    def mean_abs_difference(self) -> float:
        """E|X - X'| for independent copies, by Fourier inversion."""
        def f(t):
            if t == 0.0:
                return 2.0 * self.cumulant(2)
            return (1.0 - math.exp(2.0 * self.log_mgf(1j * t).real)) / t ** 2

        a, _ = integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=_QUAD_REL,
                              limit=500)
        b, _ = integrate.quad(f, 1.0, np.inf, epsabs=0.0, epsrel=1e-10,
                              limit=500)
        return 2.0 / math.pi * (a + b)


def law_of(family: str, p: dict) -> Law:
    """The Lévy-Khintchine description of a catalog family, from the
    parameter conventions of the spec format."""
    if family == "poisson":
        return Law(0.0, atoms=[(1.0, p["lam"])])
    if family == "compound_poisson":
        jumps, rate = p["jumps"], p["rate"]
        if jumps["kind"] == "atoms":
            return Law(0.0, atoms=[(loc, rate * q) for loc, q in jumps["atoms"]])
        a, b = jumps["a"], jumps["b"]
        # rate * Ga(a, b) density = rate b^a / Gamma(a) u^{a-1} e^{-b u}
        coef = rate * math.exp(a * math.log(b) - special.gammaln(a))
        return Law(0.0, sides=[(1, coef, -a, b)])
    if family == "gamma":
        return Law(0.0, sides=[(1, p["a"], 0.0, p["b"])])
    if family == "inverse_gaussian":
        return Law(0.0, sides=[(1, p["alpha"], 0.5, p["lam"])])
    if family == "laplace":
        r = 1.0 / p["delta"]
        return Law(p["mu0"], sides=[(1, 1.0, 0.0, r), (-1, 1.0, 0.0, r)])
    if family == "two_sided_exp":
        return Law(0.0, sides=[(1, 1.0, 0.0, p["a"]), (-1, 1.0, 0.0, p["b"])])
    if family == "bgd":
        return Law(0.0, sides=[(1, p["alpha_pos"], 0.0, p["lam_pos"]),
                               (-1, p["alpha_neg"], 0.0, p["lam_neg"])])
    if family == "vgd":
        return Law(p["mu0"], sides=[(1, p["alpha"], 0.0, p["lam_pos"]),
                                    (-1, p["alpha"], 0.0, p["lam_neg"])])
    if family == "cgmy":
        b = p["beta"]
        return Law(0.0, sides=[(1, p["alpha"], b, p["lam_pos"]),
                               (-1, p["alpha"], b, p["lam_neg"])])
    if family == "gtsd":
        b = p["beta"]
        sides = [(1, p["alpha_pos"], b, p["lam_pos"]),
                 (-1, p["alpha_neg"], b, p["lam_neg"])]
        jump_mean = Law(0.0, sides=sides).mean()
        # compensated family: the mean is mu, so the plain drift is mu - E(jumps)
        return Law(p["mu"] - jump_mean, sides=sides)
    raise NoReference(f"no reference law for family {family!r}")


# -- distribution route for positive-support laws ---------------------------


def _quad_expect(h, pdf, lo=0.0, hi=np.inf) -> float:
    def f(x):
        p = pdf(x)
        # far in the tail h may overflow where the density has underflowed
        return 0.0 if p == 0.0 else float(h(x)) * p

    val, _ = integrate.quad(f, lo, hi, epsabs=0.0, epsrel=_QUAD_REL,
                            limit=500)
    return val


def _lattice_pmf(rate: float, atoms) -> Tuple[np.ndarray, np.ndarray]:
    """Support and pmf of a compound Poisson sum with integer jump sizes,
    by the Panjer recursion p(x) = (rate/x) sum_j j f(j) p(x - j)."""
    f = {}
    for loc, q in atoms:
        if loc != int(loc) or loc <= 0:
            raise NoReference("exact series needs positive integer jumps")
        f[int(loc)] = f.get(int(loc), 0.0) + q
    top = max(f)
    # the sum exceeds top * N, N ~ Poisson(rate), with negligible probability
    x_max = top * _poisson_cap(rate)
    pmf = np.zeros(x_max + 1)
    pmf[0] = math.exp(-rate)
    for x in range(1, x_max + 1):
        pmf[x] = rate / x * sum(j * q * pmf[x - j] for j, q in f.items()
                                if j <= x)
    return np.arange(x_max + 1, dtype=float), pmf


def _poisson_cap(lam: float) -> int:
    """A count beyond which Poisson(lam) has mass far below 1e-18."""
    return int(lam + 20.0 * math.sqrt(lam) + 40)


def _poisson_pmf(lam: float) -> Tuple[np.ndarray, np.ndarray]:
    k = np.arange(_poisson_cap(lam) + 1, dtype=float)
    return k, stats.poisson.pmf(k, lam)


class PositiveDist:
    """E[h(X)] for the positive-support families, apart from the Lévy route."""

    def __init__(self, family: str, p: dict):
        self.family, self.p = family, p
        self.lattice: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if family == "poisson":
            self.lattice = _poisson_pmf(p["lam"])
        elif family == "compound_poisson" and p["jumps"]["kind"] == "atoms":
            self.lattice = _lattice_pmf(p["rate"], p["jumps"]["atoms"])

    def expect(self, h: Callable) -> float:
        if self.lattice is not None:
            k, pmf = self.lattice
            return float(np.dot(np.asarray(h(k), dtype=float), pmf))
        p = self.p
        if self.family == "gamma":
            return _quad_expect(h, stats.gamma(p["a"], scale=1.0 / p["b"]).pdf)
        if self.family == "inverse_gaussian":
            # Lévy density alpha u^{-3/2} e^{-lam u}: IG with mean
            # m = alpha sqrt(pi/lam) and shape L = 2 pi alpha^2
            m = p["alpha"] * math.sqrt(math.pi / p["lam"])
            shape = 2.0 * math.pi * p["alpha"] ** 2
            return _quad_expect(h, stats.invgauss(m / shape, scale=shape).pdf)
        if self.family == "compound_poisson":
            # atom e^{-rate} at 0, then the Poisson mixture of Ga(n a, b)
            rate, a, b = p["rate"], p["jumps"]["a"], p["jumps"]["b"]
            ns = np.arange(1, _poisson_cap(rate) + 1)
            shapes = ns * a
            log_w = (stats.poisson.logpmf(ns, rate) + shapes * math.log(b)
                     - special.gammaln(shapes))

            def pdf(x):
                if x <= 0.0:
                    return 0.0
                return float(np.exp(log_w + (shapes - 1.0) * math.log(x)
                                    - b * x).sum())

            return math.exp(-rate) * float(h(0.0)) + _quad_expect(h, pdf)
        raise NoReference(f"no distribution route for {self.family!r}")


# -- the quantities the reports carry ---------------------------------------


def g_callable(name: str, kappa: Optional[float] = None) -> Callable:
    """The registry functions the workloads use, written out here rather
    than imported."""
    if name == "exp_tilt":
        return lambda x: np.exp(kappa * np.asarray(x, dtype=float))
    return {
        "one": lambda x: np.ones_like(np.asarray(x, dtype=float)),
        "square": np.square,
        "sin": np.sin,
        "log1psq": lambda x: np.log1p(np.square(x)),
    }[name]


class Reference:
    """Reference quantities for one family and parameter set."""

    def __init__(self, family: str, params: dict):
        self.family = family
        self.law = law_of(family, params)
        self.dist = PositiveDist(family, params) \
            if family in POSITIVE_FAMILIES else None

    def expect_xn_g(self, n: int, name: str, kappa=None) -> float:
        """E[X^n g(X)], n >= 0."""
        if self.dist is not None:
            g = g_callable(name, kappa)
            return self.dist.expect(lambda x: np.asarray(x, dtype=float) ** n
                                    * g(x))
        law = self.law
        if name == "sin":
            return law.xn_exp(n, 1j).imag
        if name == "exp_tilt":
            return law.xn_exp(n, kappa).real
        if name == "one":
            return law.raw_moment(n)
        if name == "square":
            return law.raw_moment(n + 2)
        raise NoReference(f"no characteristic-function route for {name!r}")

    def cov_xn_g(self, n: int, name: str, kappa=None) -> float:
        """Cov(X^n, g(X))."""
        return (self.expect_xn_g(n, name, kappa)
                - self.expect_xn_g(n, "one") * self.expect_xn_g(0, name, kappa))

    def var_g(self, name: str, kappa=None) -> float:
        """Var(g(X))."""
        if name == "sin" and self.dist is None:
            # E[sin^2 X] = (1 - E cos 2X) / 2
            law = self.law
            return ((1.0 - law.cf(2.0).real) / 2.0 - law.cf(1.0).imag ** 2)
        if self.dist is not None:
            g = g_callable(name, kappa)
            return (self.dist.expect(lambda x: np.square(g(x)))
                    - self.dist.expect(g) ** 2)
        raise NoReference(f"no variance route for {name!r}")

    def weighted_premium(self, n: int, w: str, kappa=None) -> float:
        """E[X^n w(X)] / E[w(X)]."""
        if w == "exp_tilt" and self.dist is None:
            return self.law.tilted_moments(n, kappa)[n].real
        return self.expect_xn_g(n, w, kappa) / self.expect_xn_g(0, w, kappa)

    def cumulant(self, k: int) -> float:
        return self.law.cumulant(k)

    def esscher(self, kappa: float) -> float:
        """Mean of the Esscher-tilted law, K'(kappa)."""
        return self.law.tilted_cumulant(1, kappa).real

    def modified_variance(self) -> float:
        mu = self.law.mean()
        return mu + self.law.cumulant(2) / mu

    def gini(self) -> float:
        """(2/mu) Cov(X, F(X)) with F the right-continuous cdf."""
        mu = self.law.mean()
        if self.dist is not None and self.dist.lattice is not None:
            k, pmf = self.dist.lattice
            cdf = np.cumsum(pmf)
            cov = float(np.dot(k * cdf, pmf) - mu * np.dot(cdf, pmf))
            return 2.0 * cov / mu
        if self.law.atoms:
            raise NoReference("gini of a non-lattice atomic law")
        # Cov(X, F(X)) = (E[X 1{X=X'}] - mu P(X=X') + E|X-X'|/2) / 2; a
        # finite Lévy measure puts one atom at the drift, mass e^{-nu(R)}
        e_abs = self.law.mean_abs_difference()
        tie_x = tie_p = 0.0
        if self.law.has_atom:
            mass = sum(c * special.gamma(-b) * r ** b
                       for _, c, b, r in self.law.sides)
            tie_p = math.exp(-2.0 * mass)
            tie_x = self.law.drift * tie_p
        cov = (tie_x - mu * tie_p + e_abs / 2.0) / 2.0
        return 2.0 * cov / mu
