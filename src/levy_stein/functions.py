"""Named test functions g and weight functions w.

The estimators only accept functions from this registry: every entry carries
hand-coded first and second derivatives, so there is no numerical
differentiation anywhere in the identity machinery. Parametrized entries
(exp_tilt, shift) are built on lookup.

Entries that are exponential polynomials (id, square, sin, exp_tilt, shift,
one) also carry that description as terms a x^p e^{zx}, with complex a and
z and g = Re sum of the terms. The inner integrals against the Lévy measure
are then closed (levy_core.closed_inner); gauss and log1psq carry no terms
and keep the fixed quadrature rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import ValidationError


class Term(NamedTuple):
    """a x^p e^{zx}; a function is the real part of a sum of terms."""

    a: complex
    p: int
    z: complex


def derivative(terms) -> Tuple[Term, ...]:
    """Terms of d/dx of sum(terms): a p x^{p-1} e^{zx} + a z x^p e^{zx}."""
    out = []
    for a, p, z in terms:
        if p:
            out.append(Term(a * p, p - 1, z))
        if z:
            out.append(Term(a * z, p, z))
    return tuple(out)


@dataclass(frozen=True)
class TestFunction:
    """A smooth scalar function with its first two derivatives.

    terms, when present, describe the same function as an exponential
    polynomial Re sum a x^p e^{zx}; the closed inner integrals, the closed
    variance brackets, d1_poly and tilt all come from them. f, d1 and d2
    stay hand-coded real callables, which the sampling routes evaluate.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    terms: Tuple[Term, ...] = ()

    @property
    def d1_poly(self) -> Optional[Tuple[float, ...]]:
        """Coefficients of g' as a polynomial, lowest order first, when g is
        a polynomial (every term has z = 0); None otherwise."""
        if not self.terms or any(t.z != 0 for t in self.terms):
            return None
        coeffs = [0.0] * max(1, max(t.p for t in self.terms))
        for a, p, _ in derivative(self.terms):
            coeffs[p] += a.real
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs.pop()
        return tuple(coeffs)

    @property
    def tilt(self) -> float:
        """Signed exponential growth rate: the e^{tilt x} envelope, 0 for
        polynomial and bounded functions. Quadrature rules stretch their
        tails by it, and integrability pre-checks compare it against Lévy
        decay rates."""
        return max((t.z.real for t in self.terms), key=abs,
                   default=0.0)


def _gauss(x):
    return np.exp(-np.square(x))


def _gauss_d1(x):
    return -2.0 * x * np.exp(-np.square(x))


def _gauss_d2(x):
    return (4.0 * np.square(x) - 2.0) * np.exp(-np.square(x))


def _log1psq(x):
    return np.log1p(np.square(x))


def _log1psq_d1(x):
    return 2.0 * x / (1.0 + np.square(x))


def _log1psq_d2(x):
    x2 = np.square(x)
    return 2.0 * (1.0 - x2) / np.square(1.0 + x2)


def make_exp_tilt(kappa: float) -> TestFunction:
    """w(x) = e^{kappa x}; the Esscher weight."""
    kappa = float(kappa)

    def f(x):
        return np.exp(kappa * x)

    def d1(x):
        return kappa * np.exp(kappa * x)

    def d2(x):
        return kappa * kappa * np.exp(kappa * x)

    return TestFunction(name=f"exp_tilt({kappa:g})", f=f, d1=d1, d2=d2,
                        terms=(Term(1.0, 0, kappa),))


def make_shift(c: float) -> TestFunction:
    """w(x) = x + c, nonnegative on supports bounded below by -c."""
    c = float(c)
    return TestFunction(
        name=f"shift({c:g})",
        f=lambda x: x + c,
        d1=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        d2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        terms=(Term(c, 0, 0.0), Term(1.0, 1, 0.0)),
    )


ONE = TestFunction(
    name="one",
    f=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    d1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    d2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    terms=(Term(1.0, 0, 0.0),),
)

IDENTITY = TestFunction(
    name="id",
    f=lambda x: np.asarray(x, dtype=float),
    d1=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    d2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    terms=(Term(1.0, 1, 0.0),),
)

SQUARE = TestFunction(
    name="square",
    f=lambda x: np.square(x),
    d1=lambda x: 2.0 * np.asarray(x, dtype=float),
    d2=lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)),
    terms=(Term(1.0, 2, 0.0),),
)

# sin x = Re(-i e^{ix})
SIN = TestFunction(name="sin", f=np.sin, d1=np.cos, d2=lambda x: -np.sin(x),
                   terms=(Term(-1j, 0, 1j),))

GAUSS = TestFunction(name="gauss", f=_gauss, d1=_gauss_d1, d2=_gauss_d2)

LOG1PSQ = TestFunction(name="log1psq", f=_log1psq, d1=_log1psq_d1, d2=_log1psq_d2)

# g registry: functions admissible in verify-identity / bounds / stein tasks.
G_REGISTRY = ("id", "square", "sin", "gauss", "exp_tilt", "log1psq")

# w registry: weights admissible in premium tasks.
W_REGISTRY = ("one", "shift", "exp_tilt")

_FIXED = {
    "one": ONE,
    "id": IDENTITY,
    "square": SQUARE,
    "sin": SIN,
    "gauss": GAUSS,
    "log1psq": LOG1PSQ,
}


def get_function(name: str, kappa: Optional[float] = None,
                 c: Optional[float] = None) -> TestFunction:
    """Look up a registry function by name.

    exp_tilt requires kappa; shift requires c. Unknown names are rejected so
    spec files cannot smuggle in arbitrary expressions.
    """
    if name == "exp_tilt":
        if kappa is None:
            raise ValidationError("exp_tilt requires a 'kappa' parameter")
        return make_exp_tilt(kappa)
    if name == "shift":
        if c is None:
            raise ValidationError("shift requires a 'c' parameter")
        return make_shift(c)
    try:
        return _FIXED[name]
    except KeyError:
        known = sorted(set(G_REGISTRY) | set(W_REGISTRY))
        raise ValidationError(
            f"unknown function {name!r}; known names: {', '.join(known)}"
        ) from None
