"""Named test functions g and weight functions w.

The estimators only accept functions from this registry: every entry carries
hand-coded first and second derivatives, so there is no numerical
differentiation anywhere in the identity machinery. Parametrized entries
(exp_tilt, shift) are built on lookup from the parameters `PARAMS` declares.

Entries that are exponential polynomials (id, square, sin, exp_tilt, shift,
one) also carry that description as terms a x^p e^{zx}, with complex a and
z and g = Re sum of the terms. The inner integrals against the Lévy measure
are then closed (levy_core.closed_inner), as are the bounds; gauss and
log1psq carry no terms and keep the fixed quadrature rules.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import perm
from typing import Callable, NamedTuple, Tuple

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


def antiderivative(terms) -> Tuple[Term, ...]:
    """Terms of a primitive of sum(terms): x^{p+1} / (p + 1) for x^p, and
    sum_j (-1)^j p! / (p-j)! x^{p-j} e^{zx} / z^{j+1} for x^p e^{zx}."""
    out = []
    for a, p, z in terms:
        if z == 0:
            out.append(Term(a / (p + 1), p + 1, z))
        else:
            out += [Term((-1) ** j * perm(p, j) * a / z ** (j + 1), p - j, z)
                    for j in range(p + 1)]
    return tuple(out)


def squared(terms) -> Tuple[Term, ...]:
    """Terms of (Re D)^2 for D = sum(terms): Re(D D + D conj(D)) / 2,
    gathered by power and exponent."""
    conj = [(complex(a).conjugate(), p, complex(z).conjugate())
            for a, p, z in terms]
    out = defaultdict(complex)
    for a1, p1, z1 in terms:
        for a2, p2, z2 in (*terms, *conj):
            out[p1 + p2, complex(z1 + z2)] += 0.5 * a1 * a2
    return tuple(Term(a, p, z) for (p, z), a in out.items() if a)


@dataclass(frozen=True)
class TestFunction:
    """A smooth scalar function with its first two derivatives.

    terms, when present, describe the same function as an exponential
    polynomial Re sum a x^p e^{zx}; the closed inner integrals, the closed
    bounds and tilt all come from them. f, d1 and d2 stay hand-coded real
    callables, which the sampling routes evaluate.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    terms: Tuple[Term, ...] = ()

    @property
    def tilt(self) -> float:
        """Signed exponential growth rate: the e^{tilt x} envelope, 0 for
        polynomial and bounded functions. Integrability pre-checks compare
        it against Lévy decay rates."""
        return max((t.z.real for t in self.terms), key=abs,
                   default=0.0)


def square_of(g: TestFunction) -> TestFunction:
    """g^2, with its derivatives, and its terms where g has terms."""
    return TestFunction(
        name=f"{g.name}^2",
        f=lambda x: np.square(g.f(x)),
        d1=lambda x: 2.0 * g.f(x) * g.d1(x),
        d2=lambda x: 2.0 * (np.square(g.d1(x)) + g.f(x) * g.d2(x)),
        terms=squared(g.terms),
    )


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
    return TestFunction(
        name=f"exp_tilt({kappa:g})",
        f=lambda x: np.exp(kappa * x),
        d1=lambda x: kappa * np.exp(kappa * x),
        d2=lambda x: kappa * kappa * np.exp(kappa * x),
        terms=(Term(1.0, 0, kappa),),
    )


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

_MADE = {"exp_tilt": make_exp_tilt, "shift": make_shift}

# the parameters each registry function takes: exp_tilt its kappa, shift
# its c, the fixed functions none
PARAMS = {**{name: () for name in _FIXED}, "exp_tilt": ("kappa",),
          "shift": ("c",)}


def get_function(name: str, **params: float) -> TestFunction:
    """Look up a registry function by name, with exactly the parameters
    `PARAMS` declares for it: exp_tilt takes kappa, shift takes c, the
    others take none. Unknown names, missing parameters and parameters the
    function does not take are rejected, so a spec cannot smuggle in an
    arbitrary expression or a parameter that sets nothing.
    """
    if name not in PARAMS:
        raise ValidationError(
            f"unknown function {name!r}; known names: "
            f"{', '.join(sorted(PARAMS))}")
    takes = PARAMS[name]
    if sorted(params) != sorted(takes):
        raise ValidationError(
            f"{name} takes {list(takes) or 'no parameter'}; "
            f"got {sorted(params)}")
    return _MADE[name](**params) if takes else _FIXED[name]
