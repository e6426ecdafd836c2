"""The registry's two descriptions of each function: the hand-coded
callables f, d1, d2 and the exponential-polynomial terms."""

import numpy as np
import pytest

from levy_stein.errors import ValidationError
from levy_stein.functions import (G_REGISTRY, W_REGISTRY, antiderivative,
                                  derivative, get_function, make_exp_tilt,
                                  make_shift, square_of, squared)
from levy_stein.levy_core import eval_terms

ENTRIES = [get_function(name) for name in
           ("one", "id", "square", "sin", "gauss", "log1psq")] + [
    get_function("exp_tilt", kappa=0.5), make_exp_tilt(-0.7),
    get_function("shift", c=1.5), make_shift(0.0)]

# g' as polynomial coefficients, lowest order first (None unless g is a
# polynomial), and tilt, as they were written out by hand before the terms
HAND = {
    "one": ((0.0,), 0.0),
    "id": ((1.0,), 0.0),
    "square": ((0.0, 2.0), 0.0),
    "sin": (None, 0.0),
    "gauss": (None, 0.0),
    "log1psq": (None, 0.0),
    "exp_tilt(0.5)": (None, 0.5),
    "exp_tilt(-0.7)": (None, -0.7),
    "shift(1.5)": ((1.0,), 0.0),
    "shift(0)": ((1.0,), 0.0),
}
NO_TERMS = ("gauss", "log1psq")


def test_every_registry_name_is_covered():
    names = {g.name.split("(")[0] for g in ENTRIES}
    assert names == set(G_REGISTRY) | set(W_REGISTRY)


@pytest.mark.parametrize("g", ENTRIES, ids=lambda g: g.name)
def test_terms_reproduce_callables(g):
    if g.name in NO_TERMS:
        assert g.terms == ()
        return
    x = np.linspace(-3.0, 3.0, 241)
    d1 = derivative(g.terms)
    for terms, fn in ((g.terms, g.f), (d1, g.d1), (derivative(d1), g.d2),
                      # the primitive differentiates back, and (g')^2
                      (derivative(antiderivative(g.terms)), g.f),
                      (squared(d1), lambda x: np.square(g.d1(x)))):
        want = np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape)
        got = eval_terms(terms, x)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0,
                                                               np.abs(want)))


@pytest.mark.parametrize("g", ENTRIES, ids=lambda g: g.name)
def test_square_of_is_g_squared_with_twice_the_tilt(g):
    # the variance oracle's headroom reads the tilt of g^2
    h = square_of(g)
    x = np.linspace(-3.0, 3.0, 241)
    assert np.allclose(h.f(x), np.square(g.f(x)), rtol=1e-14, atol=0.0)
    # d1 and d2 against central differences of f and d1
    step = 1e-5
    for fn, d in ((h.f, h.d1), (h.d1, h.d2)):
        fd = (fn(x + step) - fn(x - step)) / (2.0 * step)
        assert np.allclose(d(x), fd, rtol=1e-7, atol=1e-7)
    assert h.tilt == 2.0 * g.tilt
    if g.terms:
        assert np.allclose(eval_terms(h.terms, x), np.square(g.f(x)),
                           rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("g", ENTRIES, ids=lambda g: g.name)
def test_derived_d1_poly_and_tilt_match_hand_values(g):
    # the derivative terms of a polynomial g spell out g' exactly
    d1_poly, tilt = HAND[g.name]
    polynomial = bool(g.terms) and all(t.z == 0 for t in g.terms)
    assert polynomial == (d1_poly is not None)
    if polynomial:
        got = np.zeros(len(d1_poly))
        for a, p, _ in derivative(g.terms):
            got[p] += a.real
        assert tuple(got) == d1_poly
    assert g.tilt == tilt


@pytest.mark.parametrize("name,params", [
    ("exp_tilt", {}), ("shift", {}),                      # missing
    ("sin", {"kappa": 0.5}), ("one", {"c": 1.0}),         # not taken
    ("shift", {"kappa": 0.5}), ("exp_tilt", {"c": 1.0}),
    ("exp_tilt", {"kappa": 0.5, "c": 1.0}),
    ("cube", {}),                                         # unknown
])
def test_get_function_takes_exactly_its_parameters(name, params):
    with pytest.raises(ValidationError, match=name):
        get_function(name, **params)

