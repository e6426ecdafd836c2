"""The registry's two descriptions of each function: the hand-coded
callables f, d1, d2 and the exponential-polynomial terms."""

import numpy as np
import pytest

from levy_stein.functions import (G_REGISTRY, W_REGISTRY, derivative,
                                  get_function, make_exp_tilt, make_shift)
from levy_stein.levy_core import eval_terms

ENTRIES = [get_function(name) for name in
           ("one", "id", "square", "sin", "gauss", "log1psq")] + [
    make_exp_tilt(0.5), make_exp_tilt(-0.7), make_shift(1.5), make_shift(0.0)]

# d1_poly and tilt as they were written out by hand before the terms
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
    for terms, fn in ((g.terms, g.f), (d1, g.d1), (derivative(d1), g.d2)):
        want = np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape)
        got = eval_terms(terms, x)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0,
                                                               np.abs(want)))


@pytest.mark.parametrize("g", ENTRIES, ids=lambda g: g.name)
def test_derived_d1_poly_and_tilt_match_hand_values(g):
    d1_poly, tilt = HAND[g.name]
    assert g.d1_poly == d1_poly
    assert g.tilt == tilt
