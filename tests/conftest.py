"""Shared helpers: MC configs small enough for a unit-test budget, and
assertion helpers for estimator-vs-truth comparisons."""

import numpy as np
import pytest

from levy_stein import MCConfig


@pytest.fixture
def mc_small():
    # for smoke-level agreement checks
    return MCConfig(n_samples=20_000, seed=1234, batch=5_000)


@pytest.fixture
def mc_medium():
    return MCConfig(n_samples=100_000, seed=51, batch=20_000)


@pytest.fixture
def sample_spy(monkeypatch):
    """spy(cls) patches cls.sample to record every array it returns, in
    call order, and returns the list it records into."""
    def install(cls):
        draws = []
        real = cls.sample

        def sample(self, rng, size):
            x = real(self, rng, size)
            draws.append(x)
            return x

        monkeypatch.setattr(cls, "sample", sample)
        return draws

    return install


def assert_within_se(est, truth, k=4.0, floor=0.0, label=""):
    """|est.value - truth| <= k * SE + floor, with a readable message."""
    err = abs(est.value - truth)
    tol = k * est.std_error + floor
    assert err <= tol, (
        f"{label or 'estimate'} {est.value} vs truth {truth}: "
        f"|diff| {err:.3g} > {k}*SE+{floor:.1g} = {tol:.3g}")


def assert_agree(a, b, k=4.0, floor=0.0, label=""):
    """Two independent estimates agree within k * joint SE."""
    se = float(np.hypot(a.std_error, b.std_error))
    err = abs(a.value - b.value)
    tol = k * se + floor
    assert err <= tol, (
        f"{label or 'estimates'} {a.value} vs {b.value}: "
        f"|diff| {err:.3g} > {k}*jointSE+{floor:.1g} = {tol:.3g}")


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)
