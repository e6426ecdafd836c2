"""Shared helpers: MC configs small enough for a unit-test budget, and
assertion helpers for estimator-vs-truth comparisons."""

import numpy as np
import pytest

from levy_stein import MCConfig, make_spec

# the base laws of the benchmark's small-sweep workload (perfbench/specs.py
# BASE), one per catalog entry, as (family, params) documents
SMALL_SWEEP = {
    "poisson": ("poisson", {"lam": 2.0}),
    "cp_gamma": ("compound_poisson", {
        "rate": 1.5, "jumps": {"kind": "gamma", "a": 2.0, "b": 3.0}}),
    "cp_atoms": ("compound_poisson", {
        "rate": 1.2,
        "jumps": {"kind": "atoms", "atoms": [[1.0, 0.6], [2.0, 0.4]]}}),
    "gamma": ("gamma", {"a": 2.0, "b": 1.5}),
    "inverse_gaussian": ("inverse_gaussian", {"alpha": 1.0, "lam": 2.0}),
    "laplace": ("laplace", {"mu0": 0.5, "delta": 1.0}),
    "two_sided_exp": ("two_sided_exp", {"a": 1.0, "b": 3.0}),
    "bgd": ("bgd", {"alpha_pos": 2.0, "lam_pos": 3.0, "alpha_neg": 1.0,
                    "lam_neg": 4.0}),
    "vgd": ("vgd", {"mu0": 0.2, "alpha": 1.5, "lam_pos": 3.0,
                    "lam_neg": 4.0}),
    "cgmy": ("cgmy", {"alpha": 1.0, "beta": 0.5, "lam_pos": 2.0,
                      "lam_neg": 3.0}),
    "gtsd": ("gtsd", {"mu": 0.5, "beta": 0.5, "alpha_pos": 1.0,
                      "lam_pos": 2.0, "alpha_neg": 0.5, "lam_neg": 3.0}),
}
SMALL_SWEEP_SPECS = {entry: make_spec(*doc)
                     for entry, doc in SMALL_SWEEP.items()}


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
