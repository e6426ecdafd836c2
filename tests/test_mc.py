"""Monte Carlo plumbing: accumulators, batching, determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levy_stein import InvalidParams, ZeroDenominator
from levy_stein.mc import (
    BOUND,
    DENOMINATOR,
    ESTIMATE,
    ORACLE,
    BivariateWelford,
    MCConfig,
    MCEstimate,
    Welford,
    batch_sizes,
    combine_se,
    mc_cov,
    mc_mean,
    mc_ratio,
    mc_variance,
    substreams,
)

from conftest import assert_within_se


# -- configs and estimates -----------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"n_samples": 999},
    {"n_samples": 10_000, "batch": 0},
    {"n_samples": 10_000, "seed": -1},
    {"n_samples": 10_000, "seed": 2**64},
])
def test_mcconfig_rejects(kwargs):
    with pytest.raises(InvalidParams):
        MCConfig(**kwargs)


def test_mcestimate_rejects_negative_se():
    with pytest.raises(InvalidParams):
        MCEstimate(value=1.0, std_error=-0.1, n=100)


@pytest.mark.parametrize("value, se, want", [
    (0.0, 0.0, 0.0),
    (1.0, 0.0, math.inf),
    (3.0, 1.5, 2.0),
])
def test_mcestimate_z(value, se, want):
    assert MCEstimate(value=value, std_error=se, n=10).z == want


# -- batching -------------------------------------------------------------------


@pytest.mark.parametrize("n, batch", [
    (10_000, 100_000),   # cap above n: subdivision kicks in
    (10_000, 1_000),
    (123_457, 10_000),   # ragged tail chunk
    (1_000, 1),
])
def test_batch_sizes_partition(n, batch):
    cfg = MCConfig(n_samples=n, seed=0, batch=batch)
    sizes = list(batch_sizes(cfg))
    assert sum(sizes) == n
    assert all(1 <= m <= batch for m in sizes)
    # the cap never collapses the run into too few chunks
    assert len(sizes) >= min(8, n)


def test_substreams_match_batches_and_are_independent():
    cfg = MCConfig(n_samples=40_000, seed=99, batch=10_000)
    gens = list(substreams(cfg))
    assert len(gens) == len(list(batch_sizes(cfg)))
    draws = [g.standard_normal() for g in gens]
    assert len(set(draws)) == len(draws)


def test_substreams_deterministic():
    cfg = MCConfig(n_samples=10_000, seed=7, batch=2_000)
    a = [g.standard_normal(3).tolist() for g in substreams(cfg)]
    b = [g.standard_normal(3).tolist() for g in substreams(cfg)]
    assert a == b
    c = [g.standard_normal(3).tolist()
         for g in substreams(MCConfig(n_samples=10_000, seed=8, batch=2_000))]
    assert a != c


def test_roles_draw_from_distinct_streams():
    cfg = MCConfig(n_samples=10_000, seed=7, batch=2_000)

    def first_batch(c, role):
        return tuple(next(substreams(c, role)).random(4))

    roles = (ESTIMATE, ORACLE, DENOMINATOR, BOUND)
    this_seed = [first_batch(cfg, r) for r in roles]
    next_seed = [first_batch(replace(cfg, seed=8), r) for r in roles]
    assert len(set(this_seed + next_seed)) == 2 * len(roles)
    # the estimate keeps the plain children of SeedSequence(seed)
    child = np.random.SeedSequence(7).spawn(1)[0]
    assert this_seed[0] == tuple(
        np.random.Generator(np.random.Philox(child)).random(4))


# -- accumulators ---------------------------------------------------------------


def test_welford_matches_numpy():
    rng = np.random.default_rng(0)
    x = rng.gamma(2.0, 1.5, size=10_001)
    acc = Welford()
    for chunk in np.array_split(x, 7):
        acc.add_batch(chunk)
    assert acc.n == x.size
    assert abs(acc.mean - x.mean()) < 1e-12
    assert abs(acc.variance - np.var(x, ddof=1)) < 1e-10
    est = acc.estimate()
    assert abs(est.std_error - np.std(x, ddof=1) / math.sqrt(x.size)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=60),
       st.lists(st.floats(-50, 50), min_size=2, max_size=60))
def test_welford_merge_matches_pooled(xs, ys):
    # merge(A, B) must equal accumulating the concatenation
    a, b, both = Welford(), Welford(), Welford()
    a.add_batch(np.array(xs))
    b.add_batch(np.array(ys))
    both.add_batch(np.array(xs + ys))
    a.merge(b)
    assert a.n == both.n
    assert abs(a.mean - both.mean) < 1e-9 * (1 + abs(both.mean))
    assert abs(a.variance - both.variance) < 1e-8 * (1 + both.variance)


def test_welford_merge_empty_is_noop():
    acc = Welford()
    acc.add_batch(np.array([1.0, 2.0, 3.0]))
    acc.merge(Welford())
    acc.add_batch(np.array([]))
    assert acc.n == 3 and abs(acc.mean - 2.0) < 1e-15


def test_bivariate_welford_matches_numpy():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(5_000)
    y = 0.3 * x + rng.standard_normal(5_000)
    acc = BivariateWelford()
    for cx, cy in zip(np.array_split(x, 5), np.array_split(y, 5)):
        acc.add_batch(cx, cy)
    assert abs(acc.covariance - np.cov(x, y, ddof=1)[0, 1]) < 1e-12


# -- estimators -----------------------------------------------------------------


def test_mc_mean_normal(mc_medium):
    est = mc_mean(lambda rng, m: 3.0 + rng.standard_normal(m), mc_medium)
    assert est.n == mc_medium.n_samples
    assert_within_se(est, 3.0, label="mc_mean")
    # SE itself should sit near 1/sqrt(n)
    want_se = 1.0 / math.sqrt(mc_medium.n_samples)
    assert 0.8 * want_se < est.std_error < 1.2 * want_se


def test_mc_mean_deterministic(mc_small):
    f = lambda rng, m: rng.exponential(2.0, m)
    a = mc_mean(f, mc_small)
    b = mc_mean(f, mc_small)
    assert (a.value, a.std_error, a.n) == (b.value, b.std_error, b.n)


def test_mc_cov_linear(mc_medium):
    def batch(rng, m):
        z = rng.standard_normal(m)
        return z, 2.0 * z + rng.standard_normal(m)
    est = mc_cov(batch, mc_medium)
    assert est.std_error > 0
    assert_within_se(est, 2.0, label="mc_cov")


def test_mc_variance(mc_medium):
    est = mc_variance(lambda rng, m: 1.5 * rng.standard_normal(m), mc_medium)
    assert_within_se(est, 2.25, label="mc_variance")


def test_mc_ratio(mc_medium):
    def batch(rng, m):
        x = rng.exponential(3.0, m)
        return x * x, x
    # E[X^2]/E[X] = 18/3 for Exp(mean 3)
    est = mc_ratio(batch, mc_medium)
    assert_within_se(est, 6.0, label="mc_ratio")


def test_mc_ratio_zero_denominator(mc_small):
    with pytest.raises(ZeroDenominator):
        mc_ratio(lambda rng, m: (np.ones(m), np.zeros(m)), mc_small)


def test_combine_se():
    e1 = MCEstimate(value=1.0, std_error=0.3, n=10)
    e2 = MCEstimate(value=2.0, std_error=0.4, n=10)
    assert abs(combine_se(e1, e2) - 0.5) < 1e-15
    assert combine_se(e1) == 0.3
