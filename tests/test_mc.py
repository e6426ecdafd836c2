"""Monte Carlo plumbing: accumulators, batching, determinism."""

import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levy_stein import (DivergentMoment, Gamma, InvalidParams,
                        ZeroDenominator, mc)
from levy_stein.bounds import cacoullos_bounds
from levy_stein.functions import GAUSS
from levy_stein.mc import (
    BOUND,
    DENOMINATOR,
    ESTIMATE,
    ORACLE,
    MCConfig,
    MCEstimate,
    Moments,
    batch_sizes,
    combine_se,
    mc_cov,
    mc_mean,
    mc_ratio,
    mc_variance,
    substreams,
)

from conftest import assert_within_se, rel_err


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


@pytest.mark.parametrize("field", ["n_samples", "seed", "batch"])
@pytest.mark.parametrize("value", [1.5, 5000.0, True, "5000", None])
def test_mcconfig_rejects_non_integers(field, value):
    # seed=1.5 would run as seed 1, and n_samples=1e5 or batch=100.5 would
    # fail later inside batch_sizes
    with pytest.raises(InvalidParams, match=field):
        MCConfig(**{"n_samples": 10_000, field: value})


@pytest.mark.parametrize("field", ["n_samples", "seed", "batch"])
def test_mcconfig_takes_numpy_integers(field):
    cfg = MCConfig(**{"n_samples": 10_000, field: np.int64(5000)})
    assert getattr(cfg, field) == 5000


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
    (123_457, 10_000),   # n not a multiple of the cap
    (1_001, 100_000),    # one more than 8 chunks of 125
    (1_000, 1),
])
def test_batch_sizes_partition(n, batch):
    cfg = MCConfig(n_samples=n, seed=0, batch=batch)
    sizes = list(batch_sizes(cfg))
    assert sum(sizes) == n
    assert all(1 <= m <= batch for m in sizes)
    # chunk sizes differ by at most one, so no chunk is a runt; the layout
    # fixes which substream draws what, and seeded results depend on it
    assert max(sizes) - min(sizes) <= 1
    size = min(batch, max(1, n // 8))
    assert len(sizes) == -(-n // size)
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
        np.random.Generator(np.random.SFC64(child)).random(4))


# -- accumulators ---------------------------------------------------------------


def test_welford_matches_numpy():
    rng = np.random.default_rng(0)
    x = rng.gamma(2.0, 1.5, size=10_001)
    y = np.sin(x) + rng.standard_normal(x.size)
    for cols in ((x,), (x, y)):
        acc = Moments(len(cols))
        for chunk in zip(*(np.array_split(c, 7) for c in cols)):
            acc.merge(Moments.of(chunk))
        assert acc.n == x.size
        for i, c in enumerate(cols):
            assert abs(acc.mean[i] - c.mean()) < 1e-12
            assert abs(acc.cov(i, i) - np.var(c, ddof=1)) < 1e-10
            est = acc.estimate(acc.mean[i], [float(j == i) for j in
                                             range(len(cols))])
            assert est.value == acc.mean[i] and est.n == x.size
            assert abs(est.std_error
                       - np.std(c, ddof=1) / math.sqrt(x.size)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=60),
       st.lists(st.floats(-50, 50), min_size=2, max_size=60))
def test_welford_merge_matches_pooled(xs, ys):
    # merge(A, B) must equal accumulating the concatenation, for one column
    # and for two (the second column is the cosine of the first)
    for k in (1, 2):
        def moments(v):
            v = np.array(v)
            return Moments.of((v, np.cos(v))[:k])
        a, both = moments(xs), moments(xs + ys)
        a.merge(moments(ys))
        assert a.n == both.n
        for i in range(k):
            assert (abs(a.mean[i] - both.mean[i])
                    < 1e-9 * (1 + abs(both.mean[i])))
        scale = 1 + max(both.cov(i, i) for i in range(k))
        for i in range(k):
            for j in range(k):
                assert abs(a.cov(i, j) - both.cov(i, j)) < 1e-8 * scale
                assert a.comoment[i][j] == a.comoment[j][i]


def test_welford_merge_empty_is_noop():
    for k in (1, 2):
        acc = Moments.of([np.array([1.0, 2.0, 3.0])] * k)
        acc.merge(Moments(k))
        acc.merge(Moments.of([np.array([])] * k))
        assert acc.n == 3
        assert all(abs(mu - 2.0) < 1e-15 for mu in acc.mean)
        assert all(c == 2.0 for row in acc.comoment for c in row)


def test_bivariate_welford_matches_numpy():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(5_000)
    y = 0.3 * x + rng.standard_normal(5_000)
    acc = Moments(2)
    for cx, cy in zip(np.array_split(x, 5), np.array_split(y, 5)):
        acc.merge(Moments.of((cx, cy)))
    want = np.cov(x, y, ddof=1)
    assert abs(acc.cov(0, 1) - want[0, 1]) < 1e-12
    assert acc.cov(1, 0) == acc.cov(0, 1)
    assert abs(acc.cov(1, 1) - want[1, 1]) < 1e-12


class _Unscaled:
    """The accumulator on unscaled columns: numpy means and co-moments of
    each batch, merged by Chan's update in Moments' order of operations."""

    def __init__(self, k):
        self.n, self.mean = 0, [0.0] * k
        self.comoment = [[0.0] * k for _ in range(k)]

    def add(self, cols):
        m, tot = cols[0].size, self.n + cols[0].size
        mu = [float(c.mean()) for c in cols]
        dev = [c - x for c, x in zip(cols, mu)]
        delta = [b - a for a, b in zip(self.mean, mu)]
        for i, di in enumerate(delta):
            for j in range(i, len(delta)):
                self.comoment[i][j] += (float((dev[i] * dev[j]).sum())
                                        + di * delta[j] * self.n * m / tot)
                self.comoment[j][i] = self.comoment[i][j]
            self.mean[i] += di * m / tot
        self.n = tot


def test_scaled_moments_are_bit_identical_where_nothing_underflows():
    # columns from 1e-120 to 1e120 in batches of unequal sizes: every
    # power-of-two scale is exact, so each mean, co-moment, covariance and
    # SE has the bits of the unscaled sums
    rng = np.random.default_rng(5)
    x = rng.gamma(2.0, 1.5, size=9_001)
    cols = (1e-120 * x, np.sin(x), 1e120 * (x - 3.0), 1e-60 * x * x)
    acc, plain = Moments(len(cols)), _Unscaled(len(cols))
    for chunk in zip(*(np.array_split(c, [1000, 1001, 4000, 8000])
                       for c in cols)):
        acc.merge(Moments.of(chunk))
        plain.add(chunk)
    # the column below 2^-256 is scaled up, the others are not
    assert acc.scale == [256, 0, 0, 0]
    assert acc.n == plain.n and acc.mean == plain.mean
    assert acc.comoment == plain.comoment
    for i in range(len(cols)):
        for j in range(len(cols)):
            assert acc.cov(i, j) == plain.comoment[i][j] / (plain.n - 1)
    grad = (2.0, -0.5, 1e-110, 3e115)
    var = sum(gi * gj * (plain.comoment[i][j] / (plain.n - 1))
              for i, gi in enumerate(grad) for j, gj in enumerate(grad))
    assert acc.estimate(1.0, grad).std_error == math.sqrt(var / plain.n)


def test_moments_of_a_column_whose_squares_underflow():
    # the SE of a mean of y 2^-700 is that of y times 2^-700, although
    # every square of y 2^-700 is below the smallest double
    rng = np.random.default_rng(6)
    y = rng.standard_normal(4_000)
    tiny, plain = Moments(2), Moments(2)
    for part in np.array_split(y, 4):
        tiny.merge(Moments.of((np.ldexp(part, -700), part)))
        plain.merge(Moments.of((part, part)))
    assert np.all(np.ldexp(y, -700) ** 2 < np.finfo(float).tiny)
    want = plain.estimate(plain.mean[0], (1.0, 0.0)).std_error
    got = tiny.estimate(tiny.mean[0], (1.0, 0.0)).std_error
    assert got > 0.0 and rel_err(np.ldexp(got, 700), want) < 1e-15
    assert rel_err(np.ldexp(tiny.cov(0, 1), 700), plain.cov(0, 1)) < 1e-15
    assert combine_se(MCEstimate(0.0, got, 1), MCEstimate(0.0, got, 1)) \
        == np.ldexp(want * math.sqrt(2.0), -700)


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


def _tilted_gamma(rng, m, shift=0.0):
    """(X w, w) + shift with X ~ Ga(2, 1.5) and the Esscher weight
    w = e^{0.3 X}."""
    x = rng.gamma(2.0, 1.0 / 1.5, m)
    w = np.exp(0.3 * x)
    return x * w + shift, w + shift


@pytest.mark.parametrize("shift", [0.0, 400.0])  # 400: about 100 SDs
def test_delta_method_ses_match_a_second_pass(shift):
    # each SE equals the sample std of the estimator's influence function
    # over the concatenated draws, divided by sqrt(n); the point values are
    # the pooled sample statistics
    cfg = MCConfig(n_samples=10_007, seed=3, batch=1_000)
    draw = lambda rng, m: _tilted_gamma(rng, m, shift)
    a, w = (np.concatenate(c) for c in zip(*(
        draw(rng, m) for rng, m in zip(substreams(cfg), batch_sizes(cfg)))))
    assert shift == 0.0 or a.mean() / a.std() > 100
    r = np.mean(a) / np.mean(w)
    influence = {
        "cov": (a - a.mean()) * (w - w.mean()),
        "variance": (a - a.mean())**2,
        "ratio": (a - r * w) / w.mean(),
    }
    got = {
        "cov": mc_cov(draw, cfg),
        "variance": mc_variance(lambda rng, m: draw(rng, m)[0], cfg),
        "ratio": mc_ratio(draw, cfg),
    }
    for name, est in got.items():
        want = np.std(influence[name], ddof=1) / math.sqrt(a.size)
        assert rel_err(est.std_error, want) < 1e-10, name
        assert est.n == a.size
    assert rel_err(got["cov"].value, np.cov(a, w, ddof=1)[0, 1]) < 1e-12
    assert rel_err(got["variance"].value, np.var(a, ddof=1)) < 1e-12
    assert rel_err(got["ratio"].value, r) < 1e-12


def test_cov_se_covers_at_its_nominal_rate():
    # 400 seeded replications of Cov(X, sin X), X ~ Ga(2, rate 1.5), at
    # n = 2000 in 8 batches: |z| > 1.96 must miss 5% of the time, inside
    # the binomial 3-sigma limits [7, 33]
    a, b = 2.0, 1.5
    q = 1.0 - 1j / b  # E[e^{iX}] = q^-a and E[X e^{iX}] = (a/b) q^(-a-1)
    truth = ((a / b) * (q**(-a - 1) - q**(-a))).imag

    def batch(rng, m):
        x = rng.gamma(a, 1.0 / b, m)
        return x, np.sin(x)

    z = np.array([(e.value - truth) / e.std_error for e in (
        mc_cov(batch, MCConfig(n_samples=2_000, seed=s, batch=250))
        for s in range(400))])
    assert 7 <= np.sum(np.abs(z) > 1.96) <= 33


def test_ratio_se_has_no_runt_batch():
    # n = 1001 is cut into 9 chunks of 111 or 112 draws; the SE is read off
    # the pooled moments, so the chunking leaves it where n = 1000 puts it
    def median_se(n):
        return np.median([
            mc_ratio(_tilted_gamma, MCConfig(n_samples=n, seed=s)).std_error
            for s in range(50)])

    assert abs(median_se(1_001) / median_se(1_000) - 1.0) < 0.15


def test_combine_se():
    e1 = MCEstimate(value=1.0, std_error=0.3, n=10)
    e2 = MCEstimate(value=2.0, std_error=0.4, n=10)
    assert abs(combine_se(e1, e2) - 0.5) < 1e-15
    assert combine_se(e1) == 0.3


# -- the thread pool --------------------------------------------------------------

# 8 batches of 12 500 draws, above mc._PARALLEL_MIN_BATCH
MC_POOL = MCConfig(n_samples=100_000, seed=17, batch=20_000)


@pytest.fixture
def on_pool(monkeypatch):
    """Give the pool two workers even on one CPU (unless it exists), and
    return the set of thread names the batches of `record` ran on."""
    monkeypatch.setattr(mc, "_cpu_count", lambda: 2)
    names = set()

    def record(batch_fn):
        def traced(rng, m):
            names.add(threading.current_thread().name)
            return batch_fn(rng, m)
        return traced

    return record, names


def _serial(monkeypatch):
    monkeypatch.setattr(mc, "_PARALLEL_MIN_BATCH", math.inf)


def _pool_ran(names) -> bool:
    return (threading.current_thread().name in names
            and any(n.startswith("levy-stein-mc") for n in names))


def test_pool_and_serial_loop_give_the_same_bits(on_pool, monkeypatch):
    record, names = on_pool
    x = lambda rng, m: rng.gamma(2.0, 0.75, m)

    def pair(rng, m):
        v = x(rng, m)
        return v, np.sin(v)

    runs = {
        "mean": lambda: mc_mean(record(x), MC_POOL),
        "cov": lambda: mc_cov(record(pair), MC_POOL),
        "variance": lambda: mc_variance(record(x), MC_POOL, ORACLE),
        "ratio": lambda: mc_ratio(record(pair), MC_POOL),
    }
    pooled = {name: run() for name, run in runs.items()}
    # the numeric bracket calls mc._accumulate itself
    edges = cacoullos_bounds(Gamma(2.0, 1.5), GAUSS, MC_POOL)
    assert edges.method == "numeric" and _pool_ran(names)
    _serial(monkeypatch)
    names.clear()
    for name, run in runs.items():
        est = run()
        assert (est.value, est.std_error, est.n) == (
            pooled[name].value, pooled[name].std_error, pooled[name].n), name
    assert names == {threading.current_thread().name}
    assert cacoullos_bounds(Gamma(2.0, 1.5), GAUSS, MC_POOL) == edges


def test_small_batches_stay_in_the_calling_thread(on_pool):
    record, names = on_pool
    mc_mean(record(lambda rng, m: rng.random(m)),
            MCConfig(n_samples=64_000, seed=1, batch=8_000))
    assert names == {threading.current_thread().name}


def test_first_failing_batch_raises_as_in_the_serial_loop(on_pool,
                                                          monkeypatch):
    # batches 3 and 5 fail; 5 fails first in time, but batch order decides
    record, names = on_pool
    marks = [g.random() for g in substreams(MC_POOL)]

    def batch(rng, m):
        i = marks.index(rng.random())
        if i == 3:
            time.sleep(0.05)
            raise ZeroDenominator("batch 3")
        if i == 5:
            raise DivergentMoment("batch 5")
        return rng.random(m)

    with pytest.raises(ZeroDenominator, match="batch 3"):
        mc_mean(record(batch), MC_POOL)
    assert _pool_ran(names)
    _serial(monkeypatch)
    with pytest.raises(ZeroDenominator, match="batch 3"):
        mc_mean(batch, MC_POOL)


def test_callers_errstate_reaches_the_workers(on_pool):
    record, names = on_pool
    seen = []

    def batch(rng, m):
        seen.append(np.geterr())
        x = rng.random(m)
        np.log(x - 2.0)  # invalid: a RuntimeWarning unless ignored
        return x

    with np.errstate(all="ignore"):
        est = mc_mean(record(batch), MC_POOL)
    assert _pool_ran(names) and est.n == MC_POOL.n_samples
    assert all(set(err.values()) == {"ignore"} for err in seen), seen


NESTED = """
import threading
import numpy as np
from levy_stein import mc
from levy_stein.mc import MCConfig, mc_mean

mc._cpu_count = lambda: 2
cfg = MCConfig(n_samples=100_000, seed=17, batch=20_000)
inner = lambda rng, m: rng.random(m)
names = set()

def batch(rng, m):
    names.add(threading.current_thread().name)
    return np.full(m, mc_mean(inner, cfg).value)

outer = mc_mean(batch, cfg)
assert any(n.startswith("levy-stein-mc") for n in names), names
want = mc_mean(inner, cfg).value
assert abs(outer.value - want) <= 1e-12 * want, (outer.value, want)
"""


def test_estimator_inside_a_batch_returns():
    # a batch that runs an estimator itself runs it serially in its
    # worker, so two workers cannot wait on each other; a fresh
    # interpreter keeps a deadlock from hanging this one
    src = os.path.dirname(os.path.dirname(os.path.abspath(mc.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", NESTED], env=env, check=True,
                   timeout=120)
