"""Monte Carlo plumbing: configs, estimates, one mergeable accumulator.

Every estimator runs one batch loop. Batch sizes differ by at most one, and
each batch draws from its own substream into one accumulator, `Moments`,
that merges into the pooled one by Chan's update; so a run is deterministic
for a fixed seed and batch size. A substream is an SFC64 generator seeded
by one spawn key of SeedSequence(seed): independence comes from the spawn
keys alone (no stream is ever jumped or advanced), and SFC64 is the fastest
of numpy's bit generators.

Estimates that are set side by side draw from different roles (ESTIMATE,
ORACLE, DENOMINATOR, BOUND). All roles derive from the one
SeedSequence(seed) through a fixed spawn key, so they share no draw with
each other, and none of them with any role of another seed.

Batches of at least `_PARALLEL_MIN_BATCH` (8192) draws run on every CPU
in the process's affinity mask, on one thread pool; numpy's samplers
release the GIL. Batch 0 runs first in the calling thread, so it builds
every lazily cached state before a worker reads it, and the batches are
merged in batch order, so a report is byte-identical whatever the core
count. Nothing needs setting: smaller batches, a single CPU and calls from
inside a batch run serially in the calling thread.

Standard errors: every estimate is a smooth function f of the pooled
column means, with the delta-method SE sqrt(grad' C grad / n), C the pooled
sample covariance and grad the gradient of f at the means (Owen, Monte
Carlo theory, methods and examples, ch. 2); a plain mean has grad = (1).
"""

from __future__ import annotations

import contextvars
import copy
import math
import os
import threading
from dataclasses import dataclass
from itertools import repeat
from numbers import Integral
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from .errors import DivergentMoment, InvalidParams, ZeroDenominator


@dataclass(frozen=True)
class MCConfig:
    n_samples: int = 10**6
    seed: int = 0
    batch: int = 10**5  # upper bound on chunk size, see batch_sizes

    def __post_init__(self):
        for name in ("n_samples", "seed", "batch"):
            value = getattr(self, name)  # bool is an Integral, a float not
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise InvalidParams(f"{name} must be an integer, not {value!r}")
        if self.n_samples < 10**3:
            raise InvalidParams("n_samples must be at least 1e3")
        if self.batch < 1:
            raise InvalidParams("batch must be positive")
        if not (0 <= int(self.seed) < 2**64):
            raise InvalidParams("seed must fit in 64 bits")


@dataclass(frozen=True)
class MCEstimate:
    """The one result type for a reported scalar: a Monte Carlo mean with
    its SE over n draws, or a closed value, which drew nothing (n = 0,
    SE 0). `route` names how the estimator took its inner integral:
    'closed', 'rule', 'atoms' or 'bias'; None where it has none."""

    value: float
    std_error: float
    n: int
    route: Optional[str] = None

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.std_error)):
            raise DivergentMoment(
                f"estimate {self.value:g} with standard error "
                f"{self.std_error:g} overflows the range of a double")
        if self.std_error < 0:
            raise InvalidParams("std_error must be nonnegative")

    @property
    def method(self) -> str:
        """'closed_form' for a value that drew nothing, else 'numeric'."""
        return "closed_form" if self.n == 0 else "numeric"

    @property
    def z(self) -> float:
        return z_score(self.value, self.std_error)


def z_score(value: float, std_error: float) -> float:
    """Value in SE units; at SE 0, 0 for a zero value and inf otherwise."""
    if std_error == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return value / std_error


# cfg.batch caps the chunk size and runs are subdivided to at least this
# many chunks, whose sizes differ by at most one. The layout fixes which
# substream draws what, so every seeded result depends on it, and
# perfbench/check.py's batch_count mirrors it
_MIN_BATCHES = 8


def batch_sizes(cfg: MCConfig) -> Iterator[int]:
    size = min(cfg.batch, max(1, cfg.n_samples // _MIN_BATCHES))
    k = -(-cfg.n_samples // size)
    q, r = divmod(cfg.n_samples, k)
    for i in range(k):
        yield q + 1 if i < r else q


# Stream roles: the estimate itself, the independent check held against it,
# the denominator of a ratio of two estimates, and a second bound beside a
# bracket.
ESTIMATE, ORACLE, DENOMINATOR, BOUND = range(4)


def substreams(cfg: MCConfig,
               role: int = ESTIMATE) -> Iterator[np.random.Generator]:
    """One SFC64 generator per batch. Batch i of the ESTIMATE role draws
    from spawn key (i,) of SeedSequence(seed); batch i of role r > 0 from
    spawn key (r, i). The keys make the streams independent, so the bit
    generator is chosen for speed alone."""
    n_batches = sum(1 for _ in batch_sizes(cfg))
    root = np.random.SeedSequence(int(cfg.seed),
                                  spawn_key=(role,) if role else ())
    for child in root.spawn(n_batches):
        yield np.random.Generator(np.random.SFC64(child))


class Moments:
    """Count, means and co-moments of k jointly drawn columns, mergeable by
    the pairwise update of Chan, Golub & LeVeque (1983). comoment[i][j] is
    the sum of (x_i - mean_i)(x_j - mean_j) over the rows seen.

    Column i is held times 2^scale[i] >= 1: each batch takes the power of
    two, a multiple of 2^256, that brings its largest |x_i| into
    (2^-256, 1] if it is smaller (`_scale_of`), and a merge keeps the
    smaller power of the two. So the squares of a column near the underflow
    threshold stay normal, while a column that overflows still does; and
    since a power of two is exact, `mean`, `comoment`, `cov` and the SE of
    `estimate` read the same bits as unscaled sums wherever those do not
    underflow."""

    def __init__(self, k: int):
        self.n = 0
        self.scale = [0] * k
        self._mean = [0.0] * k
        self._comoment = [[0.0] * k for _ in range(k)]

    @classmethod
    def of(cls, columns) -> "Moments":
        """The moments of one batch, given as k arrays of equal length."""
        cols = [np.asarray(c, dtype=float) for c in columns]
        acc = cls(len(cols))
        if cols[0].size == 0:
            return acc
        acc.n = cols[0].size
        # an overflow leaves a non-finite mean or SE, which MCEstimate
        # raises as DivergentMoment
        with np.errstate(over="ignore", invalid="ignore"):
            for i, c in enumerate(cols):
                mu = float(c.mean())
                # a mean at or above 2^-256 puts the largest |x| there too,
                # so only a smaller (or nan) mean asks for the scale
                if not abs(mu) >= 2.0**-_SCALE_STEP:
                    acc.scale[i] = _scale_of(max(c.max(), -c.min()))
                    if acc.scale[i]:
                        cols[i] = np.ldexp(c, acc.scale[i])
                        mu = float(cols[i].mean())
                acc._mean[i] = mu
            dev = [c - mu for c, mu in zip(cols, acc._mean)]
            prod = np.empty_like(dev[0])  # one buffer for every product
            for i, di in enumerate(dev):
                for j in range(i, len(dev)):
                    acc._comoment[i][j] = acc._comoment[j][i] = float(
                        np.multiply(di, dev[j], out=prod).sum())
        return acc

    def _rescale(self, scale) -> None:
        shift = [e - s for e, s in zip(scale, self.scale)]
        self._mean = [_ldexp(mu, d) for mu, d in zip(self._mean, shift)]
        self._comoment = [[_ldexp(c, di + dj) for c, dj in zip(row, shift)]
                          for row, di in zip(self._comoment, shift)]
        self.scale = list(scale)

    def merge(self, other: "Moments") -> None:
        if other.n == 0:
            return
        if self.n == 0:
            self.scale = list(other.scale)  # an empty sum has every scale
        if self.scale != other.scale:
            scale = [min(a, b) for a, b in zip(self.scale, other.scale)]
            self._rescale(scale)
            other = copy.deepcopy(other)
            other._rescale(scale)
        m, tot = other.n, self.n + other.n
        delta = [b - a for a, b in zip(self._mean, other._mean)]
        for i, di in enumerate(delta):
            for j in range(i, len(delta)):
                self._comoment[i][j] += (other._comoment[i][j]
                                         + di * delta[j] * self.n * m / tot)
                self._comoment[j][i] = self._comoment[i][j]
            self._mean[i] += di * m / tot
        self.n = tot

    @property
    def mean(self) -> list:
        return [_ldexp(mu, -e) for mu, e in zip(self._mean, self.scale)]

    @property
    def comoment(self) -> list:
        return [[_ldexp(c, -ei - ej) for c, ej in zip(row, self.scale)]
                for row, ei in zip(self._comoment, self.scale)]

    def cov(self, i: int = 0, j: int = 0) -> float:
        """Sample covariance of columns i and j (variance when i == j)."""
        if self.n < 2:
            return 0.0
        return _ldexp(self._comoment[i][j] / (self.n - 1),
                      -self.scale[i] - self.scale[j])

    def estimate(self, value: float, grad) -> MCEstimate:
        """value = f(means), with the delta-method SE for grad = f'(means).
        The quadratic form is summed over the scaled columns, with the
        gradient times the one power of two 2^t >= 1 that brings its
        largest entry up near 1, so it stays normal where the variance
        would underflow."""
        if self.n < 2:
            return MCEstimate(value=value, std_error=0.0, n=self.n)
        t = max(0, min((_exponent(g) + e for g, e in zip(grad, self.scale)
                        if g != 0.0), default=0))
        h = [_ldexp(g, t - e) for g, e in zip(grad, self.scale)]
        var = sum(hi * hj * (self._comoment[i][j] / (self.n - 1))
                  for i, hi in enumerate(h) for j, hj in enumerate(h))
        # rounding can leave a zero variance slightly negative
        se = _ldexp(math.sqrt(max(var, 0.0) / self.n), -t)
        return MCEstimate(value=value, std_error=se, n=self.n)


# the scale of an all-zero column, above that of any nonzero double, so a
# merge keeps the other side's
_ZERO_SCALE = 2000
# column scales are multiples of this: a column whose largest |x| is above
# 2^-256 keeps scale 0, so batches of ordinary size rarely differ in scale
_SCALE_STEP = 256


def _scale_of(top: float) -> int:
    """The column scale for a largest |x| of top: the multiple of
    _SCALE_STEP at or below e >= 0 with top 2^e near 1."""
    return max(0, _exponent(top)) // _SCALE_STEP * _SCALE_STEP


def _exponent(x: float) -> int:
    """e with |x| 2^e in [1/2, 1); 0 for a non-finite x."""
    x = float(x)
    if x == 0.0:
        return _ZERO_SCALE
    return -math.frexp(x)[1] if math.isfinite(x) else 0


def _ldexp(x: float, e: int) -> float:
    """x 2^e, inf where that leaves the range of a double."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(x, e))


# batches this large run on the pool; on smaller ones a thread costs more
# than it saves
_PARALLEL_MIN_BATCH = 8192
_pool = None  # the ThreadPoolExecutor, made on first use
_pool_lock = threading.Lock()
_in_worker = threading.local()  # .flag is set in the pool's threads


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _mark_worker():
    _in_worker.flag = True


def _batch_map(fn, jobs, size: int):
    """map(fn, jobs), in order: on the pool when batches of `size` draws
    are large enough and more than one CPU is free, each job in a copy of
    the caller's context (so its np.errstate holds); else inline. Inside a
    worker it is inline, so no worker waits on the pool it runs in."""
    global _pool
    if size < _PARALLEL_MIN_BATCH or getattr(_in_worker, "flag", False):
        return map(fn, jobs)
    with _pool_lock:
        if _pool is None:
            cpus = _cpu_count()
            if cpus < 2:
                return map(fn, jobs)
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max_workers=cpus,
                                       thread_name_prefix="levy-stein-mc",
                                       initializer=_mark_worker)
    jobs = list(jobs)
    # Executor.map raises the first failing job's exception in job order
    # and cancels the jobs not yet started
    return _pool.map(contextvars.Context.run,
                     [contextvars.copy_context() for _ in jobs],
                     repeat(fn), jobs)


def _accumulate(batch_fn, cfg: MCConfig, role: int) -> Moments:
    """Pool the k columns batch_fn(rng, m) draws on each role substream.
    Batch 0 runs inline first, building the lazy state of every object
    batch_fn reads; batches 1..k-1 run through `_batch_map`."""
    jobs = zip(substreams(cfg, role), batch_sizes(cfg))
    rng, m = next(jobs)
    first = Moments.of(batch_fn(rng, m))
    pooled = Moments(len(first.scale))
    pooled.merge(first)
    for batch in _batch_map(lambda job: Moments.of(batch_fn(*job)), jobs, m):
        pooled.merge(batch)
    return pooled


def _with_product(batch_fn, i: int, j: int):
    """batch_fn's columns, then column i times column j; an overflow there
    leaves a non-finite SE, which MCEstimate raises as DivergentMoment."""
    def columns(rng, m):
        cols = batch_fn(rng, m)
        with np.errstate(over="ignore", invalid="ignore"):
            return (*cols, np.multiply(cols[i], cols[j], dtype=float))
    return columns


def mc_mean(batch_fn: Callable[[np.random.Generator, int], np.ndarray],
            cfg: MCConfig, role: int = ESTIMATE) -> MCEstimate:
    """Estimate E[Z] where batch_fn draws a batch of Z values."""
    pooled = _accumulate(lambda rng, m: (batch_fn(rng, m),), cfg, role)
    return pooled.estimate(pooled.mean[0], (1.0,))


def mc_cov(batch_fn: Callable[[np.random.Generator, int],
                              Tuple[np.ndarray, np.ndarray]],
           cfg: MCConfig, role: int = ESTIMATE) -> MCEstimate:
    """Estimate Cov(X, Y) by the pooled sample covariance, with the SE of
    E[XY] - E[X]E[Y] over the columns (x, y, xy): the sample std of
    (x - xbar)(y - ybar) over sqrt(n)."""
    pooled = _accumulate(_with_product(batch_fn, 0, 1), cfg, role)
    xbar, ybar, _ = pooled.mean
    return pooled.estimate(pooled.cov(0, 1), (-ybar, -xbar, 1.0))


def mc_ratio(batch_fn: Callable[[np.random.Generator, int],
                                Tuple[np.ndarray, np.ndarray]],
             cfg: MCConfig) -> MCEstimate:
    """Estimate E[num]/E[den] by the ratio r of pooled means, with the SE
    of gradient (1, -r) / E[den]."""
    pooled = _accumulate(batch_fn, cfg, ESTIMATE)
    num, den = pooled.mean
    if den == 0.0:
        raise ZeroDenominator("ratio estimator: denominator mean is zero")
    return pooled.estimate(num / den, (1.0 / den, -(num / den) / den))


def mc_variance(batch_fn: Callable[[np.random.Generator, int], np.ndarray],
                cfg: MCConfig, role: int = ESTIMATE) -> MCEstimate:
    """Estimate Var(Z) by the pooled sample variance; SE over (z, z^2)."""
    pooled = _accumulate(_with_product(lambda rng, m: (batch_fn(rng, m),),
                                       0, 0), cfg, role)
    return pooled.estimate(pooled.cov(), (-2.0 * pooled.mean[0], 1.0))


def combine_se(*estimates: MCEstimate) -> float:
    """Joint SE of a difference/sum of independent estimates. SEs below 1
    are summed in units of the largest (a power of two), so their squares
    stay normal."""
    t = max(0, min((_exponent(e.std_error) for e in estimates), default=0))
    return _ldexp(math.sqrt(sum(_ldexp(e.std_error, t)**2
                                for e in estimates)), -t)
