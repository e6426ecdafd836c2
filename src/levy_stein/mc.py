"""Monte Carlo plumbing: configs, estimates, one mergeable accumulator.

Every estimator runs one batch loop. Batch sizes differ by at most one, and
each batch draws from its own counter-derived substream (SeedSequence.spawn
+ Philox) into one accumulator, `Moments`, that merges into the pooled one
by Chan's update; so a run is deterministic for a fixed seed and batch size.

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
    """One Philox generator per batch. Batch i of the ESTIMATE role draws
    from spawn key (i,) of SeedSequence(seed); batch i of role r > 0 from
    spawn key (r, i)."""
    n_batches = sum(1 for _ in batch_sizes(cfg))
    root = np.random.SeedSequence(int(cfg.seed),
                                  spawn_key=(role,) if role else ())
    for child in root.spawn(n_batches):
        yield np.random.Generator(np.random.Philox(child))


class Moments:
    """Count, means and co-moments of k jointly drawn columns, mergeable by
    the pairwise update of Chan, Golub & LeVeque (1983). comoment[i][j] is
    the sum of (x_i - mean_i)(x_j - mean_j) over the rows seen."""

    def __init__(self, k: int):
        self.n = 0
        self.mean = [0.0] * k
        self.comoment = [[0.0] * k for _ in range(k)]

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
            acc.mean = [float(c.mean()) for c in cols]
            dev = [c - mu for c, mu in zip(cols, acc.mean)]
            prod = np.empty_like(dev[0])  # one buffer for every product
            for i, di in enumerate(dev):
                for j in range(i, len(dev)):
                    acc.comoment[i][j] = acc.comoment[j][i] = float(
                        np.multiply(di, dev[j], out=prod).sum())
        return acc

    def merge(self, other: "Moments") -> None:
        if other.n == 0:
            return
        m, tot = other.n, self.n + other.n
        delta = [b - a for a, b in zip(self.mean, other.mean)]
        for i, di in enumerate(delta):
            for j in range(i, len(delta)):
                self.comoment[i][j] += (other.comoment[i][j]
                                        + di * delta[j] * self.n * m / tot)
                self.comoment[j][i] = self.comoment[i][j]
            self.mean[i] += di * m / tot
        self.n = tot

    def cov(self, i: int = 0, j: int = 0) -> float:
        """Sample covariance of columns i and j (variance when i == j)."""
        return self.comoment[i][j] / (self.n - 1) if self.n > 1 else 0.0

    def estimate(self, value: float, grad) -> MCEstimate:
        """value = f(means), with the delta-method SE for grad = f'(means)."""
        var = sum(wi * wj * self.cov(i, j) for i, wi in enumerate(grad)
                  for j, wj in enumerate(grad))
        # rounding can leave a zero variance slightly negative
        se = math.sqrt(max(var, 0.0) / self.n) if self.n > 0 else 0.0
        return MCEstimate(value=value, std_error=se, n=self.n)


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
    pooled = Moments(len(first.mean))
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
    """Joint SE of a difference/sum of independent estimates."""
    return float(np.sqrt(sum(e.std_error**2 for e in estimates)))
