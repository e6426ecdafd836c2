"""Monte Carlo plumbing: configs, estimates, one mergeable accumulator.

Every estimator runs one batch loop. Batch sizes differ by at most one, and
each batch draws from its own counter-derived substream (SeedSequence.spawn
+ Philox) into one accumulator, `Moments`, that merges into the pooled one
by Chan's update; so a run is deterministic for a fixed seed and batch size.

Estimates that are set side by side draw from different roles (ESTIMATE,
ORACLE, DENOMINATOR, BOUND). All roles derive from the one
SeedSequence(seed) through a fixed spawn key, so they share no draw with
each other, and none of them with any role of another seed.

Standard errors: plain-mean estimators report sample std / sqrt(n). Ratio
and covariance estimators are not sample means; for those the SE comes from
the spread of per-batch statistics (batch means), while the point value is
computed from the pooled sample; both are read from the accumulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Iterator, Tuple

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
    SE 0)."""

    value: float
    std_error: float
    n: int

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


# batch-means SEs need several chunks, so cfg.batch acts as a cap on the
# chunk size and runs are subdivided to at least this many pieces; they
# weight every chunk alike, so chunk sizes differ by at most one
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
            for i, di in enumerate(dev):
                acc.comoment[i][i] = float(np.square(di).sum())
                for j in range(i + 1, len(dev)):
                    acc.comoment[i][j] = acc.comoment[j][i] = \
                        float((di * dev[j]).sum())
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

    def mean_estimate(self, i: int = 0) -> MCEstimate:
        """The mean of column i with SE sample std / sqrt(n)."""
        se = math.sqrt(self.cov(i, i) / self.n) if self.n > 0 else 0.0
        return MCEstimate(value=self.mean[i], std_error=se, n=self.n)


def _accumulate(batch_fn, cfg: MCConfig, role: int):
    """Draw every batch of the role's substreams; batch_fn(rng, m) returns
    the batch's k columns. Returns the pooled moments and each batch's."""
    batches = [Moments.of(batch_fn(rng, m))
               for rng, m in zip(substreams(cfg, role), batch_sizes(cfg))]
    pooled = Moments(len(batches[0].mean))
    for b in batches:
        pooled.merge(b)
    return pooled, batches


def mc_mean(batch_fn: Callable[[np.random.Generator, int], np.ndarray],
            cfg: MCConfig, role: int = ESTIMATE) -> MCEstimate:
    """Estimate E[Z] where batch_fn draws a batch of Z values."""
    pooled, _ = _accumulate(lambda rng, m: (batch_fn(rng, m),), cfg, role)
    return pooled.mean_estimate()


def mc_cov(batch_fn: Callable[[np.random.Generator, int],
                              Tuple[np.ndarray, np.ndarray]],
           cfg: MCConfig, role: int = ESTIMATE) -> MCEstimate:
    """Estimate Cov(X, Y) with batch-means SE.

    The point value is the pooled-sample covariance; the SE is the spread of
    per-batch covariances over sqrt(#batches), which stays valid when the
    statistic is not itself a sample mean.
    """
    pooled, batches = _accumulate(batch_fn, cfg, role)
    se = _batch_se([b.cov(0, 1) for b in batches if b.n >= 2])
    return MCEstimate(value=pooled.cov(0, 1), std_error=se, n=pooled.n)


def mc_ratio(batch_fn: Callable[[np.random.Generator, int],
                                Tuple[np.ndarray, np.ndarray]],
             cfg: MCConfig) -> MCEstimate:
    """Estimate E[num]/E[den]; batch-means SE, pooled-ratio value."""
    pooled, batches = _accumulate(batch_fn, cfg, ESTIMATE)
    num, den = pooled.mean
    if den == 0.0:
        raise ZeroDenominator("ratio estimator: denominator mean is zero")
    se = _batch_se([b.mean[0] / b.mean[1] for b in batches
                    if b.mean[1] != 0.0])
    return MCEstimate(value=num / den, std_error=se, n=pooled.n)


def mc_variance(batch_fn: Callable[[np.random.Generator, int], np.ndarray],
                cfg: MCConfig, role: int = ESTIMATE) -> MCEstimate:
    """Estimate Var(Z); pooled sample variance, batch-means SE."""
    pooled, batches = _accumulate(lambda rng, m: (batch_fn(rng, m),), cfg,
                                  role)
    se = _batch_se([b.cov() for b in batches if b.n >= 2])
    return MCEstimate(value=pooled.cov(), std_error=se, n=pooled.n)


def _batch_se(values) -> float:
    """Batch-means SE: the spread of per-batch statistics over sqrt(k)."""
    k = len(values)
    if k < 2:
        return 0.0
    return float(np.std(values, ddof=1) / np.sqrt(k))


def combine_se(*estimates: MCEstimate) -> float:
    """Joint SE of a difference/sum of independent estimates."""
    return float(np.sqrt(sum(e.std_error**2 for e in estimates)))
