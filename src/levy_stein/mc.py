"""Monte Carlo plumbing: configs, estimates, mergeable accumulators.

Estimates are built batch by batch. Each batch gets its own counter-derived
substream (SeedSequence.spawn + Philox), and batch accumulators merge
associatively (Chan et al. update), so a run is deterministic for a fixed
seed and fixed batch size regardless of how batches would be scheduled.

Estimates that are set side by side draw from different roles (ESTIMATE,
ORACLE, DENOMINATOR, BOUND). All roles derive from the one
SeedSequence(seed) through a fixed spawn key, so they share no draw with
each other, and none of them with any role of another seed.

Standard errors: plain-mean estimators report sample std / sqrt(n). Ratio
and covariance estimators are not sample means; for those the SE comes from
the spread of per-batch statistics (batch means), while the point value is
computed from the pooled sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Tuple

import numpy as np

from .errors import DivergentMoment, InvalidParams, ZeroDenominator


@dataclass(frozen=True)
class MCConfig:
    n_samples: int = 10**6
    seed: int = 0
    batch: int = 10**5  # upper bound on chunk size, see batch_sizes

    def __post_init__(self):
        if self.n_samples < 10**3:
            raise InvalidParams("n_samples must be at least 1e3")
        if self.batch < 1:
            raise InvalidParams("batch must be positive")
        if not (0 <= int(self.seed) < 2**64):
            raise InvalidParams("seed must fit in 64 bits")


@dataclass(frozen=True)
class MCEstimate:
    value: float
    std_error: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.std_error)):
            raise DivergentMoment(
                f"Monte Carlo estimate {self.value:g} with standard error "
                f"{self.std_error:g} overflows the range of a double")
        if self.std_error < 0:
            raise InvalidParams("std_error must be nonnegative")

    @property
    def z(self) -> float:
        """Value in SE units; 0 when both value and SE vanish."""
        if self.std_error == 0.0:
            return 0.0 if self.value == 0.0 else float("inf")
        return self.value / self.std_error


# batch-means SEs need several chunks, so cfg.batch acts as a cap on the
# chunk size and runs are subdivided to at least this many pieces
_MIN_BATCHES = 8


def batch_sizes(cfg: MCConfig) -> Iterator[int]:
    size = min(cfg.batch, max(1, cfg.n_samples // _MIN_BATCHES))
    remaining = cfg.n_samples
    while remaining > 0:
        m = min(size, remaining)
        yield m
        remaining -= m


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


class Welford:
    """Mergeable mean/variance accumulator (Chan's parallel update)."""

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add_batch(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=float)
        m = x.size
        if m == 0:
            return
        # an overflow leaves a non-finite mean or SE, which MCEstimate
        # raises as DivergentMoment
        with np.errstate(over="ignore", invalid="ignore"):
            b_mean = float(x.mean())
            b_m2 = float(np.square(x - b_mean).sum())
        delta = b_mean - self.mean
        tot = self.n + m
        self.mean += delta * m / tot
        self.m2 += b_m2 + delta * delta * self.n * m / tot
        self.n = tot

    def merge(self, other: "Welford") -> None:
        if other.n == 0:
            return
        delta = other.mean - self.mean
        tot = self.n + other.n
        self.mean += delta * other.n / tot
        self.m2 += other.m2 + delta * delta * self.n * other.n / tot
        self.n = tot

    @property
    def variance(self) -> float:
        if self.n < 2:
            return 0.0
        return self.m2 / (self.n - 1)

    def estimate(self) -> MCEstimate:
        se = np.sqrt(self.variance / self.n) if self.n > 0 else 0.0
        return MCEstimate(value=self.mean, std_error=float(se), n=self.n)


class BivariateWelford:
    """Mergeable accumulator for means, variances and the cross moment."""

    def __init__(self):
        self.n = 0
        self.mean_x = 0.0
        self.mean_y = 0.0
        self.m2x = 0.0
        self.m2y = 0.0
        self.cxy = 0.0

    def add_batch(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        m = x.size
        if m == 0:
            return
        bx = float(x.mean())
        by = float(y.mean())
        dx = x - bx
        dy = y - by
        b_m2x = float(np.square(dx).sum())
        b_m2y = float(np.square(dy).sum())
        b_cxy = float((dx * dy).sum())
        tot = self.n + m
        ddx = bx - self.mean_x
        ddy = by - self.mean_y
        w = self.n * m / tot
        self.m2x += b_m2x + ddx * ddx * w
        self.m2y += b_m2y + ddy * ddy * w
        self.cxy += b_cxy + ddx * ddy * w
        self.mean_x += ddx * m / tot
        self.mean_y += ddy * m / tot
        self.n = tot

    @property
    def covariance(self) -> float:
        if self.n < 2:
            return 0.0
        return self.cxy / (self.n - 1)


def mc_mean(batch_fn: Callable[[np.random.Generator, int], np.ndarray],
            cfg: MCConfig, role: int = ESTIMATE) -> MCEstimate:
    """Estimate E[Z] where batch_fn draws a batch of Z values."""
    acc = Welford()
    for rng, m in zip(substreams(cfg, role), batch_sizes(cfg)):
        acc.add_batch(batch_fn(rng, m))
    return acc.estimate()


def mc_cov(batch_fn: Callable[[np.random.Generator, int],
                              Tuple[np.ndarray, np.ndarray]],
           cfg: MCConfig, role: int = ESTIMATE) -> MCEstimate:
    """Estimate Cov(X, Y) with batch-means SE.

    The point value is the pooled-sample covariance; the SE is the spread of
    per-batch covariances over sqrt(#batches), which stays valid when the
    statistic is not itself a sample mean.
    """
    acc = BivariateWelford()
    per_batch = []
    for rng, m in zip(substreams(cfg, role), batch_sizes(cfg)):
        x, y = batch_fn(rng, m)
        acc.add_batch(x, y)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.size >= 2:
            per_batch.append(float(np.cov(x, y, ddof=1)[0, 1]))
    se = _batch_se(per_batch)
    return MCEstimate(value=acc.covariance, std_error=se, n=acc.n)


def mc_ratio(batch_fn: Callable[[np.random.Generator, int],
                                Tuple[np.ndarray, np.ndarray]],
             cfg: MCConfig) -> MCEstimate:
    """Estimate E[num]/E[den]; batch-means SE, pooled-ratio value."""
    num = Welford()
    den = Welford()
    per_batch = []
    for rng, m in zip(substreams(cfg), batch_sizes(cfg)):
        a, b = batch_fn(rng, m)
        num.add_batch(a)
        den.add_batch(b)
        bm = float(np.asarray(b, dtype=float).mean())
        if bm != 0.0:
            per_batch.append(float(np.asarray(a, dtype=float).mean()) / bm)
    if den.mean == 0.0:
        raise ZeroDenominator("ratio estimator: denominator mean is zero")
    se = _batch_se(per_batch)
    return MCEstimate(value=num.mean / den.mean, std_error=se, n=num.n)


def mc_variance(batch_fn: Callable[[np.random.Generator, int], np.ndarray],
                cfg: MCConfig, role: int = ESTIMATE) -> MCEstimate:
    """Estimate Var(Z); pooled sample variance, batch-means SE."""
    acc = Welford()
    per_batch = []
    for rng, m in zip(substreams(cfg, role), batch_sizes(cfg)):
        z = np.asarray(batch_fn(rng, m), dtype=float)
        acc.add_batch(z)
        if z.size >= 2:
            per_batch.append(float(np.var(z, ddof=1)))
    return MCEstimate(value=acc.variance, std_error=_batch_se(per_batch),
                      n=acc.n)


def _batch_se(values) -> float:
    k = len(values)
    if k < 2:
        return 0.0
    return float(np.std(values, ddof=1) / np.sqrt(k))


def combine_se(*estimates: MCEstimate) -> float:
    """Joint SE of a difference/sum of independent estimates."""
    return float(np.sqrt(sum(e.std_error**2 for e in estimates)))
