"""Checks of one CLI report against the reference values.

Every Monte Carlo row is held to |value - reference| <= q * SE + floor. q is
the two-sided quantile at LEVEL of Student's t with the degrees of freedom
behind that SE: batch-means SEs (covariance, ratio and variance estimators)
have one less than the number of batches, plain-mean SEs are taken as
normal. A run makes at most a few thousand checks, so a correct program
whose random streams change still fails a run's checks with probability
below 1e-4. The floor admits the deterministic quadrature error of the
fixed inner rules, far below any SE here. Closed-form rows must match to
CLOSED_REL. Bound rows are one-sided: a lower bound may not exceed the
reference variance, an upper bound may not fall below it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Optional

from scipy import stats

from reference import Reference

LEVEL = 5e-8
REL_FLOOR = 1e-7
ABS_FLOOR = 1e-10
CLOSED_REL = 1e-9


@lru_cache(maxsize=None)
def quantile(df: Optional[int]) -> float:
    if df is None:
        return float(stats.norm.isf(LEVEL / 2))
    return float(stats.t.isf(LEVEL / 2, df))


def batch_count(mc: dict) -> int:
    """Batches behind a run: the batch size is capped so that there are at
    least 8; the workloads choose batch <= n/8, so this is ceil(n / batch)."""
    size = min(mc["batch"], max(1, mc["n_samples"] // 8))
    return -(-mc["n_samples"] // size)


class _Rows:
    def __init__(self, report: dict, doc: dict):
        self.rows = {r["name"]: r for r in report["results"]}
        self.df_batch = batch_count(doc["mc"]) - 1
        self.failures: List[str] = []
        self.checked = 0

    def _get(self, name):
        row = self.rows.get(name)
        if row is None:
            self.failures.append(f"row {name!r} missing")
        return row

    def _fail(self, name, row, ref, msg):
        self.failures.append(
            f"{name}: value {row['value']!r} se {row['std_error']!r} vs "
            f"reference {ref!r}: {msg}")

    def _tol(self, row, ref, df):
        se = row["std_error"] or 0.0
        return quantile(df) * se + REL_FLOOR * abs(ref) + ABS_FLOOR

    def estimate(self, name, ref, batch_means=False):
        row = self._get(name)
        if row is None:
            return
        self.checked += 1
        df = self.df_batch if batch_means else None
        if not abs(row["value"] - ref) <= self._tol(row, ref, df):
            self._fail(name, row, ref, "outside the tolerance")

    def closed(self, name, ref):
        row = self._get(name)
        if row is None:
            return
        self.checked += 1
        if not abs(row["value"] - ref) <= CLOSED_REL * abs(ref) + ABS_FLOOR:
            self._fail(name, row, ref, "closed form differs")

    def bound(self, name, ref, side):
        row = self._get(name)
        if row is None:
            return
        self.checked += 1
        tol = self._tol(row, ref, None) + CLOSED_REL * abs(ref)
        if side == "lower" and not row["value"] - tol <= ref:
            self._fail(name, row, ref, "lower bound above the variance")
        if side == "upper" and not row["value"] + tol >= ref:
            self._fail(name, row, ref, "upper bound below the variance")

    def finite(self, name):
        row = self._get(name)
        if row is not None:
            self.checked += 1
            if not math.isfinite(row["value"]):
                self._fail(name, row, None, "not finite")


def check_report(doc: dict, report: dict,
                 ref: Optional[Reference] = None) -> tuple:
    """(number of checks made, list of failure messages) for one report."""
    dist, task = doc["distribution"], doc["task"]
    rows = _Rows(report, doc)
    echo = report.get("input", {})
    if echo.get("distribution", {}).get("family") != dist["family"] \
            or echo.get("task") != task \
            or echo.get("mc", {}).get("seed") != doc["mc"]["seed"]:
        rows.failures.append("report input does not echo the spec")
    ref = ref or Reference(dist["family"], dist["params"])
    kind = task["kind"]
    if kind == "cumulants":
        for k in range(1, task["k_max"] + 1):
            rows.closed(f"C{k}", ref.cumulant(k))
    elif kind == "verify-identity":
        truth = ref.cov_xn_g(task["n"], task["g_name"], task.get("kappa"))
        rows.estimate("identity_rhs", truth)
        rows.estimate("oracle", truth, batch_means=True)
        rows.finite("z_score")
    elif kind == "bounds":
        var = ref.var_g(task["g_name"], task.get("kappa"))
        rows.bound("cacoullos_lower", var, "lower")
        rows.bound("cacoullos_upper", var, "upper")
        rows.estimate("variance_oracle", var, batch_means=True)
        rows.bound("chen_upper", var, "upper")
        lo, hi = rows.rows.get("cacoullos_lower"), rows.rows.get("cacoullos_upper")
        if lo and hi and not lo["value"] <= hi["value"] * (1 + CLOSED_REL) \
                + ABS_FLOOR:
            rows.failures.append("cacoullos bracket crosses")
    elif kind == "premium":
        principle = task["principle"]
        if principle == "esscher":
            rows.closed(f"esscher({task['kappa']:g})", ref.esscher(task["kappa"]))
        elif principle == "modified_variance":
            rows.closed("modified_variance", ref.modified_variance())
        else:
            n = task.get("n", 1)
            truth = ref.weighted_premium(n, task["w_name"], task.get("kappa"))
            names = [r for r in rows.rows if r.startswith(principle + "(")]
            if len(names) != 1:
                rows.failures.append(f"expected one {principle} row")
            else:
                rows.estimate(names[0], truth, batch_means=True)
    elif kind == "gini":
        truth = ref.gini()
        rows.estimate("gini_levy_formula", truth)
        rows.estimate("gini_covariance_oracle", truth, batch_means=True)
        rows.finite("z_score")
    elif kind == "stein":
        rows.estimate("stein_residual", 0.0)
        rows.finite("z_score")
    else:
        rows.failures.append(f"no check for task kind {kind!r}")
    return rows.checked, rows.failures
