"""The three workloads, as lists of CLI spec documents.

A round is one pass over a workload's tasks. Every round gets its own
parameters: each base parameter is scaled by a factor within 1e-3 of 1,
drawn from the seed and the round number. The cost of a task does not
change at that scale, but no two rounds share a spec, so a cache keyed on
the spec (the cdf tables are one) cannot carry work from one round into the
next; each round pays what one CLI invocation per task would pay. The seed
also fixes every task's Monte Carlo seed. Nothing here imports levy_stein.
"""

from __future__ import annotations

import copy
from typing import Dict, List

import numpy as np

WORKLOADS = ("tempered", "bias-exact", "small-sweep")

# base parameter sets, one per catalog entry used by the workloads
BASE: Dict[str, dict] = {
    "poisson": {"lam": 2.0},
    "cp_gamma": {"rate": 1.5, "jumps": {"kind": "gamma", "a": 2.0, "b": 3.0}},
    "cp_atoms": {"rate": 1.2,
                 "jumps": {"kind": "atoms", "atoms": [[1.0, 0.6], [2.0, 0.4]]}},
    "gamma": {"a": 2.0, "b": 1.5},
    "inverse_gaussian": {"alpha": 1.0, "lam": 2.0},
    "laplace": {"mu0": 0.5, "delta": 1.0},
    "two_sided_exp": {"a": 1.0, "b": 3.0},
    "bgd": {"alpha_pos": 2.0, "lam_pos": 3.0, "alpha_neg": 1.0,
            "lam_neg": 4.0},
    "vgd": {"mu0": 0.2, "alpha": 1.5, "lam_pos": 3.0, "lam_neg": 4.0},
    "cgmy": {"alpha": 1.0, "beta": 0.5, "lam_pos": 2.0, "lam_neg": 3.0},
    "gtsd": {"mu": 0.5, "beta": 0.5, "alpha_pos": 1.0, "lam_pos": 2.0,
             "alpha_neg": 0.5, "lam_neg": 3.0},
}

FAMILY = {"cp_gamma": "compound_poisson", "cp_atoms": "compound_poisson"}

# parameters left exact: the stability index, and the compound-Poisson
# jump law (integer atoms keep the reference an exact lattice series)
_FIXED = ("beta", "jumps")

# Monte Carlo size and batch per workload; the batch count sets the
# degrees of freedom of the batch-means standard errors
MC = {
    "tempered": (16_000, 800),          # 20 batches
    "bias-exact": (1_000_000, 50_000),  # 20 batches
    "small-sweep": (2_000, 125),        # 16 batches
}

SIN = {"g_name": "sin"}
TILT = {"w_name": "exp_tilt", "kappa": 0.5}


def _tasks(workload: str):
    """(catalog entry, task) pairs of one round, in execution order."""
    if workload == "tempered":
        out = []
        for entry in ("cgmy", "gtsd"):
            out += [
                (entry, {"kind": "verify-identity", "n": 1, **SIN}),
                (entry, {"kind": "verify-identity", "n": 2, **SIN}),
                (entry, {"kind": "bounds", **SIN}),
                (entry, {"kind": "premium", "principle": "wpcp", **TILT}),
            ]
        out += [("cgmy", {"kind": "stein", **SIN}), ("cgmy", {"kind": "gini"})]
        return out
    if workload == "bias-exact":
        out = []
        for entry in ("gamma", "poisson", "cp_gamma", "inverse_gaussian"):
            out += [
                (entry, {"kind": "verify-identity", "n": 1,
                         "g_name": "log1psq"}),
                (entry, {"kind": "verify-identity", "n": 2, **SIN}),
                (entry, {"kind": "verify-identity", "n": 3,
                         "g_name": "square"}),
                (entry, {"kind": "premium", "principle": "generalized_wpcp",
                         "n": 2, "w_name": "exp_tilt", "kappa": 0.3}),
            ]
        out += [("bgd", {"kind": "stein", **SIN}),
                ("vgd", {"kind": "stein", **SIN})]
        return out
    if workload == "small-sweep":
        out = []
        for entry in BASE:
            out += [
                (entry, {"kind": "cumulants", "k_max": 4}),
                (entry, {"kind": "verify-identity", "n": 1, **SIN}),
                (entry, {"kind": "verify-identity", "n": 2,
                         "g_name": "square"}),
                (entry, {"kind": "bounds", **SIN}),
                (entry, {"kind": "premium", "principle": "esscher",
                         "kappa": 0.5}),
                (entry, {"kind": "premium", "principle": "wpcp", **TILT}),
                (entry, {"kind": "premium",
                         "principle": "modified_variance"}),
                (entry, {"kind": "premium", "principle": "generalized_wpcp",
                         "n": 2, "w_name": "exp_tilt", "kappa": 0.3}),
            ]
            # the Fourier-table gini of the tempered laws is measured by
            # the tempered workload
            if entry not in ("cgmy", "gtsd"):
                out.append((entry, {"kind": "gini"}))
            if entry in ("cgmy", "vgd", "bgd"):
                out.append((entry, {"kind": "stein", **SIN}))
        return out
    raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")


def _jittered(params: dict, rng: np.random.Generator) -> dict:
    out = copy.deepcopy(params)
    for key in sorted(out):
        if key not in _FIXED:
            out[key] = float(out[key]) * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0))
    return out


def round_specs(workload: str, seed: int, rnd: int) -> List[dict]:
    """The spec documents of round `rnd` of a workload under `seed`."""
    tasks = _tasks(workload)
    n, batch = MC[workload]
    ss = np.random.SeedSequence([int(seed), WORKLOADS.index(workload), rnd])
    rng = np.random.default_rng(ss)
    params = {entry: _jittered(BASE[entry], rng) for entry in BASE}
    seeds = rng.integers(0, 2**63, size=len(tasks))
    return [{
        "distribution": {"family": FAMILY.get(entry, entry),
                         "params": params[entry]},
        "task": dict(task),
        "mc": {"n_samples": n, "seed": int(s), "batch": batch},
        "output": "json",
    } for (entry, task), s in zip(tasks, seeds)]
