"""Batch front-end: parse a task spec, run it, emit a JSON or CSV report.

One invocation does one study. The spec file is plain JSON with top-level
keys `distribution`, `task`, `mc`, `output`; test functions are chosen
from a named registry rather than parsed from expressions, so every g and
w that can appear in a report has a hand-checked derivative.

One table, `_FIELDS`, lists the fields each task kind and each premium
principle requires, and `functions.PARAMS` the parameter each g or w takes
(kappa for exp_tilt, c for shift). A task must carry exactly the fields its
kind, principle and function name there: a missing one, or one that would
set nothing, is a validation failure.

Exit codes: 0 success, 2 validation failure, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import platform
import sys
from dataclasses import asdict, dataclass, is_dataclass, replace
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .actuarial import (esscher_closed, generalized_wpcp, gini,
                        gini_variance_scale, modified_variance, wpcp)
from .bounds import cacoullos_bounds, chen_upper_bound
from .dist_catalog import (IDDSpec, cdf_route, field_mismatch, make_spec,
                           spec_float)
from .errors import (InvalidParams, NumericFailure, ParseError,
                     ValidationError, ValidationFailure)
from .functions import (G_REGISTRY, PARAMS, W_REGISTRY, TestFunction,
                        get_function)
from .identities import (cov_identity_rhs, cov_oracle, stein_residual,
                         stein_residual_bgd, stein_residual_vgd)
from .levy_core import cumulant
from .mc import MCConfig, MCEstimate, combine_se, z_score

TASK_KINDS = ("cumulants", "verify-identity", "bounds", "premium", "gini",
              "stein")
PRINCIPLES = ("esscher", "wpcp", "modified_variance", "generalized_wpcp")

# the fields each task kind, and each premium principle, requires besides
# "kind"; a g_name or w_name also requires the parameters its function
# takes (functions.PARAMS). A task takes no other field.
_FIELDS = {
    "cumulants": ("k_max",),
    "verify-identity": ("n", "g_name"),
    "bounds": ("g_name",),
    "premium": ("principle",),
    "gini": (),
    "stein": ("g_name",),
    "esscher": ("kappa",),
    "wpcp": ("w_name",),
    "modified_variance": (),
    "generalized_wpcp": ("n", "w_name"),
}


@dataclass(frozen=True)
class TaskSpec:
    family: str
    base: IDDSpec
    task: dict
    mc: MCConfig
    output: str
    notes: tuple = ()


# -- parsing ---------------------------------------------------------------


def _require_dict(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"field {name!r} must be a JSON object")
    return value


def _as_int(value, name: str) -> int:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"field {name!r} must be an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"field {name!r} must be an integer")
    return int(value)


def _check_fields(doc: dict, required, optional, where: str) -> None:
    mismatch = field_mismatch(doc, required, optional)
    if mismatch:
        raise ParseError(f"{where}: {mismatch}")


def _positive_int(value, name: str) -> int:
    value = _as_int(value, name)
    if value < 1:
        raise ValidationError(f"{name} must be a positive integer")
    return value


def _one_of(names):
    def parse(value, name: str) -> str:
        if not isinstance(value, str) or value not in names:
            raise ValidationError(
                f"{name} must be one of {', '.join(names)}; got {value!r}")
        return value
    return parse


# how each task field is read; the four choices name further fields
_CHOICES = {"kind": TASK_KINDS, "principle": PRINCIPLES,
            "g_name": G_REGISTRY, "w_name": W_REGISTRY}
_PARSE = {"k_max": _positive_int, "n": _positive_int,
          "kappa": spec_float, "c": spec_float,
          **{name: _one_of(names) for name, names in _CHOICES.items()}}
# the fields a kind, principle or function name adds; no name is in both
_TAKES = {**_FIELDS, **PARAMS}


def _parse_task(doc: dict) -> dict:
    doc = _require_dict(doc, "task")
    task, fields = {}, ["kind"]
    # the chosen kind, principle and function each append the fields they
    # take, which this loop then reads in turn
    for name in fields:
        if name in doc:
            task[name] = _PARSE[name](doc[name], f"task.{name}")
            if name in _CHOICES:
                fields += _TAKES[task[name]]
    chosen = [task[name] for name in _CHOICES if name in task]
    _check_fields(doc, set(fields), set(), " ".join(["task", *chosen]))
    return task


def _task_function(task: dict) -> TestFunction:
    """The g or w a task names, with the parameters that function takes."""
    name = task["g_name"] if "g_name" in task else task["w_name"]
    return get_function(name, **{p: task[p] for p in PARAMS[name]})


def build_spec(doc: dict) -> TaskSpec:
    """Validate a parsed spec document into a TaskSpec."""
    doc = _require_dict(doc, "spec")
    _check_fields(doc, {"distribution", "task"}, {"mc", "output"}, "spec")
    notes = []

    dist = _require_dict(doc["distribution"], "distribution")
    _check_fields(dist, {"family", "params"}, set(), "distribution")
    base = make_spec(dist["family"], _require_dict(dist["params"],
                                                   "distribution.params"))
    task = _parse_task(doc["task"])

    mc_doc = dict(_require_dict(doc.get("mc", {}), "mc"))
    _check_fields(mc_doc, set(), {"n_samples", "seed", "batch"}, "mc")
    defaults = MCConfig()
    for name in ("n_samples", "seed", "batch"):
        if name in mc_doc:
            mc_doc[name] = _as_int(mc_doc[name], f"mc.{name}")
        else:
            mc_doc[name] = getattr(defaults, name)
            notes.append(f"mc.{name} not given; default {mc_doc[name]} applied")

    output = doc.get("output", None)
    if output is None:
        output = "json"
        notes.append("output not given; default json applied")
    if output not in ("json", "csv"):
        raise ValidationError(f"output must be 'json' or 'csv'; got {output!r}")

    try:
        mc = MCConfig(**mc_doc)
    except InvalidParams as exc:
        raise ValidationError(str(exc)) from None
    return TaskSpec(family=dist["family"], base=base, task=task, mc=mc,
                    output=output, notes=tuple(notes))


def parse_spec(path: Optional[str] = None) -> TaskSpec:
    """Read and validate a spec from a file path ('-' or None means stdin)."""
    if path is None or path == "-":
        text = sys.stdin.read()
        where = "<stdin>"
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read spec file: {exc}") from None
        where = path
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from None
    return build_spec(doc)


# -- running ---------------------------------------------------------------


def _row(name: str, value: float, method: str,
         std_error: Optional[float] = None,
         n: Optional[int] = None) -> dict:
    return {"name": name, "value": float(value), "std_error": std_error,
            "method": method, "n": n}


def _est_row(name: str, est: MCEstimate) -> dict:
    """The report row of an estimate; one that drew nothing is closed, with
    null std_error and n."""
    if est.n == 0:
        return _row(name, est.value, est.method)
    return _row(name, est.value, est.method, est.std_error, est.n)


def _z_row(diff: float, se: float) -> dict:
    return _row("z_score", z_score(diff, se), "numeric", se)


def _run_cumulants(spec: TaskSpec):
    rows = [_row(f"C{k}", cumulant(spec.base, k), "closed_form")
            for k in range(1, spec.task["k_max"] + 1)]
    return {}, rows, []


def _run_verify_identity(spec: TaskSpec):
    g = _task_function(spec.task)
    n = spec.task["n"]
    est = cov_identity_rhs(spec.base, n, g, spec.mc)
    orc = cov_oracle(spec.base, n, g, spec.mc)
    return ({"identity_rhs": est, "oracle": orc},
            [_z_row(est.value - orc.value, combine_se(est, orc))], [])


def _run_bounds(spec: TaskSpec):
    g = _task_function(spec.task)
    vb = cacoullos_bounds(spec.base, g, spec.mc, with_oracle=True)
    return {"cacoullos_lower": vb.lower_edge,
            "cacoullos_upper": vb.upper_edge,
            "variance_oracle": vb.oracle,
            "chen_upper": chen_upper_bound(spec.base, g, spec.mc)}, [], []


def _run_premium(spec: TaskSpec):
    base, task = spec.base, spec.task
    principle = task["principle"]
    if principle == "esscher":
        name = f"esscher({task['kappa']:g})"
        est = esscher_closed(base, task["kappa"])
    elif principle == "modified_variance":
        name, est = principle, modified_variance(base)
    elif principle == "wpcp":
        w = _task_function(task)
        name, est = f"wpcp({w.name})", wpcp(base, w)
    else:
        w = _task_function(task)
        name = f"generalized_wpcp(n={task['n']}, {w.name})"
        est = generalized_wpcp(base, task["n"], w)
    return {name: est}, [], []


def _run_gini(spec: TaskSpec):
    levy = gini(spec.base, spec.mc, method="levy_formula")
    orc = gini(spec.base, spec.mc, method="covariance_oracle")
    scale = gini_variance_scale(spec.base)
    warnings = [
        f"(2/mean)*Var(X) = {scale:.6g} is not a Gini coefficient; the "
        f"formula value here is {levy.value:.6g} (discrepancy "
        f"{scale - levy.value:.6g})"
    ]
    # X >= 0 almost surely exactly when nu has no negative part and the
    # uncompensated drift is nonnegative
    if spec.base.measure.has_neg or spec.base.drift < 0:
        warnings.append("support extends below zero: formula value, not a "
                        "Lorenz-Gini")
    return ({"gini_levy_formula": levy, "gini_covariance_oracle": orc},
            [_z_row(levy.value - orc.value, combine_se(levy, orc))], warnings)


def _run_stein(spec: TaskSpec):
    g = _task_function(spec.task)
    base = spec.base
    # vgd and bgd report the paper's second-order residuals, which need no
    # inner integral; every other family the triplet's first-order one
    if base.family == "vgd":
        est = stein_residual_vgd(base, g, spec.mc)
    elif base.family == "bgd":
        est = stein_residual_bgd(base, g, spec.mc)
    else:
        est = stein_residual(base, g, spec.mc)
    return {"stein_residual": est}, [_z_row(est.value, est.std_error)], []


# each runner returns (estimates by row name, further rows, warnings);
# `run_task` writes the estimates' rows first, in order, and reads their
# routes
_RUNNERS = {
    "cumulants": _run_cumulants,
    "verify-identity": _run_verify_identity,
    "bounds": _run_bounds,
    "premium": _run_premium,
    "gini": _run_gini,
    "stein": _run_stein,
}


def _params_echo(base: IDDSpec) -> dict:
    out = {}
    for key, value in base.params().items():
        if is_dataclass(value):  # compound-Poisson jump objects
            d = asdict(value)
            kind = "atoms" if "atoms" in d else "gamma"
            out[key] = {"kind": kind, **d}
        else:
            out[key] = value
    return out


def run_task(spec: TaskSpec) -> dict:
    """Execute the task and assemble the report document."""
    ests, rows, warnings = _RUNNERS[spec.task["kind"]](spec)
    rows = [_est_row(name, est) for name, est in ests.items()] + rows
    ses = [r["std_error"] for r in rows if r["std_error"] is not None]
    report = {
        "input": {
            "distribution": {"family": spec.family,
                             "params": _params_echo(spec.base)},
            "task": dict(spec.task),
            "mc": {"n_samples": spec.mc.n_samples, "seed": spec.mc.seed,
                   "batch": spec.mc.batch},
            "output": spec.output,
        },
        "results": rows,
        "diagnostics": {
            "seed": spec.mc.seed,
            "n_samples": spec.mc.n_samples,
            "batch": spec.mc.batch,
            "max_std_error": max(ses) if ses else None,
            # how each row's inner integral was evaluated: closed, rule,
            # bias or atoms, as its estimator names it (rows without one
            # are absent)
            "inner_routes": {name: est.route for name, est in ests.items()
                             if est.route is not None},
            "versions": {
                "levy_stein": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "notes": list(spec.notes),
        },
        "warnings": warnings,
    }
    if spec.task["kind"] == "gini":  # the F(X) behind both gini rows
        report["diagnostics"]["cdf"] = cdf_route(spec.base)
    return _rendered(report)


# -- emission --------------------------------------------------------------


def _rendered(obj):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _rendered(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rendered(v) for v in obj]
    return obj


def _csv_number(value) -> str:
    # a non-finite value arrives rendered as text, 'inf' or 'nan'
    return value if isinstance(value, str) else f"{value:.12g}"


def emit(report: dict, fmt: str) -> bytes:
    """Serialize a report deterministically."""
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2,
                          ensure_ascii=False)
        return (text + "\n").encode("utf-8")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "value", "std_error", "method", "n"])
        for row in report.get("results", []):
            se = row["std_error"]
            writer.writerow([
                row["name"],
                _csv_number(row["value"]),
                "" if se is None else _csv_number(se),
                row["method"],
                "" if row["n"] is None else row["n"],
            ])
        return buf.getvalue().encode("utf-8")
    raise ValidationError(f"unknown output format {fmt!r}")


# -- entry point -----------------------------------------------------------


def _apply_overrides(spec: TaskSpec, args) -> TaskSpec:
    notes = list(spec.notes)
    mc = spec.mc
    try:
        if args.seed is not None:
            mc = replace(mc, seed=args.seed)
            notes.append(f"mc.seed overridden to {args.seed} on command line")
        if args.samples is not None:
            mc = replace(mc, n_samples=args.samples)
            notes.append(f"mc.n_samples overridden to {args.samples} on "
                         "command line")
    except InvalidParams as exc:
        raise ValidationError(str(exc)) from None
    output = spec.output
    if args.format is not None:
        output = args.format
    return replace(spec, mc=mc, output=output, notes=tuple(notes))


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="levy-stein",
        description="Identities, bounds and premiums for infinitely "
                    "divisible laws, from a JSON task spec.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one task spec and print a report")
    run.add_argument("spec", help="path to a JSON spec file, or - for stdin")
    run.add_argument("--format", choices=("json", "csv"), default=None,
                     help="override the spec's output format")
    run.add_argument("--seed", type=int, default=None,
                     help="override mc.seed")
    run.add_argument("--samples", type=int, default=None,
                     help="override mc.n_samples")
    args = parser.parse_args(argv)
    try:
        spec = _apply_overrides(parse_spec(args.spec), args)
        payload = emit(run_task(spec), spec.output)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.buffer.write(payload)
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
