"""Batch front-end: parse a task spec, run it, emit a JSON or CSV report.

One invocation does one study. The spec file is plain JSON with top-level
keys `distribution`, `task`, `mc`, `quadrature`, `output`; test functions
are chosen from a named registry rather than parsed from expressions, so
every g and w that can appear in a report has a hand-checked derivative.

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
from .dist_catalog import BGD, CGMY, VGD, IDDSpec, make_spec, vgd_to_alt
from .errors import (InvalidParams, NumericFailure, ParseError,
                     ValidationError, ValidationFailure)
from .functions import G_REGISTRY, W_REGISTRY, TestFunction, get_function
from .identities import (cov_identity_rhs, cov_oracle, identity_route,
                         inner_route, stein_residual_bgd, stein_residual_cgmy,
                         stein_residual_vgd)
from .levy_core import QuadratureConfig, cumulant
from .mc import MCConfig, MCEstimate, combine_se

TOP_KEYS = ("distribution", "task", "mc", "quadrature", "output")
TASK_KINDS = ("cumulants", "verify-identity", "bounds", "premium", "gini",
              "stein")
PRINCIPLES = ("esscher", "wpcp", "modified_variance", "generalized_wpcp")

# required / optional fields per task kind, beyond "kind" itself
_TASK_FIELDS = {
    "cumulants": ({"k_max"}, set()),
    "verify-identity": ({"n", "g_name"}, {"kappa"}),
    "bounds": ({"g_name"}, {"kappa"}),
    "premium": ({"principle"}, {"kappa", "c", "w_name", "n"}),
    "gini": (set(), set()),
    "stein": ({"g_name"}, {"kappa"}),
}


@dataclass(frozen=True)
class TaskSpec:
    family: str
    base: IDDSpec
    task: dict
    mc: MCConfig
    quadrature: QuadratureConfig
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


def _as_float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"field {name!r} must be a number")
    return float(value)


def _check_fields(doc: dict, required, optional, where: str) -> None:
    got = set(doc)
    missing = sorted(required - got)
    extra = sorted(got - required - optional)
    if missing or extra:
        bits = []
        if missing:
            bits.append(f"missing {missing}")
        if extra:
            bits.append(f"unexpected {extra}")
        raise ParseError(f"{where}: {'; '.join(bits)}")


def _parse_task(doc: dict) -> dict:
    doc = dict(_require_dict(doc, "task"))
    kind = doc.pop("kind", None)
    if kind not in TASK_KINDS:
        raise ValidationError(
            f"task.kind must be one of {', '.join(TASK_KINDS)}; got {kind!r}")
    required, optional = _TASK_FIELDS[kind]
    _check_fields(doc, required, optional, f"task ({kind})")
    task = {"kind": kind}
    if kind == "cumulants":
        k_max = _as_int(doc["k_max"], "task.k_max")
        if k_max < 1:
            raise ValidationError("task.k_max must be a positive integer")
        task["k_max"] = k_max
    elif kind in ("verify-identity", "bounds", "stein"):
        name = doc["g_name"]
        if name not in G_REGISTRY:
            raise ValidationError(
                f"task.g_name {name!r} not in registry "
                f"({', '.join(G_REGISTRY)})")
        task["g_name"] = name
        if "kappa" in doc:
            task["kappa"] = _as_float(doc["kappa"], "task.kappa")
        if kind == "verify-identity":
            n = _as_int(doc["n"], "task.n")
            if n < 1:
                raise ValidationError("task.n must be a positive integer")
            task["n"] = n
        # resolve now so unknown/missing function parameters fail at parse
        _task_g(task)
    elif kind == "premium":
        task.update(_parse_premium(doc))
    return task


def _parse_premium(doc: dict) -> dict:
    principle = doc.get("principle")
    if principle not in PRINCIPLES:
        raise ValidationError(
            f"task.principle must be one of {', '.join(PRINCIPLES)}; "
            f"got {principle!r}")
    out = {"principle": principle}
    allowed = {"principle"}
    if principle == "esscher":
        allowed |= {"kappa"}
        if "kappa" not in doc:
            raise ValidationError("esscher principle requires task.kappa")
        out["kappa"] = _as_float(doc["kappa"], "task.kappa")
    elif principle in ("wpcp", "generalized_wpcp"):
        allowed |= {"w_name", "kappa", "c"}
        name = doc.get("w_name")
        if name not in W_REGISTRY:
            raise ValidationError(
                f"task.w_name must be one of {', '.join(W_REGISTRY)}; "
                f"got {name!r}")
        out["w_name"] = name
        if "kappa" in doc:
            out["kappa"] = _as_float(doc["kappa"], "task.kappa")
        if "c" in doc:
            out["c"] = _as_float(doc["c"], "task.c")
        if principle == "generalized_wpcp":
            allowed |= {"n"}
            if "n" not in doc:
                raise ValidationError("generalized_wpcp requires task.n")
            n = _as_int(doc["n"], "task.n")
            if n < 1:
                raise ValidationError("task.n must be a positive integer")
            out["n"] = n
        _task_w(out)
    extra = sorted(set(doc) - allowed)
    if extra:
        raise ParseError(f"task (premium {principle}): unexpected {extra}")
    return out


def _task_g(task: dict) -> TestFunction:
    return get_function(task["g_name"], kappa=task.get("kappa"))


def _task_w(task: dict) -> TestFunction:
    return get_function(task["w_name"], kappa=task.get("kappa"),
                        c=task.get("c"))


def build_spec(doc: dict) -> TaskSpec:
    """Validate a parsed spec document into a TaskSpec."""
    doc = _require_dict(doc, "spec")
    _check_fields(doc, {"distribution", "task"},
                  {"mc", "quadrature", "output"}, "spec")
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
    quad_doc = dict(_require_dict(doc.get("quadrature", {}), "quadrature"))
    _check_fields(quad_doc, set(),
                  {"rel_tol", "abs_tol", "max_subdivisions"}, "quadrature")
    qdefaults = QuadratureConfig()
    for name in ("rel_tol", "abs_tol"):
        if name in quad_doc:
            quad_doc[name] = _as_float(quad_doc[name], f"quadrature.{name}")
        else:
            quad_doc[name] = getattr(qdefaults, name)
            notes.append(
                f"quadrature.{name} not given; default {quad_doc[name]:g} "
                "applied")
    if "max_subdivisions" in quad_doc:
        quad_doc["max_subdivisions"] = _as_int(quad_doc["max_subdivisions"],
                                               "quadrature.max_subdivisions")
    else:
        quad_doc["max_subdivisions"] = qdefaults.max_subdivisions
        notes.append("quadrature.max_subdivisions not given; default "
                     f"{quad_doc['max_subdivisions']} applied")

    output = doc.get("output", None)
    if output is None:
        output = "json"
        notes.append("output not given; default json applied")
    if output not in ("json", "csv"):
        raise ValidationError(f"output must be 'json' or 'csv'; got {output!r}")

    try:
        mc = MCConfig(**mc_doc)
        quad = QuadratureConfig(**quad_doc)
    except InvalidParams as exc:
        raise ValidationError(str(exc)) from None
    return TaskSpec(family=dist["family"], base=base, task=task, mc=mc,
                    quadrature=quad, output=output, notes=tuple(notes))


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
    return _row(name, est.value, "numeric", est.std_error, est.n)


def _z_row(diff: float, se: float) -> dict:
    z = diff / se if se > 0 else 0.0
    return _row("z_score", z, "numeric", se)


def _run_cumulants(spec: TaskSpec):
    rows = [_row(f"C{k}", cumulant(spec.base, k, spec.quadrature),
                 "closed_form")
            for k in range(1, spec.task["k_max"] + 1)]
    return rows, [], {}


def _run_verify_identity(spec: TaskSpec):
    g = _task_g(spec.task)
    n = spec.task["n"]
    est = cov_identity_rhs(spec.base, n, g, spec.mc, spec.quadrature)
    orc = cov_oracle(spec.base, n, g, spec.mc)
    rows = [_est_row("identity_rhs", est), _est_row("oracle", orc),
            _z_row(est.value - orc.value, combine_se(est, orc))]
    return rows, [], {"identity_rhs": identity_route(spec.base, n, g)}


def _run_bounds(spec: TaskSpec):
    g = _task_g(spec.task)
    vb = cacoullos_bounds(spec.base, g, spec.mc, spec.quadrature,
                          with_oracle=True)
    chen = chen_upper_bound(spec.base, g, spec.mc, spec.quadrature)
    closed = vb.method == "closed_form"
    rows = [
        _row("cacoullos_lower", vb.lower, vb.method,
             None if closed else vb.lower_se),
        _row("cacoullos_upper", vb.upper, vb.method,
             None if closed else vb.upper_se),
        _est_row("variance_oracle", vb.oracle),
        _est_row("chen_upper", chen),
    ]
    bracket = "closed" if closed else "bias"
    routes = {"cacoullos_lower": bracket, "cacoullos_upper": bracket,
              "chen_upper": inner_route(spec.base.measure, g)}
    return rows, [], routes


def _run_premium(spec: TaskSpec):
    task = spec.task
    principle = task["principle"]
    routes = {}
    if principle == "esscher":
        rep = esscher_closed(spec.base, task["kappa"], spec.quadrature)
    elif principle == "wpcp":
        w = _task_w(task)
        rep = wpcp(spec.base, w, spec.mc, spec.quadrature)
        routes[rep.principle] = inner_route(spec.base.measure, w)
    elif principle == "modified_variance":
        rep = modified_variance(spec.base, spec.quadrature)
    else:
        w = _task_w(task)
        rep = generalized_wpcp(spec.base, task["n"], w, spec.mc,
                               spec.quadrature)
        routes[rep.principle] = identity_route(spec.base, task["n"], w)
    rows = [_row(rep.principle, rep.value, rep.method, rep.std_error, rep.n)]
    return rows, [], routes


def _run_gini(spec: TaskSpec):
    levy = gini(spec.base, spec.mc, spec.quadrature, method="levy_formula")
    orc = gini(spec.base, spec.mc, spec.quadrature,
               method="covariance_oracle")
    diff = levy.value - orc.value
    se = math.hypot(levy.std_error, orc.std_error)
    rows = [
        _row("gini_levy_formula", levy.value, "numeric", levy.std_error,
             levy.n),
        _row("gini_covariance_oracle", orc.value, "numeric", orc.std_error,
             orc.n),
        _z_row(diff, se),
    ]
    scale = gini_variance_scale(spec.base, spec.quadrature)
    warnings = [
        f"(2/mean)*Var(X) = {scale:.6g} is not a Gini coefficient; the "
        f"formula value here is {levy.value:.6g} (discrepancy "
        f"{scale - levy.value:.6g})"
    ]
    if spec.base.measure.support != "positive":
        warnings.append("support extends below zero: formula value, not a "
                        "Lorenz-Gini")
    return rows, warnings, {
        "gini_levy_formula": inner_route(spec.base.measure, None)}


def _run_stein(spec: TaskSpec):
    g = _task_g(spec.task)
    base = spec.base
    routes = {}
    if isinstance(base, CGMY):
        est = stein_residual_cgmy(base, g, spec.mc, spec.quadrature)
        routes["stein_residual"] = inner_route(base.measure, g)
    elif isinstance(base, VGD):
        est = stein_residual_vgd(vgd_to_alt(base), g, spec.mc)
    elif isinstance(base, BGD):
        est = stein_residual_bgd(base, g, spec.mc)
    else:
        raise ValidationError(
            "stein task needs family cgmy, vgd or bgd; got "
            f"{spec.family!r}")
    rows = [_est_row("stein_residual", est),
            _z_row(est.value, est.std_error)]
    return rows, [], routes


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
    rows, warnings, routes = _RUNNERS[spec.task["kind"]](spec)
    ses = [r["std_error"] for r in rows if r["std_error"] is not None]
    report = {
        "input": {
            "distribution": {"family": spec.family,
                             "params": _params_echo(spec.base)},
            "task": dict(spec.task),
            "mc": {"n_samples": spec.mc.n_samples, "seed": spec.mc.seed,
                   "batch": spec.mc.batch},
            "quadrature": {"rel_tol": spec.quadrature.rel_tol,
                           "abs_tol": spec.quadrature.abs_tol,
                           "max_subdivisions":
                               spec.quadrature.max_subdivisions},
            "output": spec.output,
        },
        "results": rows,
        "diagnostics": {
            "seed": spec.mc.seed,
            "n_samples": spec.mc.n_samples,
            "batch": spec.mc.batch,
            "max_std_error": max(ses) if ses else None,
            # how each row's inner integral was evaluated: closed, rule,
            # bias or atoms (rows without one are absent)
            "inner_routes": routes,
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
                f"{row['value']:.12g}",
                "" if se is None else f"{se:.12g}",
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
