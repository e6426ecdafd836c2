"""Per-layer tracing from outside the package.

`install` wraps public functions and methods of levy_stein's modules in the
benchmark's own process; the package is never edited. Each call records a
span (name, start, end, parent) in memory, plus a count where the layer has
one (variates drawn, cdf points, rule nodes, ...). A function imported by
name into other modules is replaced in every module that holds it, so calls
from inside the package are traced too. `uninstall` restores the originals.

A layer's self time is the duration of its spans minus the time their child
spans cover. The batch callbacks that the `mc` estimators receive are
wrapped too, so that `mc` self time excludes them; a callback is a closure
of the module that called the estimator and its self time is charged to
that module's layer.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

import numpy as np

_CALLBACK = "mc.callback"


class Tracer:
    def __init__(self):
        # span: [name, start_ns, end_ns, parent index or -1, child_ns, count]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def span(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0, 0, parent, 0, 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                rec[1], rec[2] = t0, t1
                if parent >= 0:
                    spans[parent][4] += t1 - t0
            if count is not None:
                rec[5] = count(out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, module, attr: str, name: str, count=None,
                      wrap_args=None) -> bool:
        """Trace module.attr wherever the package holds it; wrap_args may
        wrap the function before it is traced."""
        fn = getattr(module, attr, None)
        if fn is None:
            return False
        traced = self.span(name, wrap_args(fn) if wrap_args else fn, count)
        for mod in _package_modules():
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, key, traced)
        return True

    def wrap_method(self, cls, attr: str, name: str, count=None,
                    wrap_result=None) -> bool:
        """Trace a method defined on cls itself; wrap_result may wrap the
        traced method."""
        if cls is None or attr not in cls.__dict__:
            return False
        traced = self.span(name, cls.__dict__[attr], count)
        self._set(cls, attr, wrap_result(traced) if wrap_result else traced)
        return True

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "levy_stein"
                                  or name.startswith("levy_stein."))]


# -- counters -----------------------------------------------------------------


def _out_size(out, args, kwargs):
    return int(np.size(out))


def _rule_nodes(out, args, kwargs):
    return int(np.size(out.nodes))


def _inner_evals(out, args, kwargs):
    rule, x = args[0], args[2] if len(args) > 2 else kwargs["x"]
    return int(np.size(x)) * int(np.size(rule.nodes))


def _report_bytes(out, args, kwargs):
    return len(out)


def install(tracer: Tracer) -> List[str]:
    """Wrap the layers' public entry points; returns the names not found."""
    from levy_stein import (actuarial, bounds, cli, dist_catalog, identities,
                            levy_core, mc)

    missing = []

    def need(ok: bool, what: str):
        if not ok:
            missing.append(what)

    # dist_catalog: samplers, cdf builders and the cdf callables they return
    def traced_cdf(build):
        def cdf_fn(*args, **kwargs):
            return tracer.span("dist_catalog.cdf_eval", build(*args, **kwargs),
                               count=lambda out, a, k: int(np.size(a[0])))
        return cdf_fn

    samplers = _classes(dist_catalog, "sample_conv")
    need(bool(samplers), "dist_catalog sampler classes")
    for cls in samplers:
        tracer.wrap_method(cls, "sample", "dist_catalog.sample", _out_size)
        tracer.wrap_method(cls, "sample_conv", "dist_catalog.sample",
                           _out_size)
    builders = _classes(dist_catalog, "cdf_fn")
    need(bool(builders), "dist_catalog cdf_fn")
    for cls in builders:
        tracer.wrap_method(cls, "cdf_fn", "dist_catalog.cdf_build",
                           wrap_result=traced_cdf)

    # levy_core: rule construction, inner sums, bias variables
    for attr in ("nu_rule", "eta_rule"):
        need(tracer.wrap_function(levy_core, attr, "levy_core.rule_build",
                                  _rule_nodes), f"levy_core.{attr}")
    rule_cls = getattr(levy_core, "FixedRule", None)
    for attr in ("shifted_sum", "shifted_sum_sq_diff"):
        need(tracer.wrap_method(rule_cls, attr, "levy_core.inner_sum",
                                _inner_evals), f"levy_core.FixedRule.{attr}")
    bias_cls = getattr(levy_core, "BiasVariable", None)
    need(tracer.wrap_method(bias_cls, "__init__", "levy_core.bias"),
         "levy_core.BiasVariable")
    need(tracer.wrap_method(bias_cls, "sample", "levy_core.bias", _out_size),
         "levy_core.BiasVariable.sample")

    # identities: the coupled pair and the public estimators
    need(tracer.wrap_method(getattr(identities, "JointPairSampler", None),
                            "sample", "identities.pair"),
         "identities.JointPairSampler")
    for attr in ("cov_identity_rhs", "cov_first_order", "cov_oracle",
                 "stein_residual_cgmy", "stein_residual_vgd",
                 "stein_residual_bgd"):
        need(tracer.wrap_function(identities, attr, "identities.self"),
             f"identities.{attr}")

    # mc: estimators, with their batch callbacks as child spans
    def traced_callback(estimator):
        def run(batch_fn, *args, **kwargs):
            return estimator(tracer.span(_CALLBACK, batch_fn), *args,
                             **kwargs)
        return run

    for attr in ("mc_mean", "mc_cov", "mc_ratio", "mc_variance"):
        need(tracer.wrap_function(mc, attr, "mc.estimator",
                                  wrap_args=traced_callback), f"mc.{attr}")

    for attr in ("cacoullos_bounds", "chen_upper_bound"):
        need(tracer.wrap_function(bounds, attr, "bounds.self"),
             f"bounds.{attr}")
    for attr in ("wpcp", "esscher_closed", "modified_variance", "raw_moment",
                 "generalized_wpcp", "gini", "gini_variance_scale"):
        need(tracer.wrap_function(actuarial, attr, "actuarial.self"),
             f"actuarial.{attr}")

    need(tracer.wrap_function(cli, "build_spec", "cli.build_spec"),
         "cli.build_spec")
    need(tracer.wrap_function(cli, "run_task", "cli.run_task"),
         "cli.run_task")
    need(tracer.wrap_function(cli, "emit", "cli.emit", _report_bytes),
         "cli.emit")
    return missing


def _classes(module, attr: str):
    """Classes defined in `module` that define `attr` themselves."""
    return [cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and attr in cls.__dict__]


# -- summary ------------------------------------------------------------------

# per-layer metric -> (span name, what is summed, unit). 'self' sums self
# time, 'count' the spans' counts, 'outer_count' the counts of spans not
# nested in a span of the same name, 'calls' the number of spans.
LAYER_METRICS = {
    "dist_catalog.sample_s": ("dist_catalog.sample", "self", "s"),
    "dist_catalog.draws": ("dist_catalog.sample", "outer_count", "count"),
    "dist_catalog.cdf_build_s": ("dist_catalog.cdf_build", "self", "s"),
    "dist_catalog.cdf_eval_s": ("dist_catalog.cdf_eval", "self", "s"),
    "dist_catalog.cdf_points": ("dist_catalog.cdf_eval", "count", "count"),
    "levy_core.rule_build_s": ("levy_core.rule_build", "self", "s"),
    "levy_core.rule_nodes": ("levy_core.rule_build", "count", "count"),
    "levy_core.inner_sum_s": ("levy_core.inner_sum", "self", "s"),
    "levy_core.inner_evals": ("levy_core.inner_sum", "count", "count"),
    "levy_core.bias_s": ("levy_core.bias", "self", "s"),
    "levy_core.bias_draws": ("levy_core.bias", "count", "count"),
    "identities.pair_s": ("identities.pair", "self", "s"),
    "identities.self_s": ("identities.self", "self", "s"),
    "mc.estimator_s": ("mc.estimator", "self", "s"),
    "mc.batches": (_CALLBACK, "calls", "count"),
    "bounds.self_s": ("bounds.self", "self", "s"),
    "actuarial.self_s": ("actuarial.self", "self", "s"),
    "cli.build_spec_s": ("cli.build_spec", "self", "s"),
    "cli.run_task_self_s": ("cli.run_task", "self", "s"),
    "cli.emit_s": ("cli.emit", "self", "s"),
    "cli.report_bytes": ("cli.emit", "count", "bytes"),
}

# whole-round numbers of the traced run, reported beside the layers
TRACE_METRICS = {
    "trace.attributed_s": "s",     # sum of every wrapped layer's self time
    "trace.wall_s": "s",           # median traced round
    "trace.untraced_wall_s": "s",  # median untraced round of the same run
    "trace.slowdown": "ratio",     # the two above, traced / untraced
}


def summarize(spans: List[list]) -> Dict[str, float]:
    """Per-layer totals over a list of spans."""
    self_ns = defaultdict(int)
    counts = defaultdict(int)
    outer = defaultdict(int)
    calls = defaultdict(int)
    for rec in spans:
        name, t0, t1, parent, child, count = rec
        calls[name] += 1
        counts[name] += count
        own = t1 - t0 - child
        if name == _CALLBACK:
            # charge the closure to the module that called the estimator
            est = spans[parent] if parent >= 0 else None
            caller = spans[est[3]] if est is not None and est[3] >= 0 else None
            name = caller[0] if caller is not None else "unattributed"
            if name.startswith(("dist_catalog.", "levy_core.", "mc.")):
                name = "unattributed"
        self_ns[name] += own
        if parent < 0 or spans[parent][0] != rec[0]:
            outer[rec[0]] += count
    out = {}
    for metric, (name, kind, _) in LAYER_METRICS.items():
        if kind == "self":
            out[metric] = self_ns[name] / 1e9
        elif kind == "count":
            out[metric] = counts[name]
        elif kind == "outer_count":
            out[metric] = outer[name]
        else:
            out[metric] = calls[name]
    out["trace.attributed_s"] = sum(self_ns[n] for n in self_ns
                                    if n != "unattributed") / 1e9
    return out


def write_spans(path: str, spans: List[list], label: str) -> None:
    """Append spans as JSON lines: name, start and end in ns, parent index."""
    with open(path, "a", encoding="utf-8") as fh:
        for i, (name, t0, t1, parent, _, count) in enumerate(spans):
            fh.write(json.dumps({"round": label, "id": i, "name": name,
                                 "start_ns": t0, "end_ns": t1,
                                 "parent": parent, "count": count}) + "\n")
