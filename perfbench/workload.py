"""Run one workload in this interpreter: rounds of CLI tasks, timed and checked.

Started by run.py in a fresh single-threaded interpreter. Each round drives
the CLI's public path in-process (build_spec -> run_task -> emit) over the
round's specs in a closed loop: a task starts when the previous report has
been emitted. The round's wall time runs from the first task's start to the
last report's emission; reports are checked after the clock stops. Rounds
repeat until the next one would end more than half a round past
--seconds; there is always at least one.

With --trace 1 rounds come in pairs, one untraced and one traced, so the
tracing overhead is measured on the same run. The last line of stdout is a
JSON object; run.py adds the set-up time and prints the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from levy_stein import cli  # noqa: E402

import specs  # noqa: E402
import layers as tracing  # noqa: E402
from check import check_report  # noqa: E402
from reference import Reference  # noqa: E402


def run_round(docs):
    """Run the tasks; returns (wall seconds, [(report, payload) or None])."""
    out = []
    t0 = perf_counter()
    for doc in docs:
        try:
            spec = cli.build_spec(doc)
            report = cli.run_task(spec)
            payload = cli.emit(report, spec.output)
        except Exception:  # a failed task is counted, the round goes on
            traceback.print_exc(file=sys.stderr)
            out.append(None)
        else:
            out.append((report, payload))
    return perf_counter() - t0, out


def check_round(docs, results):
    """(samples declared, tasks failed, checks made, failure messages)."""
    samples = failed = checks = 0
    problems = []
    refs = {}
    for doc, res in zip(docs, results):
        if res is None:
            failed += 1
            continue
        report, payload = res
        samples += sum(r["n"] for r in report["results"] if r["n"])
        if json.loads(payload) != report:
            problems.append("emitted bytes do not parse back to the report")
        key = json.dumps(doc["distribution"], sort_keys=True)
        if key not in refs:
            dist = doc["distribution"]
            refs[key] = Reference(dist["family"], dist["params"])
        n, bad = check_report(doc, report, refs[key])
        checks += n
        problems += [f"{dist_label(doc)}: {msg}" for msg in bad]
    return samples, failed, checks, problems


def dist_label(doc):
    return f"{doc['distribution']['family']} {json.dumps(doc['task'])}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None,
                    help="file that receives the traced spans as JSON lines")
    args = ap.parse_args(argv)

    attempted = failed = checks = 0
    problems = []
    plain, traced, layer_rounds = [], [], []
    start = perf_counter()
    rnd = 0
    if args.spans:
        open(args.spans, "w").close()
    while True:
        pair_start = perf_counter()
        for traced_round in ((False, True) if args.trace else (False,)):
            docs = specs.round_specs(args.workload, args.seed, rnd)
            gc.collect()
            if traced_round:
                tracer = tracing.Tracer()
                missing = tracing.install(tracer)
                try:
                    wall, results = run_round(docs)
                finally:
                    tracer.uninstall()
                if missing:
                    print(f"trace: not found: {', '.join(missing)}",
                          file=sys.stderr)
                layer_rounds.append(tracing.summarize(tracer.spans))
                if args.spans:
                    tracing.write_spans(args.spans, tracer.spans, str(rnd))
            else:
                wall, results = run_round(docs)
            samples, n_failed, n_checks, bad = check_round(docs, results)
            attempted += len(docs)
            failed += n_failed
            checks += n_checks
            problems += bad
            (traced if traced_round else plain).append((wall, samples))
            rnd += 1
        step = perf_counter() - pair_start
        if perf_counter() - start + 0.5 * step >= args.seconds:
            break

    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    wall_s = statistics.median(w for w, _ in plain)
    if args.trace:
        metrics = {name: statistics.median(d[name] for d in layer_rounds)
                   for name in layer_rounds[0]}
        traced_wall = statistics.median(w for w, _ in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = wall_s
        metrics["trace.slowdown"] = traced_wall / wall_s
    else:
        metrics = {
            "wall_s": wall_s,
            "samples_per_s": statistics.median(s / w for w, s in plain),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "rounds": rnd,
        "round_walls": [w for w, _ in plain + traced],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
