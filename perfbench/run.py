"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload tempered --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is imported from ./src; nothing
is installed or built. With --trace 0 the result carries the end-to-end
metrics (wall_s, samples_per_s, setup_s, peak_rss_mb); with --trace 1 the
per-layer metrics of a traced run and its overhead.

setup_s is the median wall time of SETUP_STARTS fresh interpreters, each
importing levy_stein and validating the specs of one round of the workload,
timed from process start to exit, after one unmeasured start that fills
the bytecode and file caches. The workload itself runs in one more fresh
interpreter (workload.py), single-threaded. Files the run leaves behind go
to .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_STARTS = 5
# a run must end within 180 s; the workload gets what set-up leaves of this
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
import specs  # noqa: E402
from layers import LAYER_METRICS, TRACE_METRICS  # noqa: E402

END_TO_END = {"wall_s": "s", "samples_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
UNITS = {**END_TO_END, **TRACE_METRICS,
         **{name: unit for name, (_, _, unit) in LAYER_METRICS.items()}}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def measure_setup(spec_file: str, env: dict) -> float:
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), spec_file]
    times = []
    for i in range(SETUP_STARTS + 1):
        t0 = perf_counter()
        subprocess.run(probe, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        if i:  # the first start only warms the caches
            times.append(perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "levy_stein", "__init__.py")):
        print(f"error: no levy_stein package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    start = perf_counter()
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    tag = f"{args.workload}-{args.seed}"

    setup_s = None
    if not args.trace:
        spec_file = os.path.join(OUT, f"specs-{tag}.json")
        with open(spec_file, "w", encoding="utf-8") as fh:
            json.dump(specs.round_specs(args.workload, args.seed, 0), fh)
        setup_s = measure_setup(spec_file, env)

    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(OUT, f"spans-{tag}.jsonl")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True,
                              timeout=DEADLINE_S - (perf_counter() - start))
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**child, "setup_s": setup_s}, fh, indent=1)

    metrics = dict(child["metrics"])
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    print(json.dumps({
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
