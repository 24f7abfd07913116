#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark (see NOTES.md).

One run, as BENCHMARK.json's command:

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 40 --trace 0

builds the library and the benchmark from source into .bench_build/, runs one
workload and prints, as its last line, {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. A traced run also writes its spans to .bench_build/spans/.

Steadiness report: interleaves runs of the workloads BENCHMARK.json lists (or
those given with --workloads) and prints, for each
(workload, metric), the median, quartiles, min-max and the quartile spread
against the bound in BENCHMARK.json, plus each run's calibration-loop time
and memcpy bandwidth, so machine drift can be told apart from a change:

    python3 perfbench/run.py --report --runs 5

With --scalar-control, every run is paired with one under
RECOMP_FORCE_SCALAR=1 and the shift of each median is printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["dashboard", "adhoc", "ingest"]
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; False when it fails."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(step))
            return False
    return True


def run_binary(workload, seed, seconds, trace, env=None):
    """Runs one workload; returns (exit code, calibration dict, result dict or None)."""
    args = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(spans, f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, {}, None
    calibration, result = {}, None
    for line in done.stdout.splitlines():
        if line.startswith("# calibration "):
            calibration = json.loads(line[len("# calibration "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is not None and set(result) != {"correct", "attempted", "failed", "metrics"}:
        result = None
    return done.returncode, calibration, result


def single(args):
    if not build():
        return 1
    code, calibration, result = run_binary(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        log(f"perfbench: {args.workload} produced no result (exit {code})")
        return code or 1
    print("# calibration " + json.dumps(calibration))
    print(json.dumps(result))
    return code


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else 0.0


def report(args):
    if not build():
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else list(
        range(1, args.runs + 1))
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in benchmark["workloads"]]
    sides = [("", None)]
    if args.scalar_control:
        sides.append(("scalar", dict(os.environ, RECOMP_FORCE_SCALAR="1")))
    values = {}
    ok = True
    for i, seed in enumerate(seeds):
        for workload in workloads:
            # Alternate which side runs first.
            for label, env in sides if i % 2 == 0 else sides[::-1]:
                code, calibration, result = run_binary(workload, seed, args.seconds, 0, env)
                if result is None or code != 0 or not result["correct"]:
                    log(f"run failed: {workload} seed {seed} {label} exit {code}")
                    ok = False
                    continue
                print(f"run {workload:9s} seed {seed:4d} {label:6s} loop_s "
                      f"{calibration.get('loop_s', 0):.4f} memcpy_gb_s "
                      f"{calibration.get('memcpy_gb_s', 0):.3f}  " + " ".join(
                          f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())),
                      flush=True)
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name, label), []).append(metric["value"])
    print()
    print(f"{'workload':9s} {'metric':20s} {'side':6s} {'n':>3s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'min':>11s} {'max':>11s} {'spread':>7s} {'bound':>6s}")
    for (workload, name, label), vs in sorted(values.items()):
        if len(vs) < 2:
            continue
        q1, median, q3, s = spread(vs)
        bound = bounds.get(name, 0)
        flag = "" if name == "setup_s" or s <= bound / 3 else (" WIDE" if s > bound else " >1/3")
        print(f"{workload:9s} {name:20s} {label:6s} {len(vs):3d} {median:11.5g} {q1:11.5g} "
              f"{q3:11.5g} {min(vs):11.5g} {max(vs):11.5g} {s:7.3f} {bound:6.2f}{flag}")
    if args.scalar_control:
        print()
        print("scalar control: median under RECOMP_FORCE_SCALAR=1 against the default, "
              "as a share of the default median")
        for (workload, name, label), vs in sorted(values.items()):
            scalar = values.get((workload, name, "scalar"))
            if label or not scalar:
                continue
            base = statistics.median(vs)
            shift = (statistics.median(scalar) - base) / base if base else 0.0
            print(f"  {workload:9s} {name:20s} {shift:+8.3f}  (bound {bounds.get(name, 0):.2f})")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--report", action="store_true", help="steadiness report")
    parser.add_argument("--runs", type=int, default=5, help="report: runs per workload")
    parser.add_argument("--seeds", help="report: comma-separated seeds (default 1..runs)")
    parser.add_argument("--workloads", help="report: comma-separated workloads")
    parser.add_argument("--scalar-control", action="store_true",
                        help="report: pair every run with RECOMP_FORCE_SCALAR=1")
    args = parser.parse_args()
    if args.report:
        return report(args)
    if args.workload is None:
        parser.error("--workload is required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
