#!/usr/bin/env python3
"""Two-clock benchmark of the KDRSolvers reproduction.

Builds the driver (kdrbench.cpp, together with the library sources under
src/) into .bench_build, runs one workload, checks its outputs, prints a
table of every metric with its unit, clock and sample count, and ends with
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run from the repository root:

    python3 kdrbench/run.py --workload fig8_16n --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics BENCHMARK.json lists, --trace 1 the
per-layer metrics of the profiled run. --workload all runs every workload in
turn and reports each metric as <workload>/<metric>. --tiny shrinks every
workload (the self-test uses it). Unknown flags and workload names are
errors. METRICS.md defines every metric.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOADS = ["fig8_16n", "scale_512p", "poisson_functional", "service_stream"]
RUN_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Two-clock KDRSolvers benchmark", allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be between 1 and 3600")
    return args


def fail(code, message):
    print(f"kdrbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    # CARGO_TARGET_DIR names the scratch build directory some harnesses set
    # for every language; default to .bench_build under the repository.
    return REPO / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build the driver; returns the binary's path."""
    if not any((REPO / "src").glob("*/*.cpp")):
        fail(2, f"no library sources under {REPO / 'src'}; run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / "build.log", "w") as log:
        ok = (out / "CMakeCache.txt").exists() or subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=log, stderr=subprocess.STDOUT).returncode == 0
        ok = ok and subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                                   stdout=log, stderr=subprocess.STDOUT).returncode == 0
    if not ok:
        sys.stderr.write((out / "build.log").read_text()[-4000:])
        fail(3, f"build failed (log: {out / 'build.log'}; a moved checkout needs "
                f"{out} removed)")
    return out / "kdrbench"


def run_workload(binary, workload, args):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail(4, f"{workload}: driver exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def load_spec():
    path = REPO / "BENCHMARK.json"
    if not path.exists():
        fail(2, f"{path} not found")
    return json.loads(path.read_text())


def select(result, wanted, workload):
    """The metrics BENCHMARK.json names, checked for presence and unit."""
    chosen = {}
    for spec in wanted:
        name = spec["name"]
        metric = result["metrics"].get(name)
        if metric is None:
            fail(5, f"{workload}: driver did not report {name}")
        if metric["unit"] != spec["unit"]:
            fail(5, f"{workload}: {name} is in {metric['unit']}, "
                    f"BENCHMARK.json says {spec['unit']}")
        chosen[name] = metric
    return chosen


def print_table(workload, chosen):
    print(f"--- {workload}: metric, value, unit, clock, samples")
    for name, m in chosen.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} {m['clock']:<8} "
              f"n={m['samples']:.0f}")


def main(argv):
    args = parse_args(argv)
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    correct = True
    metrics = {}
    for workload in workloads:
        result = run_workload(binary, workload, args)
        chosen = select(result, wanted, workload)
        print_table(workload, chosen)
        attempted += int(result["attempted"])
        failed += int(result["failed"])
        finite = all(math.isfinite(m["value"]) for m in chosen.values())
        correct = correct and finite and result["failed"] == 0 and result["attempted"] > 0
        prefix = "" if len(workloads) == 1 else workload + "/"
        for name, m in chosen.items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(f"fail_rate: {failed}/{attempted} operations failed")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
