#!/usr/bin/env python3
"""The repository benchmark: one named workload per process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
program's library and the benchmark program with CMake under
$CARGO_TARGET_DIR (default .bench_build); later runs only check the build
is current. Results, trace files and checkpoint scratch space go to
.bench_out/.

The last line of standard output is the result: correct, attempted, failed
and the metrics named in BENCHMARK.json (end_to_end with --trace 0,
per_layer with --trace 1). A traced run first makes an untraced run of the
same workload and seed, and reports traced / untraced throughput as
trace.overhead_ratio. --self-test builds and runs the tests that feed every
output check a corrupted input. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tree-churn", "serve-openloop", "ckpt-reshard-live")
# Every run, build check included, must end within this many seconds.
RUN_BUDGET_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", target])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, target)


def run_binary(binary, args, trace, deadline):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--out", os.path.join(ROOT, ".bench_out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"workload {args.workload} did not finish in time")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"workload {args.workload} exited with {proc.returncode}")
        return None
    return json.loads(lines[-1])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    if args.self_test:
        binary = build("perfbench_checks_test")
        return 1 if binary is None else subprocess.run([binary]).returncode
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    binary = build("perfbench")
    if binary is None:
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S
    untraced = None
    if args.trace:
        untraced = run_binary(binary, args, False, deadline)
        if untraced is None:
            return 1
    res = run_binary(binary, args, bool(args.trace), deadline)
    if res is None:
        return 1

    metrics = dict(res["metrics"])
    correct = bool(res["correct"])
    if untraced is not None:
        correct = correct and bool(untraced["correct"])
        metrics["trace.overhead_ratio"] = {
            "value": res["aux"]["throughput"] / untraced["aux"]["throughput"],
            "unit": "ratio"}
    want = expected_metrics(bool(args.trace))
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        log("metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}")
        return 1
    for err in res.get("errors", []) + (untraced or {}).get("errors", []):
        log(f"check failed: {err}")
    for kind, n in res.get("failed_kinds", {}).items():
        log(f"failed operations: {n} x {kind}")

    out = {"correct": correct, "attempted": int(res["attempted"]),
           "failed": int(res["failed"]), "metrics": metrics}
    record = dict(out, aux=res.get("aux", {}), errors=res.get("errors", []),
                  workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    name = f"{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(ROOT, ".bench_out", name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
