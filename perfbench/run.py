#!/usr/bin/env python3
"""Runs one workload of the DACE end-to-end benchmark.

    python3 perfbench/run.py --workload serve_miss --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds perfbench/ (and the library sources
it compiles from src/) into .bench_build on first use, runs the harness
self-tests, then the workload. The program's stderr (the library's WARN log,
e.g. drift alarms) goes to .bench_out/<workload>.stderr.log; stdout is the
report, whose last line is the JSON result. The metric names of that line
are checked against BENCHMARK.json: the end_to_end metrics with --trace 0,
the per_layer metrics with --trace 1. Exits non-zero without a result line
when the build, the self-tests or the run fail.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
WORKLOADS = ("serve_miss", "serve_hot", "train_select")
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_name, timeout):
    with open(OUT / log_name, "w") as log:
        try:
            return subprocess.run(cmd, cwd=ROOT, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout,
                                  check=False).returncode
        except subprocess.TimeoutExpired:
            return -1


def build():
    if not (ROOT / "perfbench" / "CMakeLists.txt").is_file():
        die("run from the root of a checkout (no perfbench/CMakeLists.txt)")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", "perfbench", "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, "configure.log", 300) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            die(f"configure failed, see {OUT / 'configure.log'}")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", str(BUILD), "-j", jobs],
                  "build.log", 800) != 0:
        die(f"build failed, see {OUT / 'build.log'}")
    if run_logged([str(BUILD / "perfbench_test"), "--gtest_brief=1"],
                  "selftest.log", 60) != 0:
        die(f"harness self-tests failed, see {OUT / 'selftest.log'}")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")

    OUT.mkdir(exist_ok=True)
    build()
    cmd = [str(BUILD / "dace_perfbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--out={OUT}"]
    with open(OUT / f"{args.workload}.stderr.log", "w") as err:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=err, text=True,
                                  timeout=RUN_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            die(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(proc.stdout)
        die(f"{args.workload} exited {proc.returncode} without a result")

    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    want = expected_metrics(args.trace)
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        problems.append(f"metrics missing {missing}, unexpected {extra}, "
                        f"wrong unit {wrong}")
    if problems:
        sys.stderr.write(proc.stdout)
        die("; ".join(problems))

    sys.stdout.write(proc.stdout)
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
