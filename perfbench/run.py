#!/usr/bin/env python3
"""Builds the engine benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". The run's full record (host
shape, seed, sample counts, extra metrics) is also saved under
.bench_build/perfbench-results/ for perfbench/stats.py. `--workload all`
runs every workload in turn (a result line each) and fails if any fails.

Everything the benchmark builds or writes stays under .bench_build/ in the
checkout. Exits non-zero, without a result line, when the engine sources
are missing or the build fails, and non-zero with a result line when an
output check fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["paper_5d_anticorr", "anticorr_7d_filter", "service_mixed"]
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
RESULTS_DIR = BUILD_ROOT / "perfbench-results"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build failed: " + " ".join(step))


def run_one(workload, seed, seconds, trace):
    stamp = time.strftime("%Y%m%dT%H%M%S")
    workdir = BUILD_ROOT / "perfbench-work" / f"{workload}-{os.getpid()}"
    out_dir = RESULTS_DIR / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    base = out_dir / f"{stamp}-seed{seed}-trace{trace}"
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", str(workdir)]
    if trace:
        command += ["--trace-file", str(base) + ".trace.json"]
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.splitlines()
    detail = result = None
    for line in lines:
        if line.startswith("perfbench-detail "):
            detail = json.loads(line[len("perfbench-detail "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None or detail is None:
        sys.stdout.write(done.stdout)
        fail(f"{workload} printed no result (exit code {done.returncode})")
    record = dict(detail, result=result)
    Path(str(base) + ".json").write_text(json.dumps(record, indent=1) + "\n")
    print("perfbench-detail " + json.dumps(detail))
    print(json.dumps(result), flush=True)
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run_one(w, args.seed, args.seconds, args.trace)
             for w in workloads]
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
