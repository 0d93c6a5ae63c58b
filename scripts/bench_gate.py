#!/usr/bin/env python3
"""Performance regression gate for the parallel-SFS benchmark.

Compares a freshly produced BENCH_sfs.json (scripts/run_bench.sh or a
direct parallel_sfs_bench run) against the committed baseline at the
repository root. Two families of checks per thread count present in both
files:

  * filter throughput: fresh rows_per_sec must stay above
    baseline * --throughput-floor (default 0.40 — generous because CI
    containers share cores and the committed numbers may come from a
    different machine; the gate catches order-of-magnitude regressions,
    not single-digit noise).
  * comparison counts: window_comparisons is deterministic for the seeded
    anti-correlated table, so fresh/baseline must stay within
    --comparison-tolerance (default 1.10) of each other in ratio;
    merge_comparisons additionally fails when exactly one side is zero
    (a merge path silently appearing or disappearing).

One check across thread counts: at every thread count up to the host's
`hardware_threads`, the fresh speedup rows_per_sec(T) / rows_per_sec(1)
must stay at or above SCALING_FLOOR (0.5) times the baseline's speedup, so
a change that keeps the counts but loses the parallel speedup fails.

The gate refuses to compare runs of different table sizes: a changed
`rows` means the committed baseline is stale and must be re-recorded with
scripts/run_bench.sh. It likewise refuses to compare runs of different host
shapes: the thread counts a host can honor decide the partition count, and
with it the comparison counts and the merge path, so a baseline only
speaks for hosts with its `hardware_threads`.

Usage: bench_gate.py --baseline BENCH_sfs.json --fresh fresh.json
Exit status: 0 pass, 1 regression, 2 usage/stale-baseline/host-shape
mismatch.
"""

import argparse
import json
import sys

# Share of the baseline's parallel speedup a fresh run must keep at every
# thread count the host can honor.
SCALING_FLOOR = 0.5


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_gate: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def runs_by_threads(doc):
    return {run["threads"]: run for run in doc.get("runs", [])}


def ratio_within(a, b, tolerance):
    if a == 0 and b == 0:
        return True
    if a == 0 or b == 0:
        return False
    ratio = a / b if a > b else b / a
    return ratio <= tolerance


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_sfs.json")
    parser.add_argument("--fresh", required=True,
                        help="freshly generated benchmark JSON")
    parser.add_argument("--throughput-floor", type=float, default=0.40,
                        help="fresh rows_per_sec must be >= baseline * floor"
                             " (default %(default)s)")
    parser.add_argument("--comparison-tolerance", type=float, default=1.10,
                        help="max fresh/baseline ratio for comparison counts"
                             " (default %(default)s)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    fresh = load(args.fresh)

    if baseline.get("rows") != fresh.get("rows"):
        print(f"bench_gate: table size mismatch — baseline rows="
              f"{baseline.get('rows')} vs fresh rows={fresh.get('rows')}; "
              f"re-record the baseline with scripts/run_bench.sh",
              file=sys.stderr)
        return 2
    if baseline.get("distribution") != fresh.get("distribution"):
        print(f"bench_gate: distribution mismatch — "
              f"{baseline.get('distribution')} vs "
              f"{fresh.get('distribution')}; re-record the baseline",
              file=sys.stderr)
        return 2

    if baseline.get("hardware_threads") != fresh.get("hardware_threads"):
        print(f"bench_gate: host shape mismatch — baseline recorded with "
              f"hardware_threads={baseline.get('hardware_threads')}, fresh "
              f"run has hardware_threads={fresh.get('hardware_threads')}; "
              f"not comparable (re-record the baseline on this host shape "
              f"with scripts/run_bench.sh)", file=sys.stderr)
        return 2

    base_runs = runs_by_threads(baseline)
    fresh_runs = runs_by_threads(fresh)
    shared = sorted(set(base_runs) & set(fresh_runs))
    if not shared:
        print("bench_gate: no common thread counts between baseline and "
              "fresh runs", file=sys.stderr)
        return 2

    failures = []
    for threads in shared:
        base, new = base_runs[threads], fresh_runs[threads]

        floor = base["rows_per_sec"] * args.throughput_floor
        if new["rows_per_sec"] < floor:
            failures.append(
                f"threads={threads}: rows_per_sec {new['rows_per_sec']:.0f} "
                f"< floor {floor:.0f} "
                f"(baseline {base['rows_per_sec']:.0f} * "
                f"{args.throughput_floor})")

        if not ratio_within(new["window_comparisons"],
                            base["window_comparisons"],
                            args.comparison_tolerance):
            failures.append(
                f"threads={threads}: window_comparisons "
                f"{new['window_comparisons']} vs baseline "
                f"{base['window_comparisons']} exceeds tolerance "
                f"{args.comparison_tolerance}")

        base_merge = base["merge_comparisons"]
        new_merge = new["merge_comparisons"]
        if (base_merge == 0) != (new_merge == 0):
            failures.append(
                f"threads={threads}: merge path changed — merge_comparisons "
                f"baseline {base_merge} vs fresh {new_merge}")
        elif not ratio_within(new_merge, base_merge,
                              args.comparison_tolerance):
            failures.append(
                f"threads={threads}: merge_comparisons {new_merge} vs "
                f"baseline {base_merge} exceeds tolerance "
                f"{args.comparison_tolerance}")

        print(f"bench_gate: threads={threads} rows_per_sec "
              f"{new['rows_per_sec']:.0f} (baseline "
              f"{base['rows_per_sec']:.0f}), window_comparisons "
              f"{new['window_comparisons']} (baseline "
              f"{base['window_comparisons']}), merge_comparisons "
              f"{new_merge} (baseline {base_merge})")

    base_one = base_runs.get(1, {}).get("rows_per_sec", 0)
    fresh_one = fresh_runs.get(1, {}).get("rows_per_sec", 0)
    if base_one > 0 and fresh_one > 0:
        hardware = fresh.get("hardware_threads") or 0
        for threads in shared:
            if threads <= 1 or threads > hardware:
                continue
            base_speedup = base_runs[threads]["rows_per_sec"] / base_one
            fresh_speedup = fresh_runs[threads]["rows_per_sec"] / fresh_one
            print(f"bench_gate: threads={threads} speedup "
                  f"{fresh_speedup:.2f}x (baseline {base_speedup:.2f}x)")
            if fresh_speedup < base_speedup * SCALING_FLOOR:
                failures.append(
                    f"threads={threads}: speedup {fresh_speedup:.2f}x < "
                    f"floor {base_speedup * SCALING_FLOOR:.2f}x (baseline "
                    f"{base_speedup:.2f}x * {SCALING_FLOOR})")

    only_base = sorted(set(base_runs) - set(fresh_runs))
    if only_base:
        print(f"bench_gate: note — baseline thread counts {only_base} not "
              f"present in the fresh run (not compared)")

    if failures:
        print("bench_gate: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"bench_gate: PASS ({len(shared)} thread configs compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
