#!/usr/bin/env python3
"""Run-to-run spread and comparison of saved benchmark results.

    python3 perfbench/stats.py spread [RESULTS_DIR]
    python3 perfbench/stats.py compare BASE_DIR CHANGE_DIR

run.py saves every run under .bench_build/perfbench-results/<workload>/.
`spread` prints, per workload, trace mode and metric, the median and the
distance between the first and third quartile as a share of the median.
`compare` prints the change's median against the base's for each metric
and the base's own spread. Both refuse (exit code 3) to mix results whose
host shapes differ: hardware threads, build type or dominance kernel.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parent.parent / ".bench_build" / \
    "perfbench-results"


def load(directory):
    """{(workload, trace): [record, ...]} of every saved run."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*/*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        runs[(record["workload"], record["trace"])].append(record)
    return runs


def shape_of(records, label):
    shapes = {json.dumps(r["shape"], sort_keys=True) for r in records}
    if len(shapes) != 1:
        print(f"refusing: {label} holds results of {len(shapes)} host "
              f"shapes: {sorted(shapes)}", file=sys.stderr)
        sys.exit(3)
    return shapes.pop()


def summarize(records, name):
    values = [r["result"]["metrics"][name]["value"] for r in records
              if name in r["result"]["metrics"]]
    median = statistics.median(values)
    if len(values) < 2:
        return median, float("nan"), len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("nan"), len(values)


def metric_names(records):
    names = []
    for record in records:
        for name in record["result"]["metrics"]:
            if name not in names:
                names.append(name)
    return names


def spread(directory):
    for (workload, trace), records in sorted(load(directory).items()):
        shape = shape_of(records, f"{workload} trace={trace}")
        failed = sum(1 for r in records if not r["result"]["correct"])
        print(f"{workload} trace={trace}: {len(records)} runs, "
              f"{failed} with failed checks, shape {shape}")
        for name in metric_names(records):
            median, iqr, n = summarize(records, name)
            unit = records[0]["result"]["metrics"].get(name, {}).get("unit")
            print(f"  {name:32s} median {median:14.6g} {unit:8s} "
                  f"spread {iqr:7.2%}  (n={n})")


def compare(base_dir, change_dir):
    base, change = load(base_dir), load(change_dir)
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        label = f"{workload} trace={trace}"
        if shape_of(base[key], "base " + label) != \
                shape_of(change[key], "change " + label):
            print(f"refusing: {label} was measured on different host "
                  "shapes", file=sys.stderr)
            sys.exit(3)
        print(f"{label}: base {len(base[key])} runs, "
              f"change {len(change[key])} runs")
        for name in metric_names(base[key]):
            b, b_spread, _ = summarize(base[key], name)
            c, _, _ = summarize(change[key], name)
            delta = (c - b) / b if b else float("nan")
            print(f"  {name:32s} base {b:14.6g}  change {c:14.6g}  "
                  f"delta {delta:+8.2%}  base spread {b_spread:7.2%}")


def main(argv):
    if len(argv) >= 1 and argv[0] == "spread" and len(argv) <= 2:
        spread(argv[1] if len(argv) == 2 else DEFAULT_DIR)
    elif len(argv) == 3 and argv[0] == "compare":
        compare(argv[1], argv[2])
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main(sys.argv[1:])
