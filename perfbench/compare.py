#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per metric and workload.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are JSONL files (or directories of them) holding run
records as bench.exe writes them to .bench_work/results.jsonl: one JSON
object per run with "workload", "seed", "trace" and "metrics".  Runs are
paired by seed where both sides ran the same seeds, else in file order.

Each row gives both sides' median and quartiles and a verdict:

  improved    the change wins at least 9 in 10 pairs (ties count for
              neither) and its median beats the parent's by more than
              the parent's interquartile range
  worse       an end-to-end metric whose median is worse than the
              parent's by more than its bound in BENCHMARK.json; a
              per-layer metric (no bound) that loses 9 in 10 pairs by
              more than the parent's interquartile range
  unresolved  the parent's own spread is wider than the bound, so no
              change smaller than the noise can be told apart, and not
              every change run beats every parent run
  unchanged   none of the above
"""

import json
import os
import statistics
import sys


def load(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path) if f.endswith(".jsonl"))
    runs = []
    for f in files:
        with open(f) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    r = json.loads(line)
                    if "workload" in r and "metrics" in r:
                        runs.append(r)
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def pairs(a_runs, b_runs, metric):
    """(parent, change) value pairs: by seed when the seeds match."""
    a = {r["seed"]: r["metrics"][metric]["value"] for r in a_runs if metric in r["metrics"]}
    b = {r["seed"]: r["metrics"][metric]["value"] for r in b_runs if metric in r["metrics"]}
    common = sorted(set(a) & set(b))
    if common and len(common) == min(len(a), len(b)):
        return [(a[s], b[s]) for s in common]
    av = [r["metrics"][metric]["value"] for r in a_runs if metric in r["metrics"]]
    bv = [r["metrics"][metric]["value"] for r in b_runs if metric in r["metrics"]]
    return list(zip(av, bv))


def verdict(a, b, ps, higher, bound):
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    iqr = qa3 - qa1
    sign = 1 if higher else -1
    gain = sign * (mb - ma)  # > 0: the change is better
    wins = sum(1 for x, y in ps if sign * (y - x) > 0)
    losses = sum(1 for x, y in ps if sign * (y - x) < 0)
    n = len(ps)
    if n and wins >= 0.9 * n and gain > iqr:
        return "improved"
    if bound is not None:
        if -gain > bound * abs(ma):
            return "worse"
        spread = iqr / abs(ma) if ma else 0.0
        all_better = min(b) > max(a) if higher else max(b) < min(a)
        if spread > bound and not all_better:
            return "unresolved"
    elif n and losses >= 0.9 * n and -gain > iqr:
        return "worse"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    spec_path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "BENCHMARK.json")
    if not os.path.exists(spec_path):
        spec_path = "BENCHMARK.json"
    with open(spec_path) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    fmt = "%-18s %-28s %12s %-25s %12s %-25s %8s %7s  %s"
    print(fmt % ("workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]",
                 "gap", "wins", "verdict"))
    for trace in (0, 1):
        for w in workloads:
            a_runs = [r for r in parent if r["workload"] == w and r.get("trace", 0) == trace]
            b_runs = [r for r in change if r["workload"] == w and r.get("trace", 0) == trace]
            if not a_runs or not b_runs:
                continue
            names = [n for n in metrics if n in a_runs[0]["metrics"]]
            for name in names:
                a = [r["metrics"][name]["value"] for r in a_runs if name in r["metrics"]]
                b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
                if not a or not b:
                    continue
                m = metrics[name]
                ps = pairs(a_runs, b_runs, name)
                qa1, ma, qa3 = quartiles(a)
                qb1, mb, qb3 = quartiles(b)
                gap = "%+.1f%%" % (100.0 * (mb - ma) / ma) if ma else "n/a"
                wins = sum(1 for x, y in ps
                           if (y - x) * (1 if m["better"] == "higher" else -1) > 0)
                print(fmt % (w, name, "%.4g" % ma, "[%.4g, %.4g]" % (qa1, qa3),
                             "%.4g" % mb, "[%.4g, %.4g]" % (qb1, qb3), gap,
                             "%d/%d" % (wins, len(ps)),
                             verdict(a, b, ps, m["better"] == "higher", m.get("bound"))))


if __name__ == "__main__":
    main()
