#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py <set A> <set B>

A set is a directory of run.py result files (<build dir>/results/*.json) or
a list of such files joined with commas. Only untraced runs (--trace 0)
count. Set A is the baseline (the parent commit), set B the change. For
every end-to-end metric of BENCHMARK.json on every workload it prints each
set's median and quartiles (statistics.quantiles, n=4) and a verdict:

  improved     B's median beats A's by more than A's own quartile spread,
               and B wins at least 9 in 10 of all (A run, B run) pairs;
               or the spread is too wide to judge but every B run beats
               every A run
  within bound B's median is no worse than A's by more than the bound
  regressed    B's median is worse than A's by more than the bound
  unresolved   a set's quartile spread exceeds the bound, so the bound
               cannot be judged

Exit status is 1 when any metric regressed.
"""

import glob
import json
import os
import statistics
import sys

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def load_set(arg):
    paths = []
    for part in arg.split(","):
        paths += sorted(glob.glob(os.path.join(part, "*.json"))) if os.path.isdir(part) else [part]
    runs = {}
    for path in paths:
        with open(path) as f:
            try:
                record = json.load(f)
            except ValueError:
                continue
        env = record.get("environment") if isinstance(record, dict) else None
        if not env or env.get("trace") != 0:
            continue
        runs.setdefault(env["workload"], []).append(record["result"]["metrics"])
    return runs


def describe(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3


def quartiles(values):
    med, q1, q3 = describe(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(a, b, better, bound):
    med_a, q1_a, q3_a = describe(a)
    med_b, q1_b, q3_b = describe(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / med_a if med_a else 0.0
    spread_a = (q3_a - q1_a) / abs(med_a) if med_a else 0.0
    spread_b = (q3_b - q1_b) / abs(med_b) if med_b else 0.0
    spread = max(spread_a, spread_b)
    pairs = [sign * (y - x) < 0 for x in a for y in b]  # B's run y beats A's run x
    if spread > bound:
        return worse, spread, "improved" if all(pairs) else "unresolved"
    if worse > bound:
        return worse, spread, "regressed"
    if -worse > spread_a and sum(pairs) >= 0.9 * len(pairs):
        return worse, spread, "improved"
    return worse, spread, "within bound"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    set_a, set_b = load_set(sys.argv[1]), load_set(sys.argv[2])
    regressed = False
    header = (f"{'workload':11s} {'metric':21s} {'unit':4s} {'A median [q1, q3]':>32s} "
              f"{'B median [q1, q3]':>32s} {'worse':>7s} {'spread':>7s} {'bound':>6s}  verdict")
    print(header)
    print("-" * len(header))
    for workload in sorted(set(set_a) | set(set_b)):
        a_runs, b_runs = set_a.get(workload, []), set_b.get(workload, [])
        if not a_runs or not b_runs:
            print(f"{workload:11s} (runs missing in {'A' if not a_runs else 'B'})")
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r[name]["value"] for r in a_runs if name in r]
            b = [r[name]["value"] for r in b_runs if name in r]
            if not a or not b:
                continue
            worse, spread, v = verdict(a, b, m["better"], m["bound"])
            regressed |= v == "regressed"
            print(f"{workload:11s} {name:21s} {m['unit']:4s} {quartiles(a):>32s} "
                  f"{quartiles(b):>32s} {100 * worse:6.1f}% {100 * spread:6.1f}% "
                  f"{100 * m['bound']:5.0f}%  {v}")
        print(f"{'':11s} runs: A {len(a_runs)}, B {len(b_runs)}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
