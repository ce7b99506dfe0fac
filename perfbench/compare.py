#!/usr/bin/env python3
"""Compare two sets of end-to-end result files.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds e2e-<workload>-seed<n>.json files written by
perfbench/run.py, typically ten seeds per workload and side. For every
(workload, metric) pair of BENCHMARK.json's end_to_end list it prints each
side's median and quartiles, how much worse the new median is (negative:
better; the metric's direction applied), the paired win rate
(pairs are runs with the same seed; ties count for neither side) and a
verdict, plus each side's failure share (failed runs / attempted runs).

The verdict applies the metric's direction and bound:
  unresolved  a side's spread (quartile distance / median) is wider than the
              bound, and neither side's runs all beat the other's;
  regression  the new median is worse than the base median by more than the
              bound;
  improved    the new side wins at least nine tenths of the pairs and the
              medians differ by more than the base side's quartile distance;
  no change   otherwise.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def decide(base, new, better, bound):
    """Verdict for one metric. `base` and `new` map seed -> value; `better`
    is "lower" or "higher"; `bound` is the tolerated worsening as a share of
    the base median. Returns (verdict, details)."""
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(list(base.values()))
    n1, nm, n3 = quartiles(list(new.values()))
    worse = sign * (nm - bm) / bm if bm else 0.0
    pairs = [s for s in base if s in new]
    wins = sum(1 for s in pairs if sign * (new[s] - base[s]) < 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    spread = max((b3 - b1) / bm if bm else 0.0, (n3 - n1) / nm if nm else 0.0)
    details = {"base": (b1, bm, b3), "new": (n1, nm, n3), "change": worse,
               "win_rate": win_rate, "pairs": len(pairs), "spread": spread}
    new_all_better = all(sign * (n - b) < 0 for n in new.values() for b in base.values())
    new_all_worse = all(sign * (n - b) > 0 for n in new.values() for b in base.values())
    if spread > bound and not (new_all_better or new_all_worse):
        return "unresolved", details
    if worse > bound:
        return "regression", details
    if win_rate >= 0.9 and abs(nm - bm) > (b3 - b1) and worse < 0:
        return "improved", details
    return "no change", details


def load_side(directory):
    """Returns ({workload: {metric: {seed: value}}}, {workload: [runs, failed]})."""
    values, failures = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "e2e-*.json"))):
        with open(path) as f:
            doc = json.load(f)
        w = doc["workload"]
        for name, m in doc["metrics"].items():
            values.setdefault(w, {}).setdefault(name, {})[doc["seed"]] = m["value"]
        tally = failures.setdefault(w, [0, 0])
        tally[0] += doc["runs"]
        tally[1] += doc["failed_runs"] or (1 if doc["errors"] else 0)
    return values, failures


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, base_fail = load_side(argv[1])
    new, new_fail = load_side(argv[2])
    header = "%-15s %-20s %-32s %-32s %8s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "worse", "wins", "verdict")
    print(header)
    for w in sorted(set(base) & set(new)):
        for m in bench["end_to_end"]:
            b, n = base[w].get(m["name"]), new[w].get(m["name"])
            if not b or not n:
                continue
            verdict, d = decide(b, n, m["better"], m["bound"])
            fmt = "%.4g [%.4g, %.4g]"
            print("%-15s %-20s %-32s %-32s %+7.1f%% %6.2f  %s (bound %g)" % (
                w, m["name"], fmt % (d["base"][1], d["base"][0], d["base"][2]),
                fmt % (d["new"][1], d["new"][0], d["new"][2]),
                100 * d["change"], d["win_rate"], verdict, m["bound"]))
        print("%-15s failure share: base %d/%d, new %d/%d runs" % (
            w, base_fail[w][1], base_fail[w][0], new_fail[w][1], new_fail[w][0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
