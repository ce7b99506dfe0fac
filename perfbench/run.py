#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload olympian-mixed --seed 13 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all       # every workload at its default seed

Run from the root of a checkout. The first call configures and builds
perfbench/ together with the library sources under src/ into .bench_build/
(CMake, Release); later calls rebuild incrementally.

--trace 0 measures the end-to-end metrics; --trace 1 is the separate traced
run and reports the per-layer metrics. Each call writes one result file per
workload under .bench_build/results/ (or --out): e2e-<workload>-seed<n>.json
or layers-<workload>-seed<n>.json, never both kinds in one file. It prints
every metric with its unit and ends with one JSON line with the keys
correct, attempted, failed and metrics. "attempted" counts simulation runs
and "failed" the runs whose output checks failed; the exit status is 0 only
when every check passed.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def load_json(path):
    with open(path) as f:
        return json.load(f)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serving", "cluster.h")):
        fail("library sources not found under src/; run from a full checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j",
                  str(max(1, min(4, os.cpu_count() or 1)))])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_binary(binary, workload, spec, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--latency-limit-ms", str(spec["latency_limit_ms"])]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with status %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def check(doc, declared, spec, seed, trace):
    """Checks beyond the program's own: the pinned fingerprint of the default
    seed (end-to-end runs, which fingerprint every pass), and the declared
    metric set. Returns every failure."""
    errors = list(doc["errors"])
    pinned = spec["fingerprint"]
    if not trace and seed == spec["default_seed"] and doc["fingerprint"] != pinned:
        errors.append("fingerprint %s differs from the pinned %s"
                      % (doc["fingerprint"], pinned))
    for m in declared:
        got = doc["metrics"].get(m["name"])
        if got is None:
            errors.append("metric %s missing" % m["name"])
        elif got["unit"] != m["unit"]:
            errors.append("metric %s has unit %s, declared %s"
                          % (m["name"], got["unit"], m["unit"]))
    return errors


def print_table(doc, layers):
    print("%s seed %d, %s" % (doc["workload"], doc["seed"],
                              "traced run" if doc["trace"] else "end to end"))
    for name, m in doc["metrics"].items():
        row = "  %-36s %16.6g %-8s" % (name, m["value"], m["unit"])
        if layers.get(name, {}).get("moves"):
            row += " moves %s on %s" % (", ".join(layers[name]["moves"]),
                                        ", ".join(layers[name]["heavy_on"]))
        print(row)
    if "sim_tail" in doc:
        t = doc["sim_tail"]
        print("  sim_tail_ms is p%g: %d of %d samples lie beyond it"
              % (t["percentile"], t["samples_beyond"], t["samples"]))
    for e in doc["errors"]:
        print("  FAILED CHECK: " + e)


def run_workload(binary, bench, spec_all, workload, seed, seconds, trace,
                 out_dir):
    spec = spec_all["workloads"][workload]
    doc = run_binary(binary, workload, spec, seed, seconds, trace)
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    doc["errors"] = check(doc, declared, spec, seed, trace)
    doc["host"].update(seed=seed, git_revision=git_revision())
    doc["workload_spec"] = spec
    layers = spec_all["per_layer"] if trace else {}
    for name, m in doc["metrics"].items():
        m.update(layers.get(name, {}))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-%s-seed%d.json"
                        % ("layers" if trace else "e2e", workload, seed))
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    print_table(doc, layers)
    print("  wrote " + os.path.relpath(path, ROOT))
    return {
        "correct": not doc["errors"],
        "attempted": doc["runs"],
        "failed": max(doc["failed_runs"], 1 if doc["errors"] else 0),
        "metrics": {m["name"]: {"value": doc["metrics"][m["name"]]["value"],
                                "unit": m["unit"]}
                    for m in declared if m["name"] in doc["metrics"]},
    }


def main():
    ap = argparse.ArgumentParser(description="Build and run the benchmark.")
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, help="default: the workload's own")
    ap.add_argument("--seconds", type=float, help="default: run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result directory (default .bench_build/results)")
    args = ap.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("BENCHMARK.json not found at the checkout root")
    bench = load_json(bench_path)
    spec_all = load_json(os.path.join(BENCH_DIR, "spec.json"))
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    for w in workloads:
        if w not in names or w not in spec_all["workloads"]:
            fail("unknown workload " + w)
    binary = build()
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    out_dir = args.out or os.path.join(build_dir(), "results")

    results = {}
    for w in workloads:
        seed = spec_all["workloads"][w]["default_seed"] if args.seed is None else args.seed
        results[w] = run_workload(binary, bench, spec_all, w, seed, seconds,
                                  args.trace, out_dir)
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    sys.exit(0 if all(r["correct"] for r in results.values()) else 1)


if __name__ == "__main__":
    main()
