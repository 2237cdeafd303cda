#!/usr/bin/env python3
"""Steadiness check: run each workload over several seeds and print, per
end-to-end metric, the median, the quartiles and the spread (quartile
distance over median) against the bound in BENCHMARK.json.  Then run the
first seed traced twice, print the ledger and check that the one-domain
per-layer counts, cache hits included, repeat exactly: every round
starts cold.

    python3 perfbench/steady.py [--workloads flow-tiny,dist-flow] [--runs 10]
                                [--out results.json]

Seeds run from 1; the run length is BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]

    seconds = bench["run_seconds"]
    results = {}
    ok = True
    for w in args.workloads.split(","):
        runs = [run(w, s, seconds, 0) for s in range(1, args.runs + 1)]
        results[w] = runs
        correct = all(r["correct"] for r in runs)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("%s: %d runs, correct=%s, failed share %s"
              % (w, len(runs), correct, shares))
        ok &= correct and len(shares) == 1
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            over = name != "setup_s" and spread >= bound / 3
            print("  %-12s median %-11.6g q1 %-11.6g q3 %-11.6g spread %.4f"
                  " (bound %.2f)%s" % (name, med, q1, q3, spread, bound,
                                       "  <-- over bound/3" if over else ""))
        a, b = (run(w, 1, seconds, 1) for _ in range(2))
        results[w + ":traced"] = [a, b]
        print("  ledger: " + ", ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in a["metrics"].items()))
        differ = [n for n in counts
                  if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        print("  repeat of seed 1: %s" % (
            "counts identical" if not differ else "counts differ: %s" % differ))
        ok &= not differ
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
