#!/usr/bin/env python3
"""Run one benchmark workload of the hierarchical optimiser.

    python3 perfbench/run.py --workload flow-tiny --seed 1 --seconds 23 --trace 0

Builds the round executable with dune, times its set-up in a few fresh
processes, then runs whole rounds, each a fresh process with a fresh
model directory: as many as it takes to reach --seconds of timed work at
the workload's nominal round length.  The last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run makes one round and reports its per-layer ledger.  See
perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
# nominal round length on a 2-vCPU host; fixes the number of rounds a
# run makes, so that a run's operations do not depend on timing
NOMINAL_ROUND_S = {"flow-tiny": 36.0, "system-paper": 12.0, "dist-flow": 24.0}
SETUP_PROBES = 10
ROUND_TIMEOUT_S = 150.0

# The flows run the reference seed whatever --seed says: their cost
# varies with the flow seed by an interquartile range of 23% of the wall
# time over ten seeds, and one round takes 36 s.  The system level draws
# a fresh seed per round from --seed.
REFERENCE_SEED = 2009


def round_seed(workload, seed, r):
    if workload in ("flow-tiny", "dist-flow"):
        return REFERENCE_SEED
    return seed + 1000003 * r


END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        log("perfbench: build failed")
        sys.exit(1)


def stop_group(proc):
    """Kill a round's whole process group (its eval-workers too) and
    wait until every member has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(args):
    """Start the round executable; return (setup seconds, stdout lines after
    "ready").  Set-up runs from the spawn to the "ready" line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [EXE] + args,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    # a round that hangs is killed, which ends its output
    watchdog = threading.Timer(ROUND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    setup = None
    lines = []
    try:
        for line in proc.stdout:
            if setup is None and line.strip() == "ready":
                setup = time.perf_counter() - t0
            elif setup is not None:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        stop_group(proc)
    if code != 0 or setup is None:
        log("perfbench: %s exited with %d" % (" ".join(args[:3]), code))
        sys.exit(1)
    return setup, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    build()

    workdir = os.path.join(".perfbench", "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = [
            spawn(["setup", "--workload", args.workload, "--workdir", workdir])[0]
            for _ in range(SETUP_PROBES)
        ]
        # the per-layer ledger is one round's
        n_rounds = 1 if args.trace else max(
            1, math.ceil(args.seconds / NOMINAL_ROUND_S[args.workload])
        )
        rounds = []
        for r in range(n_rounds):
            seed = round_seed(args.workload, args.seed, r)
            setup, lines = spawn(
                [
                    "round",
                    "--workload", args.workload,
                    "--seed", str(seed),
                    "--trace", str(args.trace),
                    "--workdir", workdir,
                ]
            )
            setups.append(setup)
            rounds.append((seed, json.loads(lines[-1])))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [e for _, r in rounds for e in r["errors"]]
    # a cold start per round: rounds of one seed must hit the eval cache
    # exactly as often as each other
    hits = {}
    for seed, r in rounds:
        hits.setdefault(seed, set()).add(r["cache_hits"])
    if any(len(h) > 1 for h in hits.values()):
        errors.append("cache hits differ between cold rounds: %s" % hits)
    for e in errors:
        log("perfbench: check failed: " + e)
    rounds = [r for _, r in rounds]

    med = statistics.median
    if args.trace:
        metrics = rounds[0]["layers"]
    else:
        values = {
            "setup_s": med(setups),
            "wall_s": med([r["wall_s"] for r in rounds]),
            "evals_per_s": med([r["evals"] / r["wall_s"] for r in rounds]),
            "cpu_s": med([r["cpu_s"] for r in rounds]),
            "peak_rss_mb": med([r["peak_rss_mb"] for r in rounds]),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": sum(r["evals"] for r in rounds),
                "failed": sum(r["failed"] for r in rounds),
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
