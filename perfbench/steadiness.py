#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how steady each metric is.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--sets 2]
        [--workloads attack_sweep,harvest_compute] [--seconds N]

Each run is `python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0` with a seed of its own.  Workloads are interleaved run by
run, so a slow spell of the host lands on all of them.  For every set
and end-to-end metric it prints the median, quartiles and spread
(interquartile range over median, as statistics.quantiles(n=4) gives
them) against the metric's bound in BENCHMARK.json, and whether the
later sets' medians stay within the bound of the first set's.  Every
run's values, with host.fp_ref_ms and the unscaled host.wall_raw_s,
are printed as they arrive, after
the first run's `# host` line.  Exits
non-zero when a run fails or a spread or median check misses its bound
(setup_s is exempt from the spread check).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    """One benchmark process: (result JSON, {diagnostic: value},
    its `# host` line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, proc.returncode))
    diag = {}
    host = ""
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and fields[0] in ("host.fp_ref_ms", "host.wall_raw_s",
                                                 "rounds.n"):
            diag[fields[0]] = float(fields[1])
        if line.startswith("# host "):
            host = line
    return json.loads(lines[-1]), diag, host


def worse_by(first, second, better):
    """Share by which `second` is worse than `first`."""
    if better == "lower":
        return second / first - 1.0
    return first / second - 1.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    # values[(set, workload, metric)] -> list of run values
    values = {}
    ok = True
    seed = 1
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in workloads:
                result, diag, host = run_once(w, seed, args.seconds)
                if not values:
                    print(host, flush=True)
                row = ["set=%d" % (s + 1), w, "seed=%d" % seed,
                       "correct=%s" % result["correct"],
                       "attempted=%d" % result["attempted"],
                       "failed=%d" % result["failed"]]
                if not result["correct"] or result["failed"]:
                    ok = False
                for m in metrics:
                    v = result["metrics"][m["name"]]["value"]
                    values.setdefault((s, w, m["name"]), []).append(v)
                    row.append("%s=%.6g" % (m["name"], v))
                for k, v in sorted(diag.items()):
                    row.append("%s=%.6g" % (k, v))
                print(" ".join(row), flush=True)
            seed += 1

    print()
    print("%-16s %-12s %3s %12s %12s %12s %8s %6s  %s" %
          ("workload", "metric", "set", "median", "q1", "q3", "spread",
           "bound", "verdict"))
    for w in workloads:
        for m in metrics:
            first = None
            for s in range(args.sets):
                vals = values[(s, w, m["name"])]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                verdicts = []
                if m["name"] != "setup_s":
                    if spread > m["bound"]:
                        verdicts.append("SPREAD OVER BOUND")
                        ok = False
                    elif spread > m["bound"] / 3:
                        verdicts.append("spread within bound, above 1/3")
                    else:
                        verdicts.append("spread below 1/3 bound")
                if first is None:
                    first = med
                else:
                    drift = worse_by(first, med, m["better"])
                    agree = drift <= m["bound"]
                    ok = ok and agree
                    verdicts.append("median %+.1f%% vs set 1: %s" %
                                    (100 * drift,
                                     "agrees" if agree else "DISAGREES"))
                print("%-16s %-12s %3d %12.6g %12.6g %12.6g %7.2f%% %6.2f  %s" %
                      (w, m["name"], s + 1, med, q1, q3, 100 * spread,
                       m["bound"], "; ".join(verdicts)))
    print()
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
