#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

    python3 perfbench/steadiness.py --runs 10 [--sets 2] [--workloads a,b]
                                    [--seed0 1] [--seconds N] [--out FILE]

Runs every workload --runs times per set, each run with its own --seed
(seed0, seed0 + 1, ...; every set reuses the same seeds), and prints for each
end-to-end metric of each workload and set the median, the quartiles
(statistics.quantiles(values, n=4)) and IQR / median. A metric whose spread
exceeds its bound in BENCHMARK.json is flagged WIDE; one above a third of
its bound is flagged "> bound/3". With two sets, a metric whose second median
is worse than the first by more than its bound is flagged SHIFT. setup_s has
no spread check (it is judged by its median shift only).

Exit status 0 when nothing is flagged WIDE or SHIFT.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, result.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write every raw result here as JSON")
    args = parser.parse_args()

    metrics = bench["end_to_end"]
    raw = {}
    flagged = False
    for workload in args.workloads.split(","):
        medians = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.seed0 + i
                result = run_once(workload, seed, args.seconds)
                if not result["correct"]:
                    print("%s seed %d: WRONG ANSWERS" % (workload, seed))
                    flagged = True
                results.append(result)
                print("  %s set %d seed %d done" % (workload, s + 1, seed),
                      file=sys.stderr, flush=True)
            raw.setdefault(workload, []).append(results)
            set_medians = {}
            print("%s  set %d/%d  (%d runs, seeds %d..%d)" %
                  (workload, s + 1, args.sets, args.runs, args.seed0,
                   args.seed0 + args.runs - 1))
            print("  %-16s %14s %14s %14s %10s %6s" %
                  ("metric", "q1", "median", "q3", "iqr/med", "bound"))
            for metric in metrics:
                name = metric["name"]
                values = [r["metrics"][name]["value"] for r in results]
                q1, q2, q3, rel = spread(values)
                set_medians[name] = q2
                flag = ""
                if name != "setup_s":
                    if rel > metric["bound"]:
                        flag = "WIDE"
                        flagged = True
                    elif rel > metric["bound"] / 3:
                        flag = "> bound/3"
                print("  %-16s %14.6g %14.6g %14.6g %10.4f %6.3f %s" %
                      (name, q1, q2, q3, rel, metric["bound"], flag))
            medians.append(set_medians)
        if len(medians) == 2:
            print("%s  median shift, set 2 vs set 1 (worse is positive)" %
                  workload)
            for metric in metrics:
                name = metric["name"]
                a, b = medians[0][name], medians[1][name]
                worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                flag = ""
                if worse > metric["bound"]:
                    flag = "SHIFT"
                    flagged = True
                print("  %-16s %+10.4f  bound %.3f %s" %
                      (name, worse, metric["bound"], flag))
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
