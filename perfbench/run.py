#!/usr/bin/env python3
"""Repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload serve_point --seed 1 --seconds 30 --trace 0

Builds the CulinaryLab sources next to this directory together with the
`perfbench` binary (Release, into $CARGO_TARGET_DIR or .bench_build), writes
the paper-scale world once per build directory (untimed prep), then runs the
workload. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; build output goes to standard error.

Workloads: serve_point, serve_bulk, fig4_paper (see WORKLOADS.md).
--seed is the traffic seed (serving) or null-model seed (Fig 4);
--world-seed picks the world (0 = the datagen spec default).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_point", "serve_bulk", "fig4_paper")
# A run measures --seconds plus untimed prep, set-up and reference answers.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def check(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        log("%s failed: %s" % (cmd[0], err))
        sys.exit(3)
    if result.returncode != 0:
        log("%s exited with %d" % (" ".join(cmd), result.returncode))
        sys.exit(3)


def build(build_root):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "serving"))):
        log("no CulinaryLab sources in %s; nothing to build" % ROOT)
        sys.exit(3)
    cmake_dir = os.path.join(build_root, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        check(["cmake", "-S", HERE, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"], timeout=600)
    check(["cmake", "--build", cmake_dir, "--target", "perfbench",
           "culinary_serve", "-j", BUILD_JOBS], timeout=1800)
    return (os.path.join(cmake_dir, "perfbench"),
            os.path.join(cmake_dir, "culinarylab", "tools", "culinary_serve"))


def prepare_world(perfbench, build_root, world_seed):
    world_dir = os.path.join(build_root, "world-%d" % world_seed)
    if os.path.isdir(world_dir):
        return world_dir
    staging = world_dir + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    check([perfbench, "prep", "--world-seed=%d" % world_seed,
           "--out=" + staging], timeout=600)
    os.rename(staging, world_dir)
    return world_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--world-seed", type=int, default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.world_seed < 0 or args.seconds < 1:
        parser.error("seeds must be >= 0 and --seconds >= 1")

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    perfbench, serve = build(build_root)
    world_dir = prepare_world(perfbench, build_root, args.world_seed)
    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [perfbench, "run",
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds,
           "--trace=%d" % args.trace,
           "--world=" + world_dir,
           "--world-seed=%d" % args.world_seed,
           "--serve=" + serve,
           "--trace-out=" + os.path.join(
               trace_dir, "%s.spans.jsonl" % args.workload)]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        sys.exit(3)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
