#!/usr/bin/env python3
"""Build the GECKO benchmark driver from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload attack_sweep --seed 1 \
        --seconds 20 --trace 0

The driver is configured with CMake into .bench_build/ (Release) on
first use and rebuilt when sources change; build output goes to stderr
so the last line of stdout stays the driver's JSON result.  The exit
status is non-zero, with no result printed, when the simulator sources
are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench")
# A run measures --seconds plus a warm-up and a traced pass; anything
# near this is a hang.
RUN_TIMEOUT_S = 175


def build():
    """Configure (once) and build the driver; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env, check=False).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    tag = "%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid())
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [DRIVER,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.txt"),
           "--work-dir", os.path.join(BUILD, "work", tag),
           "--spans", os.path.join(spans_dir, tag + ".jsonl")]
    with subprocess.Popen(cmd, cwd=ROOT) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: driver exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
