#!/usr/bin/env python3
"""End-to-end xdb benchmark: builds the benchmark against the repository's
xdb library and runs one workload.

Usage, from the repository root:
  python3 perfbench/run.py --workload catalog_query --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Build files and the scratch database live
under .bench_build/ in the repository root.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("catalog_query", "catalog_ingest", "deep_descendant")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Runs a build step, sending its output to stderr."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        fail("xdb sources not found next to the benchmark")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target",
               "xdb_perfbench", "perfbench_selftest"], timeout=840)


def run_child(cmd, timeout):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % timeout)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")
    if not 1 <= args.seconds <= 120:
        fail("--seconds must be between 1 and 120")

    build()
    if args.selftest:
        code, out = run_child([os.path.join(BUILD, "perfbench_selftest"),
                               "--dir", os.path.join(BUILD, "selftest")], 600)
        sys.stdout.write(out)
        sys.exit(code)

    code, out = run_child(
        [os.path.join(BUILD, "xdb_perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--dir", os.path.join(BUILD, "run-" + args.workload)],
        timeout=args.seconds + 150)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or not lines[-1].startswith("{"):
        fail("benchmark exited with code %d" % code)
    print(lines[-1])


if __name__ == "__main__":
    main()
