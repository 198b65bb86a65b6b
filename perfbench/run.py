#!/usr/bin/env python3
"""Builds and runs the Narada repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload terminating --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --seed 1 \\
        --write-reference perfbench/reference/gen-synth.json

The first run configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset; later runs rebuild incrementally.  Build output goes to stderr.  The
benchmark binary's stdout is passed through unchanged: human-readable lines,
then one JSON result line.  See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no Narada sources under %s/src" % ROOT)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for argv in steps:
        done = subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(argv))
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", metavar="FILE",
                        help="record the generation probe's reference")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench-selftest")
        sys.exit(subprocess.run([binary], cwd=ROOT).returncode)
    binary = build("narada-perfbench")
    if args.write_reference:
        argv = [binary, "--seed", str(args.seed), "--root", ROOT,
                "--write-reference", os.path.abspath(args.write_reference)]
        sys.exit(subprocess.run(argv, cwd=ROOT).returncode)
    if not args.workload:
        parser.error("--workload is required")

    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--root", ROOT, "--out", os.path.join(build_dir(), "out")]
    sys.exit(subprocess.run(argv, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
