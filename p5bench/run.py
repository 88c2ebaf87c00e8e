#!/usr/bin/env python3
"""Build and run the p5sim benchmark from the root of a checkout.

    python3 p5bench/run.py --workload W --seed N --seconds S --trace 0|1

Configures and builds p5bench (and the simulator library from src/)
under $CARGO_TARGET_DIR, default .bench_build, then runs it with the
given arguments. Build output goes to stderr; the benchmark's stdout,
whose last line is the JSON result, passes through unchanged.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure (first time only) and build; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("p5bench: no simulator sources at %s/src; run from the "
                 "root of a p5sim checkout" % ROOT)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "p5bench")


def main():
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        sys.exit("p5bench: build failed (%s)" % e)
    args = [binary] + sys.argv[1:] + [
        "--reference", os.path.join(HERE, "reference.json"),
        "--work-dir", os.path.join(build_dir, "work")]
    sys.exit(subprocess.run(args).returncode)


if __name__ == "__main__":
    main()
