#!/usr/bin/env python3
"""Builds and runs the isex end-to-end benchmark.

    python3 perfbench/run.py --workload paper_sweep|portfolio_mem|serve_mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The benchmark binary is compiled from this checkout's sources (Release) into
.bench_build/perfbench on first use; build output goes to stderr.  The last
line of stdout is the benchmark's JSON result.  See perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "isex_perfbench")


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, cwd=ROOT) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.call(
        ["cmake", "--build", BUILD, "--target", "isex_perfbench", "-j", jobs],
        stdout=sys.stderr, cwd=ROOT) == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stderr.flush()
    result = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
