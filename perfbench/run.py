#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload plant --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --test          # the benchmark's own self-tests

Run it from anywhere; paths are taken relative to this file. The build
goes to .bench_build/perfbench at the repository root (configured once,
then incremental), build output goes to stderr, and the benchmark's last
line on stdout is its JSON result. Exits non-zero, printing no result,
when the build fails (for example when the system sources are absent).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")


def cached_source_dir():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build(target):
    if cached_source_dir() not in (None, HERE):
        subprocess.run(["cmake", "-E", "rm", "-rf", BUILD], check=True)
    if cached_source_dir() is None:
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def main(argv):
    target = "perfbench_test" if argv == ["--test"] else "perfbench"
    try:
        binary = build(target)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if target == "perfbench_test":
        return subprocess.run([binary]).returncode
    sys.stdout.flush()
    os.execv(binary, [binary, *argv, "--out", OUT])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
