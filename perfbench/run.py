#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout's sources and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload toolchain --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-expected perfbench/expected.txt

The repository's CMake project is configured with perfbench/perfbench.cmake
as its project include, and only the driver target (plus libnoelle) is
built, into $CARGO_TARGET_DIR (default .bench_build). Every argument is
passed to the driver, whose last line of standard output is the JSON
result. Build output goes to standard error.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TARGET = "noelle-perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {BENCH_DIR.name}/ (need CMakeLists.txt and src/)")
    cmake_dir = build_dir / "perfbench-cmake"
    if not (cmake_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT), "-B", str(cmake_dir),
                     f"-DCMAKE_PROJECT_INCLUDE={BENCH_DIR / 'perfbench.cmake'}"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(cmake_dir), "--target", TARGET,
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = cmake_dir / "perfbench" / TARGET
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    out_dir = build_dir / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    args = [str(binary), *sys.argv[1:],
            "--expected", str(BENCH_DIR / "expected.txt"),
            "--out-dir", str(out_dir), "--git-rev", git_rev()]
    sys.stdout.flush()
    os.execv(str(binary), args)


if __name__ == "__main__":
    main()
