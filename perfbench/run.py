#!/usr/bin/env python3
"""Builds the decoder benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (a Release build of the decoder libraries plus the
benchmark binary) into .bench_build/perfbench; later runs only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit code is the benchmark's: non-zero when the
build fails, a flag is wrong, or any output fails its correctness check.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing and reaping it on timeout)."""
    try:
        return subprocess.run(cmd, timeout=timeout, check=False, **kwargs).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out after {timeout} s: {cmd[0]}", file=sys.stderr)
        return 1


def build(root, build_dir):
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    if not (build_dir / "CMakeCache.txt").exists():
        if run(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
               stdout=sys.stderr) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run(["cmake", "--build", str(build_dir), "--target", "ldpc_perfbench",
                "-j", jobs], BUILD_TIMEOUT_S, stdout=sys.stderr) == 0


def main():
    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "perfbench"
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = build_dir / "ldpc_perfbench"
    sys.stdout.flush()
    return run([str(binary)] + sys.argv[1:], RUN_TIMEOUT_S, cwd=root)


if __name__ == "__main__":
    sys.exit(main())
