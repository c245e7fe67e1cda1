#!/usr/bin/env python3
"""Builds and runs sqlnf-bench.

Usage, from the repository root:

    python3 perfbench/run.py --workload point_rw --seed 1 --seconds 10 --trace 0

Workloads: point_rw, scan_join, design. The sqlnf library and the
benchmark are built from source (Release) into .bench_build/perfbench
on first use; build output goes to stderr so that the last line of
stdout is the benchmark's JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sqlnf_bench")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 600  # configure + build; later runs find it up to date


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group when it
    outlives `timeout`. Returns the exit code, or None on timeout."""
    with subprocess.Popen(cmd, stdout=stdout, start_new_session=True) as proc:
        try:
            return proc.wait(timeout=max(1, timeout))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "sqlnf_bench", "-j", jobs],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        code = run_group(step, deadline - time.monotonic(), sys.stderr)
        if code != 0:
            return False
    return True


def main():
    if not build():
        print("sqlnf-bench: build failed or timed out", file=sys.stderr)
        return 1
    code = run_group([BINARY] + sys.argv[1:], RUN_TIMEOUT_S, None)
    if code is None:
        print("sqlnf-bench: run timed out", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
