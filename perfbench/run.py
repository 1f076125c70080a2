#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload tdrive_store_read --seed 1 \
        --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the stores, sockets and trace file of a run go
to a per-process directory beside it, removed when the run ends. Build
output goes to stderr, so the last line of stdout is the benchmark's
result object. Exits non-zero when the sources are missing or the
build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr) == 0


def main():
    os.chdir(ROOT)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Relative, so the AF_UNIX socket paths under it stay short.
    work_dir = os.path.relpath(
        os.path.join(build_root, "perfbench-work-%d" % os.getpid()))
    binary = os.path.join(build_dir, "perfbench")
    args = sys.argv[1:]
    if "--work-dir" not in args:
        args += ["--work-dir", work_dir]
    sys.stdout.flush()
    return subprocess.call([binary] + args)


if __name__ == "__main__":
    sys.exit(main())
