#!/usr/bin/env python3
"""Build the wsinterop benchmark and run one workload in a fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload paper_matrix --seed 1 --seconds 30 --trace 0

Builds `wsitool` and the `perfbench` runner (release, offline) into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then
runs it. Its standard output ends with one JSON result line; its exit
code is passed through (nonzero when a build fails or an output check
fails).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        [os.path.join(ROOT, "Cargo.toml"), "--bin", "wsitool"],
        [os.path.join(HERE, "Cargo.toml")],
    ]
    for manifest in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path"]
        # Cargo's own output goes to stderr: stdout carries only results.
        if subprocess.run(cmd + manifest, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    runner = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--wsitool",
        os.path.join(release, "wsitool"),
        "--work-dir",
        work,
    ]
    return subprocess.run(runner).returncode


if __name__ == "__main__":
    sys.exit(main())
