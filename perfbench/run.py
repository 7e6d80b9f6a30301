#!/usr/bin/env python3
"""Builds the benchmark and the `sqlgen` CLI from source, then runs one
workload. Run from the repository root:

    python3 perfbench/run.py --workload range-est --seed 1 --seconds 25 --trace 0

Build output goes to `$CARGO_TARGET_DIR` (default `.bench_build`); the
benchmark's scratch files (paged images, the served checkpoint, the
determinism reference) go under it too. The last line of stdout is the
result object; everything else goes to stderr.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # The benchmark itself, then the CLI whose `serve` it drives.
    for extra in ([], ["-p", "learned-sqlgen", "--bin", "sqlgen"]):
        done = subprocess.run(build + extra, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed ({done.returncode})", file=sys.stderr)
            sys.exit(1)
    bindir = os.path.join(target, "release")
    argv = [
        os.path.join(bindir, "perfbench"),
        *sys.argv[1:],
        "--sqlgen",
        os.path.join(bindir, "sqlgen"),
        "--state",
        os.path.join(target, "perfbench-state"),
    ]
    os.execv(argv[0], argv)


if __name__ == "__main__":
    main()
