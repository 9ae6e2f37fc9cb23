#!/usr/bin/env python3
"""Build and run the dangle benchmark.

    python3 perfbench/run.py --workload <server-mix|olden|minic-pipeline> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `perfbench` package in
this directory (a cargo workspace of its own that depends on the
repository's crates by path) in release mode into $CARGO_TARGET_DIR, or
`.bench_build` when that is unset, then runs it with the given arguments.
The last line of standard output is the benchmark's JSON result; the exit
code is non-zero when the build, the run or a correctness check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    try:
        run = subprocess.run(
            [exe] + sys.argv[1:],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if run.returncode != 0 or not isinstance(result, dict) or result.get("correct") is not True:
        print(f"perfbench: run failed (exit code {run.returncode})", file=sys.stderr)
        return run.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
