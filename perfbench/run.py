#!/usr/bin/env python3
"""Build the benchmark package from source, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Cargo's output goes to standard error, so the last line of standard output
is the benchmark's JSON result. The build goes to $CARGO_TARGET_DIR when it
is set, otherwise to perfbench/target. The exit code is the benchmark's:
nonzero on a failed build or a failed correctness check.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840


def run_timeout(argv: list) -> float:
    """Seconds to wait for a result: the measuring time asked for, with
    room for the pass that ends after the deadline and the checks after it."""
    seconds = 10.0
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seconds":
            try:
                seconds = float(value)
            except ValueError:
                pass  # perfbench itself rejects the value
    return 3 * seconds + 60


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--bins",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    timeout = run_timeout(sys.argv[1:])
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {timeout:.0f} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
