#!/usr/bin/env python3
"""Builds the QuClassi benchmark and runs one workload on one CPU.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Every argument goes to the benchmark binary unchanged; its last line of
standard output is the JSON result. The build goes to CARGO_TARGET_DIR when
it is set, else to perfbench/target, and its messages go to standard error.

The binary runs confined to one CPU (the highest-numbered one this process
may use): client, scheduler and event-loop threads then hand off on one
core, which README.md shows to be far steadier than letting them migrate.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "quclassi-perfbench")
    cpu = max(os.sched_getaffinity(0))
    try:
        run = subprocess.run(
            [binary] + sys.argv[1:],
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark still running after {RUN_TIMEOUT_S} s, killed",
              file=sys.stderr)
        sys.exit(124)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
