#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <fig4-batch|interactive|shuffle-procs> \
        --seed <n> --seconds <s> --trace <0|1>

Builds, from source with `cargo build --release`, the `perfbench` package
and the `sparkline` package's `sparkline-worker` binary (the shuffle worker
process `shuffle-procs` spawns) into `$CARGO_TARGET_DIR` (default
`.bench_build`), so the worker sits next to `perfbench`, where the runtime
looks for it. Then runs the benchmark from the repository root. Build output
goes to standard error; the benchmark's last line of standard output is its
JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ("the benchmark", ["--manifest-path", os.path.join("perfbench", "Cargo.toml")]),
        ("sparkline-worker", ["-p", "sparkline", "--bin", "sparkline-worker"]),
    ]
    for what, args in builds:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet"] + args,
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            print(f"perfbench: set-up error: building {what} failed", file=sys.stderr)
            return 3
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
