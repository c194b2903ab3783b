#!/usr/bin/env python3
"""Build and run mtlb-sim's benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fig3_mtlb --seed 1 --seconds 20 \
        --trace 0 [key=value ...]

Configures and builds perfbench/ (which compiles the simulator from
src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs the benchmark binary with the same arguments. The binary
prints a metric table and, as its last line, one JSON result object.
With --trace 1 the in-memory spans are written to
<build dir>/trace-<workload>-seed<seed>.json at the end of the run.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, env):
    """Configure once, then bring the binary up to date. Build output
    goes to stderr so the result stays the last line of stdout."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir],
            stdout=sys.stderr, check=True, env=env)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", "4"],
        stdout=sys.stderr, check=True, env=env)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("overrides", nargs="*", metavar="key=value",
                        help="machine overrides applied to every job")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    # Keep the compiler's temporary files inside the build tree too.
    tmp_dir = os.path.join(build_dir, "tmp")
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        os.makedirs(tmp_dir, exist_ok=True)
        binary = build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary,
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--reference", os.path.join(HERE, "reference.json")]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-seed{args.seed}.json")]
    return subprocess.run(cmd + args.overrides, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
