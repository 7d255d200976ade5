#!/usr/bin/env python3
"""Build and run the qutrit-stack benchmark.

Usage (from the repository root):

    python3 qbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `serve` binary of the main workspace and the `qbench` harness
(release profile, offline, into $CARGO_TARGET_DIR or `.bench_build`),
then runs the harness. Build output goes to standard error; the
harness's last line of standard output is the result JSON. Exits with
the harness's code, or 1 if a build fails.
"""

import os
import subprocess
import sys

WORKLOADS = ("serve_hot", "serve_neuron", "fig11_noisy", "wide_replay")


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def parse(argv):
    args = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail(f"unknown flag {flag}", 2)
        value = next(it, None)
        if value is None:
            fail(f"{flag} needs a value", 2)
        args[flag[2:]] = value
    for key in ("workload", "seed", "seconds", "trace"):
        if key not in args:
            fail(f"--{key} is required", 2)
    if args["workload"] not in WORKLOADS:
        fail(f"unknown workload {args['workload']}", 2)
    return args


def build(root, target, cargo_args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + cargo_args
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    args = parse(sys.argv[1:])
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "crates", "qudit-server", "Cargo.toml")):
        fail("the qutrit workspace sources are missing next to the benchmark")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)

    build(root, target, ["-p", "qudit-server", "--bin", "serve"])
    build(root, target, ["--manifest-path", os.path.join(here, "Cargo.toml")])

    cmd = [
        os.path.join(target, "release", "qbench"),
        "--workload", args["workload"],
        "--seed", args["seed"],
        "--seconds", args["seconds"],
        "--trace", args["trace"],
        "--serve-bin", os.path.join(target, "release", "serve"),
        "--out-dir", os.path.join(here, "out"),
    ]
    sys.exit(subprocess.run(cmd, cwd=root).returncode)


if __name__ == "__main__":
    main()
