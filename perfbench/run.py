#!/usr/bin/env python3
"""Build and run the repository benchmark from the repository root.

    python3 perfbench/run.py --workload signoff --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selfcheck

Builds perfbench/main.exe and the nsigma CLI (the `serve` daemon) in
the release profile, runs `main.exe --prepare` (characterizes the
library on the first run in a checkout, in a process of its own, so
its memory peak never reaches a measured process), then replaces
itself with the benchmark, passing the arguments through.  Its
standard output ends with the result line.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")) or not os.path.isdir(
        os.path.join(root, "lib")
    ):
        sys.stderr.write("perfbench: run from the repository root (lib/ and dune-project)\n")
        return 2
    # The shared dune cache lives outside the checkout: keep the build
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./perfbench/main.exe", "./bin/nsigma_cli.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    prepare = subprocess.run([exe, "--prepare"], stdout=sys.stderr)
    if prepare.returncode != 0:
        sys.stderr.write("perfbench: library preparation failed\n")
        return prepare.returncode or 1
    # An end-to-end run pins itself, and so the serve daemon it spawns,
    # to one CPU: the speed probes then time the core the measured work
    # runs on.  The traced run keeps every CPU for its 2-domain pool.
    args = sys.argv[1:]
    trace = args[args.index("--trace") + 1] if "--trace" in args[:-1] else None
    if trace == "0":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.execv(exe, [exe] + args)


if __name__ == "__main__":
    sys.exit(main())
