#!/usr/bin/env python3
"""Build the benchmark from this checkout and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The arguments go to perfbench/main.exe unchanged; see perfbench/README.md.
The build goes to .bench_build/ with the dune cache off, so nothing is
written outside the checkout.  The last line of standard output is the
benchmark's JSON result; build output goes to standard error.
"""

import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "mpisim"))):
        fail("run from the root of the repository: dune-project or lib/mpisim not found")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    build_root = os.path.abspath(".bench_build")
    os.makedirs(build_root, exist_ok=True)
    build_dir = os.path.join(build_root, "dune")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", build_dir, "--profile", "release",
         "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed", build.returncode)
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    # On SIGTERM, subprocess.run kills and reaps the benchmark before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s", 3)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
