#!/usr/bin/env python3
"""Builds the benchmark driver from the checkout's sources and runs it.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/CMakeLists.txt (the
repository's library sources plus perfbench/driver.cc) into .bench_build/;
later calls only let the build tool confirm it is up to date. Build output
goes to .bench_build/perfbench-build.log and is shown on failure. The
driver's last line of standard output is the result JSON object.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
LOG = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
BINARY = os.path.join(BUILD, "jisc_perfbench")


def build():
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", "3"])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(LOG, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                return False
    return True


def main():
    if not build():
        with open(LOG) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        sys.stderr.write("perfbench: build failed (log: %s)\n" % LOG)
        # A failed configure leaves a cache that would skip it next time.
        cache = os.path.join(BUILD, "CMakeCache.txt")
        if os.path.exists(cache):
            os.remove(cache)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
