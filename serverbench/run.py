#!/usr/bin/env python3
"""Builds serverbench (Release, failpoints compiled out) and runs one workload.

Usage, from the root of a checkout:

    python3 serverbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build tree is .bench_build/serverbench; data dirs and trace files go to
.bench_out/. Extra arguments (e.g. --inject-wrong-answer) pass through to the
benchmark binary. The last line of standard output is the JSON result.
"""

import hashlib
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "serverbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "serverbench")
RUN_TIMEOUT_S = 170


def source_identity():
    """The git sha when there is one, else a digest of the library sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return "sha=" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha=none source_digest=" + digest.hexdigest()[:16]


def build():
    """Builds the Release tree, configuring it first in a fresh checkout
    (the build step re-runs CMake by itself when a CMakeLists.txt changed).
    Quiet unless it fails."""
    steps = [["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:] + result.stderr[-4000:])
            sys.stderr.write("serverbench: build step failed: %s\n" %
                             " ".join(step))
            return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "server",
                                       "query_server.h")):
        sys.stderr.write("serverbench: library sources (src/) not found "
                         "next to %s\n" % HERE)
        return 2
    if not build():
        return 1
    print("# %s python=%s machine=%s" % (source_identity(),
                                         platform.python_version(),
                                         platform.machine()), flush=True)
    cmd = [BINARY, "--out-dir", OUT] + sys.argv[1:]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("serverbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
