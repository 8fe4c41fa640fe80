#!/usr/bin/env python3
"""Build the ODEX benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sort --seed 1 --seconds 15 --trace 0

Workloads: sort, sort-bucket, compact-2server, oram (see README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.

The benchmark program (perfbench/odexbench.ml) is built with dune into
.bench_build/ and run from the checkout root; temporary stores and Chrome
traces go to .bench_out/. Build output goes to stderr, so the last line
of standard output is always the program's result object. The exit code
is not 0 when the checkout lacks the library sources, the build fails,
the program fails, or it overruns its time limit.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
TARGET = "./perfbench/odexbench.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Hash of the sources the benchmark builds, standing in for a git
    revision in checkouts that are not repositories."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:12]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sort", "sort-bucket", "compact-2server", "oram"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("missing %s: run from a full checkout of the repository" % need)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    # The shared dune cache lives outside the checkout; keep it off.
    build = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "--cache", "disabled", TARGET]
    try:
        b = subprocess.run(build, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    sys.stderr.write(b.stdout.decode(errors="replace"))
    if b.returncode != 0:
        fail("build failed")

    rev = "src:" + source_digest()
    g = git_rev()
    if g:
        rev = "git:%s %s" % (g, rev)
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "odexbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR, "--rev", rev]
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark overran %d s" % RUN_TIMEOUT_S)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
