#!/usr/bin/env python3
"""The benchmark's own test: its per-job figures must be reproducible.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (default: all four) it runs the benchmark twice untraced
and once traced at one fixed seed, with a short run length, and checks:

  * every run reports correct = true and no failures;
  * the two untraced runs agree exactly on the counted I/Os, bytes moved
    and trace digest of every job both ran;
  * in the traced run, each job's traced leg matches its untraced leg,
    and both match the untraced runs: telemetry changes no trace.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["sort", "sort-bucket", "compact-2server", "oram"]
SEED = 7
SECONDS = "1"


def run(workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = [json.loads(l) for l in r.stdout.splitlines() if l.startswith("{")]
    if r.returncode != 0 or not lines:
        return None, {}
    jobs = {}
    for l in lines:
        if l.get("type") == "job":
            key = (l["index"], l["call"], l["traced"])
            jobs[key] = (l["ios"], l["bytes"], l["digest"])
    return lines[-1], jobs


def check(workload):
    problems = []
    runs = [run(workload, 0), run(workload, 0), run(workload, 1)]
    for i, (result, _) in enumerate(runs):
        if result is None:
            problems.append("run %d exited with an error" % i)
        elif not result.get("correct") or result.get("failed"):
            problems.append("run %d: correct=%s failed=%s" % (i, result.get("correct"), result.get("failed")))
    (_, a), (_, b), (_, t) = runs
    common = set(a) & set(b)
    if not common:
        problems.append("the untraced runs share no job")
    for key in sorted(common):
        if a[key] != b[key]:
            problems.append("untraced runs differ on job %s: %s vs %s" % (key, a[key], b[key]))
    traced = [k for k in t if k[2]]
    if not traced:
        problems.append("the traced run has no traced job")
    for (index, call, _) in traced:
        leg = t[(index, call, True)]
        for ref in (t.get((index, call, False)), a.get((index, call, False))):
            if ref is not None and ref != leg:
                problems.append("traced job %d %s differs from untraced: %s vs %s" % (index, call, leg, ref))
    return problems


def main():
    failed = False
    for w in sys.argv[1:] or WORKLOADS:
        problems = check(w)
        print("%-16s %s" % (w, "ok" if not problems else "FAILED"))
        for p in problems:
            print("  " + p)
        failed = failed or bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
