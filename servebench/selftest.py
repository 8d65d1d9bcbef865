#!/usr/bin/env python3
"""Checker self-test for the serving benchmark, at tiny scale.

    python3 servebench/selftest.py

Clean runs of every workload must pass.  Each injected fault must make its
run fail, with "correct": false and exit code 1, so a broken checker cannot
pass silently:
  expected  one expected Q answer is corrupted;
  epoch     an update reply repeats the previous epoch;
  atom      two reference atoms come back as one returned atom.
Builds through run.py; exits non-zero when any case misbehaves.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (workload, trace, inject, must pass)
CASES = [
    ("hot-zipf", "0", None, True),
    ("cold-rules", "0", None, True),
    ("bgp-churn", "0", None, True),
    ("bgp-churn", "1", None, True),
    ("hot-zipf", "0", "expected", False),
    ("bgp-churn", "0", "epoch", False),
    ("hot-zipf", "0", "atom", False),
]


def run(workload, trace, inject):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", trace, "--scale", "tiny",
           "--workdir", os.path.join(".bench_build", "servebench-selftest")]
    if inject:
        cmd += ["--inject", inject]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = None
    lines = p.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, result, p.stderr


def main():
    bad = 0
    for workload, trace, inject, must_pass in CASES:
        rc, result, err = run(workload, trace, inject)
        correct = result is not None and result["correct"]
        if must_pass:
            ok = rc == 0 and correct
        else:
            ok = rc == 1 and result is not None and not correct
        print("%s %-10s trace=%s inject=%-8s exit %d, correct=%s" %
              ("ok  " if ok else "FAIL", workload, trace, inject or "-", rc,
               None if result is None else result["correct"]))
        if not ok:
            bad += 1
            sys.stdout.write(err[-2000:])
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
