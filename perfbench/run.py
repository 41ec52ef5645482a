#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload seg_swim --seed 1 --seconds 20 --trace 0

The Go toolchain's caches and the binary go to .bench_build/ under the
root, so the run reads and writes nothing outside the checkout. The last
line of standard output is the result JSON; traced runs also write their
spans to .bench_build/spans/. A failed build exits non-zero without
printing a result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A run is expected to end within 180 s; the Go side stops sampling at
# --seconds, so this only guards against a hung simulation.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOENV="off",
    )
    for d in ("gocache", "tmp", "config"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    return env


def build():
    binary = os.path.join(BUILD, "perfbench")
    cmd = ["go", "build", "-o", binary, "."]
    r = subprocess.run(cmd, cwd=HERE, env=go_env())
    if r.returncode != 0:
        # Outside a git work tree (or with git unusable) stamping VCS
        # information fails; build without it.
        r = subprocess.run(cmd[:2] + ["-buildvcs=false"] + cmd[2:], cwd=HERE, env=go_env())
    if r.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    binary = build()
    cmd = [binary, "-workload", a.workload, "-seed", str(a.seed),
           "-seconds", str(a.seconds), "-trace", str(a.trace)]
    if a.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["-spans", os.path.join(spans, "%s-seed%d.json" % (a.workload, a.seed))]
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
