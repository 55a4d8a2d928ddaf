#!/usr/bin/env python3
"""Build hostbench from source, measure one workload, print the result.

Run from the repository root:

    python3 hostbench/run.py --workload graph-translate --seed 1 \
        --seconds 15 --trace 0

The C++ program does the measuring and writes a full report; this
script builds it (CMake, into $CARGO_TARGET_DIR or .bench_build), runs
it, and prints as its last stdout line one JSON object holding the
metrics BENCHMARK.json names: the end-to-end ones with --trace 0, the
per-layer ones with --trace 1.  It exits non-zero, printing no result,
when the build, the run or the report fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(msg):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(1)


def jobs():
    return max(1, min(4, os.cpu_count() or 1))


def build(build_dir):
    """Configure once, then (re)build the benchmark program."""
    steps = []
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    steps.append(["cmake", "--build", build_dir, "--target", "hostbench",
                  "-j", str(jobs())])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], done.returncode))
    exe = os.path.join(build_dir, "hostbench")
    if not os.path.exists(exe):
        fail("build produced no %s" % exe)
    return exe


def git_info():
    """(sha, dirty) of the checkout, or ("none", "unknown") outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        return subprocess.run(["git"] + list(args), cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    try:
        sha = git("rev-parse", "HEAD")
        if sha.returncode != 0:
            return "none", "unknown"
        status = git("status", "--porcelain", "--untracked-files=no")
        return sha.stdout.strip(), "1" if status.stdout.strip() else "0"
    except (OSError, subprocess.TimeoutExpired):
        return "none", "unknown"


def result_line(report, wanted):
    """The contract's last line, from the full report."""
    by_name = {m["name"]: m for m in report["metrics"]}
    metrics = {}
    for spec in wanted:
        m = by_name.get(spec["name"])
        if m is None:
            fail("report lacks metric '%s'" % spec["name"])
        if m["unit"] != spec["unit"]:
            fail("metric '%s' has unit %s, BENCHMARK.json says %s"
                 % (spec["name"], m["unit"], spec["unit"]))
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": bool(report["correct"]) and report["failed"] == 0,
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload '%s'" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "hostbench")
    exe = build(build_dir)

    scratch = os.path.join(build_dir, "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    report_path = os.path.join(scratch, "report.json")
    sha, dirty = git_info()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.json"),
           "--scratch", scratch, "--report", report_path,
           "--git-sha", sha, "--git-dirty", dirty]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    try:
        sys.stdout.flush()
        try:
            done = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("run exceeded %d s" % RUN_TIMEOUT_S)
        if done.returncode != 0:
            fail("run exited %d" % done.returncode)
        try:
            with open(report_path) as f:
                report = json.load(f)
        except (OSError, ValueError) as e:
            fail("cannot read report: %s" % e)
        line = result_line(report, wanted)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
