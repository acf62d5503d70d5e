#!/usr/bin/env python3
"""Build and run the fsml repository benchmark.

    python3 perfbench/run.py --workload train_reduced --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (and the fsml libraries it
drives, from src/) into .bench_build/, runs one workload, and passes the
benchmark's stdout through: provenance, digests, a report line, and as the
last line the result object. Exits non-zero, printing no result, when the
build fails (e.g. the fsml sources are missing) or the run fails.

    python3 perfbench/run.py --overhead --workload sweep_table5 --seed 1 --seconds 20

runs the workload untraced and traced and prints the tracing overhead.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("train_reduced", "sweep_table5", "serve_steady")


def source_digest():
    """Content hash of everything the benchmark builds, so stored digests
    of one seed are compared only against runs of the same sources."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:12]


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        return ""


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "fsml_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr; stdout is reserved for results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def run_bench(args, trace, rev, capture=False):
    cmd = [os.path.join(BUILD_DIR, "fsml_perfbench"),
           "--workload=" + args.workload, "--seed=" + str(args.seed),
           "--seconds=" + str(args.seconds), "--trace=" + str(trace),
           "--work-dir=" + os.path.join(BUILD_DIR, "work"), "--rev=" + rev]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if not capture:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    if proc.returncode != 0:
        if capture:
            sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    return proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--overhead", action="store_true",
                        help="run untraced and traced; print the overhead")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "training.hpp")):
        sys.exit("perfbench: run from the repository root (src/ not found)")

    build()
    rev = "src-" + source_digest()
    git = git_rev()
    if git:
        rev += "-git-" + git

    if not args.overhead:
        run_bench(args, args.trace, rev)
        return

    plain = json.loads(run_bench(args, 0, rev, True).splitlines()[-1])
    traced = json.loads(run_bench(args, 1, rev, True).splitlines()[-1])
    untraced_ms = plain["metrics"]["latency_p50_ms"]["value"]
    traced_ms = traced["metrics"]["trace.latency_p50_ms"]["value"]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "correct": plain["correct"] and traced["correct"],
        "untraced_latency_p50_ms": untraced_ms,
        "traced_latency_p50_ms": traced_ms,
        "overhead_frac": traced_ms / untraced_ms - 1.0}))


if __name__ == "__main__":
    main()
