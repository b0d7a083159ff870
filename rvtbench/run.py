#!/usr/bin/env python3
"""Build and run the rvtbench benchmark from the root of a checkout.

    python3 rvtbench/run.py --workload campaign-k3 --seed 1 --seconds 10 --trace 0
    python3 rvtbench/run.py --self-check

Builds rvtbench/ (which compiles the repository's own library from ../src)
with CMake into $CARGO_TARGET_DIR/rvtbench (default .bench_build/rvtbench),
runs one workload, and passes its output through. The last stdout line is
the run's JSON result; it is printed only after its metric names were
checked against BENCHMARK.json. Build logs go to stderr.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"rvtbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("no rvt source tree here (need CMakeLists.txt and src/)", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "rvtbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "rvtbench", "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    binary = os.path.join(build_dir, "rvtbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no rvtbench binary")
    return binary


def expected_metrics(root, trace):
    """Metric names BENCHMARK.json declares for this kind of run, or None."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required", 2)

    root = os.getcwd()
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "rvtbench")
    build_dir = os.path.abspath(build_dir)
    binary = build(root, build_dir)
    scratch = os.path.join(build_dir, f"run-{os.getpid()}")

    if args.self_check:
        cmd = [binary, "--self-check", "--scratch", scratch]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(scratch, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if args.self_check:
        print("\n".join(lines))
        sys.exit(done.returncode)

    body, last = lines[:-1], (lines[-1] if lines else "")
    print("\n".join(body))
    try:
        result = json.loads(last)
    except ValueError:
        fail(f"no JSON result (exit {done.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys")
    want = expected_metrics(root, args.trace == 1)
    if want is not None and set(result["metrics"]) != want:
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ want)}")
    print(last, flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
