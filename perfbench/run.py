#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload explain_cold --seed 1 \
        --seconds 20 --trace 0

Run it from the root of a checkout. It configures and builds the
benchmark binary (perfbench/CMakeLists.txt, which compiles the htapex
library from src/) into the build directory, runs one workload, checks
that the result names exactly the metrics BENCHMARK.json lists, and exits
with the binary's status. The last line of stdout is the JSON result.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build; the
build log, compiler temporaries, the write-ahead log of serve_feedback and
the span dumps of traced runs all stay inside it.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TARGET = "htapex_perfbench"
BUILD_TYPE = "RelWithDebInfo"
# One workload run, build excluded, must stay well inside 180 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def source_id():
    """git commit when available (a bare checkout has none) plus a hash of
    the sources the binary is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    return f"git={commit},src-sha256={digest.hexdigest()[:16]}"


def build(out_dir):
    os.makedirs(os.path.join(out_dir, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", out_dir, "--target", TARGET,
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return os.path.join(out_dir, TARGET)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    expected = spec["per_layer" if args.trace == "1" else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in expected}

    out_dir = build_dir()
    binary = build(out_dir)
    work_dir = os.path.join(out_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir, "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail(f"no JSON result (exit code {proc.returncode})")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        wrong_units = sorted(n for n in got
                             if n in expected and got[n] != expected[n])
        fail("metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(expected) - set(got))}, "
             f"extra {sorted(set(got) - set(expected))}, "
             f"wrong units {wrong_units}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
