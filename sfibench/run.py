#!/usr/bin/env python3
"""Build and run the sfikit benchmark.

Usage, from the root of the repository:

    python3 sfibench/run.py --workload faas_capacity --seed 1 \
        --seconds 20 --trace 0

Builds the benchmark program (sfibench/CMakeLists.txt, which compiles the sfikit
libraries from src/) into $CARGO_TARGET_DIR or .bench_build/, runs one
workload, and passes its output through. The last line of
standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full record (host shape, notes, errors) and, with --trace 1, the
spans go to <build dir>/results/. See sfibench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("faas_capacity", "library_embed")
# A run may take 180 s; the program finishes well inside this.
RUN_TIMEOUT_S = 170


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the program; returns its path."""
    bdir = os.path.join(build_root(), "sfibench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "sfibench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("sfibench: build failed (%s)\n" % " ".join(cmd))
                return None
    return os.path.join(bdir, "sfibench")


def source_digest():
    """sha256 over the benchmark's and the library's sources."""
    h = hashlib.sha256()
    for top in ("src", "sfibench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 1
    out_dir = os.path.join(build_root(), "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--expected", os.path.join(HERE, "expected.txt"),
           "--out", out_dir, "--commit", commit(),
           "--source-digest", source_digest()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.stderr.write("sfibench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        sys.stderr.write("sfibench: program exited with %d\n" % r.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(r.stdout)
        sys.stderr.write("sfibench: program printed no result\n")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
