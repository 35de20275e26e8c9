#!/usr/bin/env python3
"""Pipeline benchmark of unicon (perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the library and the benchmark binary from source (CMake, Release)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset, then runs one workload and relays its output.  The last
line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; build logs go to stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ftwc_structural", "ftwc_long_horizon", "model_text", "server_mix")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src; run from a full checkout")
    directory = build_dir()
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", directory, "-j", jobs], stdout=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(directory, "unicon_perfbench")


def source_id():
    """Git commit when the checkout is a repository, plus a hash of the
    library and benchmark sources (the checkout the benchmark is run from
    need not be a git repository).  Bytecode caches are not sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = "tree:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            ident = "git:" + git.stdout.strip() + "," + ident
    return ident


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None without it)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--root", ROOT, "--source-id", source_id()]
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    if child.returncode != 0:
        fail(f"benchmark exited with code {child.returncode}", child.returncode)

    lines = child.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 1)
    expected = expected_metrics(args.trace == 1)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if expected is not None and printed != expected:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(printed) ^ set(expected))}", 1)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
