#!/usr/bin/env python3
"""Build and run the memtier benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Run it from the repository root. It builds perfbench/ -- the benchmark
binary plus the memtier libraries from src/ -- with CMake into
.bench_build/ (or $CARGO_TARGET_DIR when set), runs one workload, and
prints the result as one JSON object on the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it carries the run's provenance (source revision,
compiler, build type, host CPU, MEMTIER_* environment). It is also
written with the result to .bench_out/<workload>-seed<N>-trace<T>/
record.json. Traced runs leave trace.json (Chrome trace events) and
self_time.tsv in the same directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BINARY = "memtier_perfbench"

# Environment overrides that change what the simulator measures.
REFUSED_ENV = (
    "MEMTIER_CHECK_INVARIANTS",
    "MEMTIER_SCALAR_PATH",
    "MEMTIER_THP",
    "MEMTIER_HOST_THREADS",
    "MEMTIER_COPY_THREADS",
)

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args()


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure once, then build incrementally; progress to stderr."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out / BINARY


def cmake_cache(key):
    cache = build_dir() / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def git(*args):
    try:
        r = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest():
    """sha256 over every file the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args, memtier_env):
    sha = dirty = None
    if (ROOT / ".git").exists():  # Not an enclosing repository's sha.
        sha = git("rev-parse", "HEAD")
        if sha is not None:
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        r = subprocess.run([compiler, "--version"], capture_output=True,
                           text=True, timeout=30)
        version = r.stdout.splitlines()[0] if r.stdout else None
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "compiler": version or compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "memtier_env": memtier_env,
        "args": vars(args),
    }


def main():
    args = parse_args()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"memtier sources not found under {ROOT}; run from a full checkout")
    memtier_env = {k: v for k, v in sorted(os.environ.items())
                   if k.startswith("MEMTIER_")}
    refused = [k for k in REFUSED_ENV if k in memtier_env]
    if refused:
        fail("refusing to run: " + ", ".join(refused) +
             " would change what is measured; unset it")

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spill = out / "spill"
    shutil.rmtree(out, ignore_errors=True)
    spill.mkdir(parents=True)
    prov = provenance(args, memtier_env)
    (out / "provenance.json").write_text(json.dumps(prov, indent=1) + "\n")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out", str(out)]
    env = dict(os.environ, MEMTIER_SPILL_DIR=str(spill))
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(spill, ignore_errors=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"benchmark exited with {r.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")

    (out / "record.json").write_text(
        json.dumps({"provenance": prov, "result": result}, indent=1) + "\n")
    print("perfbench provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
