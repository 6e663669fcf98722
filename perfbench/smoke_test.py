#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (a few minutes, mostly build).

    python3 perfbench/smoke_test.py

Run from the repository root. For every workload in BENCHMARK.json it runs
perfbench/run.py --size tiny untraced and traced on the default seed and
traced on a second seed, and checks that:

  * the last stdout line is the result object, with correct = true,
    failed = 0 and attempted >= 1;
  * every end-to-end metric (untraced) or per-layer metric (traced) is
    printed with its BENCHMARK.json unit, and end-to-end values are > 0;
  * a traced run leaves a Chrome trace-event JSON with the layer spans
    and a self-time table;
  * no spill directory is left behind.

It also checks that the benchmark refuses to run under an environment
override that changes what is measured, and that it fails without a
result outside a full checkout. Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / ".bench_out"

# Spans every traced run of a workload must contain.
SPANS = {"exp.cell", "sim.engine_init", "bench.traced_run"}
GRAPH_SPANS = {"bigraph.prepare", "bigraph.materialize", "apps.kernel"}


def run(args, env=None, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)


def result_of(proc, what):
    check(proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    check(lines, f"{what}: no output")
    res = json.loads(lines[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result keys {sorted(res)}")
    check(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
          f"{what}: correct={res['correct']} failed={res['failed']} "
          f"attempted={res['attempted']}\n{proc.stderr[-2000:]}")
    return res


def check_metrics(res, section, what):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = res["metrics"]
    check(set(got) == set(want), f"{what}: metric names differ: "
          f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        check(got[name]["unit"] == unit, f"{what}: {name} unit {got[name]['unit']} != {unit}")
        value = got[name]["value"]
        check(isinstance(value, (int, float)), f"{what}: {name} is not a number")
        if section == "end_to_end":
            check(value > 0, f"{what}: {name} = {value} is not positive")


def check_trace(workload, seed, graph):
    out = OUT / f"{workload}-seed{seed}-trace1"
    trace = json.loads((out / "trace.json").read_text())
    names = {e["name"] for e in trace["traceEvents"] if e.get("ph") == "X"}
    want = SPANS | (GRAPH_SPANS if graph else {"serve.run"})
    check(want <= names, f"{workload}: trace lacks spans {sorted(want - names)}")
    check("source_sha256" in trace["otherData"], f"{workload}: trace lacks provenance")
    rows = (out / "self_time.tsv").read_text().splitlines()
    check(rows[0].split("\t") == ["layer", "span", "count", "total_s", "self_s"]
          and len(rows) > len(want), f"{workload}: bad self-time table")
    check(not (out / "spill").exists(), f"{workload}: spill directory left behind")


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        graph = not name.startswith("kv")
        base = ["--workload", name, "--seconds", "1", "--size", "tiny"]
        res = result_of(run(base + ["--seed", "1", "--trace", "0"]), f"{name} untraced")
        check_metrics(res, "end_to_end", f"{name} untraced")
        for seed in ("1", "2"):
            what = f"{name} traced seed {seed}"
            res = result_of(run(base + ["--seed", seed, "--trace", "1"]), what)
            check_metrics(res, "per_layer", what)
            check_trace(name, seed, graph)
        print(f"ok: {name}")
    check(not (ROOT / ".bigraph_spill").exists(), ".bigraph_spill left in the checkout")

    env = dict(os.environ, MEMTIER_THP="ON")
    proc = run(["--workload", "kv_zipf", "--seconds", "1", "--size", "tiny"], env=env)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "ran under MEMTIER_THP instead of refusing")
    print("ok: refuses MEMTIER_THP")

    bare = OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in (ROOT / "perfbench").iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = run(["--workload", "kv_zipf", "--seconds", "1", "--seed", "1", "--trace", "0"],
               cwd=bare)
    check(proc.returncode != 0 and proc.stdout.strip() == "",
          "produced output without the memtier sources")
    shutil.rmtree(bare)
    print("ok: fails without sources")
    print("smoke test passed")


if __name__ == "__main__":
    main()
