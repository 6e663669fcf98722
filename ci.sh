#!/bin/bash
# Continuous-integration gate, meant to be run from the repository root:
#
#   1. tier-1 verify: warnings-as-errors build + the full test suite,
#      then examples/policy_explorer once per mode under the invariant
#      checker, so every example-reachable selection runs end to end;
#   2. an ASan/UBSan build of the test suite, to catch memory and UB
#      bugs the functional tests would miss;
#   3. a ThreadSanitizer pass: the test binaries holding the sweep
#      cell pool and bigraph artifact cache tests, built with
#      -fsanitize=thread, run those tests; any data race fails;
#   4. a serving smoke pass: a short data-serving tail sweep (KV + LSM,
#      two policies) run under the ASan/UBSan build, so the open-loop
#      driver, the stores and the latency histograms get a sanitizer
#      pass on every change;
#   5. a chaos pass: the tier-1 binaries re-run with the kernel
#      invariant checker forced on and a moderate fault-injection plan
#      pushed into the chaos-aware tests, plus a segmented-CSR smoke
#      cell (PageRank on the out-of-core path at 4 segments) under the
#      invariant checker;
#   6. a THP pass: the tier-1 binaries re-run with transparent huge
#      pages forced on (MEMTIER_THP=ON) under the invariant checker, so
#      every run exercises PMD mappings, collapse and splits. Tests
#      whose golden values need the 4 KiB-only baseline skip
#      themselves;
#   7. a scalar-path pass: the tier-1 binaries re-run with
#      MEMTIER_SCALAR_PATH=ON, forcing the element-at-a-time reference
#      pipeline. The hotpath golden tests pin both paths to the same
#      captured observables, so this pass plus pass 1 is a full
#      scalar-vs-batched diff of every golden workload;
#   8. a perf-regression gate: bench/hotpath_speed re-run at its
#      committed parameters and compared against the checked-in
#      BENCH_hotpath.json (prints both records' host, fails when
#      batched throughput drops below 80% of the recorded baseline,
#      and when the same run's sampled throughput -- perf-mem sampler
#      on -- drops below 70% of its unsampled throughput),
#      then bench/scale_sweep against BENCH_scale.json: the largest
#      committed scale cell must keep >= 80% of its recorded
#      accesses/sec (its out-of-core build time and both records'
#      hosts are printed beside it, ungated);
#   9. an ECC chaos pass: the memory-failure end-to-end tests (BFS
#      under an ecc_ce/ecc_ue plan) and one hot cell of the KV
#      degradation sweep, both with the invariant checker forced on,
#      asserting that frames actually retired and requests were
#      actually killed (nonzero hwpoison_* counters) while every
#      poisoned-frame invariant held;
#  10. an autotune pass: a short tuned PageRank + KV cell under the
#      invariant checker asserting the online tuner actually moved at
#      least one tunable, then a perf gate on the committed
#      BENCH_autotune.json: tuned autonuma must be >= 1.0x the default
#      configuration on every committed cell and keep a >5% win on at
#      least one;
#  11. a benchmark smoke pass: perfbench/smoke_test.py builds the
#      repository benchmark from src/ and runs every workload at tiny
#      sizes, so an engine API change cannot silently break it.
#
# All builds live in their own build directories so they never disturb
# an existing developer build/. Every graph run spills its out-of-core
# segment buckets, so the spill directory is pinned under build-ci/
# for the whole gate: no .bigraph_spill is left in the checkout for
# the stage-11 smoke test to trip on.
set -euo pipefail
cd "$(dirname "$0")"

JOBS=$(nproc 2>/dev/null || echo 4)
export MEMTIER_SPILL_DIR="$PWD/build-ci/spill"

echo "=== [1/11] tier-1: RelWithDebInfo -Werror build + ctest ==="
cmake -B build-ci -S . -DMEMTIER_WERROR=ON
cmake --build build-ci -j "$JOBS"
ctest --test-dir build-ci --output-on-failure -j "$JOBS"
for mode in autonuma notiering object_static object_spill \
            object_dynamic all_dram all_nvm; do
    MEMTIER_CHECK_INVARIANTS=ON \
        ./build-ci/examples/policy_explorer bfs kron "$mode" 12 > /dev/null
done

echo "=== [2/11] sanitizers: ASan/UBSan build + ctest ==="
cmake -B build-asan -S . -DMEMTIER_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "=== [3/11] tsan: sweep cell pool and shared caches under ThreadSanitizer ==="
# runSweep runs cells on host threads that share the bigraph artifact
# cache. The two binaries holding the concurrent tests are built with
# -fsanitize=thread in their own directory; the pool and single-flight
# tests run under it and halt_on_error turns any reported race into a
# failure.
cmake -B build-tsan -S . -DMEMTIER_WERROR=ON \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
cmake --build build-tsan -j "$JOBS" --target exp_test bigraph_test
TSAN_OPTIONS=halt_on_error=1 MEMTIER_SPILL_DIR=build-tsan/spill \
    ./build-tsan/tests/exp_test --gtest_filter='Sweep.*'
TSAN_OPTIONS=halt_on_error=1 MEMTIER_SPILL_DIR=build-tsan/spill \
    ./build-tsan/tests/bigraph_test \
    --gtest_filter='SegmentedCsr.Concurrent*'

echo "=== [4/11] serving smoke: short tail sweep under ASan/UBSan ==="
# One trial, two policies, THP off and on: small enough to stay fast
# under the sanitizers, big enough to drive the generator, both stores,
# the LSM flush/compaction path and the phase histograms end to end.
# The THP-on cells put PMD entries, THP splits and page-table leaf
# release on the serving path under ASan/UBSan.
./build-asan/bench/serving_tail --trials=1 \
    --policies=autonuma,dram-only \
    --out=build-asan/BENCH_serving_smoke.json \
    --csv=build-asan/serving_smoke.csv

echo "=== [5/11] chaos: invariant checker on + fault plan, tier-1 binaries ==="
# MEMTIER_CHECK_INVARIANTS=ON arms the kernel invariant checker in
# every Engine (observer-only: results stay bit-identical), and
# MEMTIER_FAULT_PLAN overrides the chaos-aware tests' default plan.
MEMTIER_CHECK_INVARIANTS=ON \
MEMTIER_FAULT_PLAN="migrate:p=0.1,burst=6;alloc:p=0.03;seed=97" \
    ctest --test-dir build-ci --output-on-failure -j "$JOBS"
# Segmented-CSR smoke: one short PageRank on the out-of-core segmented
# path with the invariant checker armed (bigraph_test covers faults on
# this path; this covers the sweep driver end to end).
MEMTIER_CHECK_INVARIANTS=ON \
    ./build-ci/bench/scale_sweep --rows=16:kron:autonuma:4 --trials=2 \
    --out=build-ci/BENCH_scale_smoke.json > /dev/null
python3 - build-ci/BENCH_scale_smoke.json <<'EOF'
import json, sys
row = json.load(open(sys.argv[1]))["rows"][0]
if row["pgpromote"] == 0:
    sys.exit("scale smoke FAILED: AutoNUMA promoted nothing on the "
             "segmented path")
if not 0.0 < row["dram_hit_fraction"] <= 1.0:
    sys.exit(f"scale smoke FAILED: dram_hit_fraction "
             f"{row['dram_hit_fraction']} out of range")
print(f"scale smoke: {row['pgpromote']} promotions, dram_hit "
      f"{row['dram_hit_fraction']:.3f} under the invariant checker")
EOF

echo "=== [6/11] thp: MEMTIER_THP=ON + invariant checker, tier-1 binaries ==="
# MEMTIER_THP=ON force-enables the THP model in every Engine; the
# extended invariant sweep (PMD/PTE consistency, THP counter identity)
# runs continuously. Golden-value tests captured with THP off skip.
MEMTIER_THP=ON \
MEMTIER_CHECK_INVARIANTS=ON \
    ctest --test-dir build-ci --output-on-failure -j "$JOBS"

echo "=== [7/11] scalar path: MEMTIER_SCALAR_PATH=ON, tier-1 binaries ==="
# MEMTIER_SCALAR_PATH=ON forces the element-at-a-time reference path in
# every Engine. The hotpath golden tests assert exact captured
# observables in both modes, so any scalar-vs-batched divergence fails
# here or in pass 1.
MEMTIER_SCALAR_PATH=ON \
    ctest --test-dir build-ci --output-on-failure -j "$JOBS"

echo "=== [8/11] perf gate: hotpath throughput vs committed baseline ==="
# Re-measure the batched hot path at the baseline's parameters and
# fail on a >20% throughput regression, or when the sampled run is
# below 70% of the unsampled one. The bench itself also fails when the
# scalar, batched and sampled runs stop being bit-identical, so this
# gate checks correctness and speed in one run.
./build-ci/bench/hotpath_speed --out=build-ci/BENCH_hotpath_ci.json \
    > /dev/null
python3 - BENCH_hotpath.json build-ci/BENCH_hotpath_ci.json <<'EOF'
import json, sys
base_rec = json.load(open(sys.argv[1]))
now_rec = json.load(open(sys.argv[2]))

def host(rec):
    h = rec.get("host")
    if h is None:
        return "not recorded"
    return (f"{h['cpu']}, {h['nproc']} CPUs, {h['compiler']}, "
            f"{h['build_type']}")

print(f"perf gate: baseline host: {host(base_rec)}")
print(f"perf gate: current host:  {host(now_rec)}")
base = base_rec["batched_accesses_per_sec"]
now = now_rec["batched_accesses_per_sec"]
ratio = now / base
print(f"perf gate: baseline {base:.3e} acc/s, now {now:.3e} acc/s "
      f"({ratio:.2f}x)")
# What observing costs, measured within this one run on this host:
# the sampler keeps ~1 load in 61 and must not cost the batched path
# more than that warrants.
sampled = now_rec["sampled_over_batched"]
print(f"perf gate: sampled/batched throughput {sampled:.2f}x "
      f"(same run; baseline record {base_rec.get('sampled_over_batched', 'n/a')})")
if ratio < 0.8:
    sys.exit("perf gate FAILED: batched hot path regressed >20% "
             "vs BENCH_hotpath.json (refresh the baseline via "
             "run_benches.sh if the change is intentional)")
if sampled < 0.7:
    sys.exit("perf gate FAILED: with the perf-mem sampler on, the "
             "batched hot path ran below 70% of its unsampled "
             "throughput in the same run")
EOF
# Footprint-scale gate: re-run the largest committed cell of the
# segmented-CSR sweep and fail on a >20% accesses/sec regression.
python3 - BENCH_scale.json <<'EOF' > build-ci/scale_gate_row
import json, sys
rec = json.load(open(sys.argv[1]))
r = max(rec["rows"], key=lambda row: row["scale"])
print(f"{r['scale']}:{r['kind']}:{r['mode']}:{r['segments']}")
EOF
./build-ci/bench/scale_sweep --rows="$(cat build-ci/scale_gate_row)" \
    --out=build-ci/BENCH_scale_ci.json > /dev/null
python3 - BENCH_scale.json build-ci/BENCH_scale_ci.json <<'EOF'
import json, sys
base_rec = json.load(open(sys.argv[1]))
now_rec = json.load(open(sys.argv[2]))
base = max(base_rec["rows"], key=lambda r: r["scale"])
now = now_rec["rows"][0]
ratio = now["accesses_per_sec"] / base["accesses_per_sec"]

def host(rec):
    h = rec.get("host")
    if h is None:
        return "not recorded"
    return (f"{h['cpu']}, {h['nproc']} CPUs, {h['compiler']}, "
            f"{h['build_type']}")

print(f"scale gate: baseline host: {host(base_rec)}")
print(f"scale gate: current host:  {host(now_rec)}")
print(f"scale gate: scale {base['scale']} {base['kind']} "
      f"[{base['mode']}] baseline {base['accesses_per_sec']:.3e} "
      f"acc/s, now {now['accesses_per_sec']:.3e} acc/s ({ratio:.2f}x); "
      f"out-of-core build {now['build_sec']:.1f} s (not gated)")
if ratio < 0.8:
    sys.exit("scale gate FAILED: segmented-path throughput regressed "
             ">20% vs BENCH_scale.json at the largest committed scale "
             "(refresh the baseline via run_benches.sh if the change "
             "is intentional)")
EOF

echo "=== [9/11] ecc chaos: memory failures under the invariant checker ==="
# The BFS side: the memory-failure end-to-end tests replay an
# ecc_ce/ecc_ue plan twice and assert bit-identity plus nonzero
# hwpoison counters; forcing the checker on makes every other test in
# the filter sweep the poisoned-frame invariants too.
MEMTIER_CHECK_INVARIANTS=ON \
    ctest --test-dir build-ci --output-on-failure -j "$JOBS" \
    -R "FaultEndToEnd|FaultKernel|FaultThp"
# The KV side: one hot cell of the degradation sweep (CE probability
# 0.25, UE riding along at 1/32) under the checker, then assert from
# the CSV that the run actually eroded DRAM and killed requests.
MEMTIER_CHECK_INVARIANTS=ON \
    ./build-ci/bench/degradation_sweep --policies=autonuma \
    --levels=0.25 --trials=1 \
    --out=build-ci/BENCH_degradation_ci.json \
    --csv=build-ci/degradation_ci.csv > /dev/null
python3 - build-ci/degradation_ci.csv <<'EOF'
import csv, sys
rows = {float(r["ce_prob"]): r for r in csv.DictReader(open(sys.argv[1]))}
base, hot = rows[0.0], rows[0.25]
for key in ("frames_retired", "soft_offline", "sigbus", "errors"):
    if int(base[key]) != 0:
        sys.exit(f"ecc gate FAILED: healthy baseline has {key}="
                 f"{base[key]} (must be 0)")
    if int(hot[key]) == 0:
        sys.exit(f"ecc gate FAILED: hot cell has {key}=0 "
                 "(the ECC plan injected nothing)")
if float(hot["availability"]) >= 1.0:
    sys.exit("ecc gate FAILED: hot cell reports full availability "
             "despite SIGBUS kills")
print(f"ecc gate: {hot['frames_retired']} frames retired, "
      f"{hot['sigbus']} SIGBUS kills, availability "
      f"{float(hot['availability']):.4f} (baseline clean)")
EOF

echo "=== [10/11] autotune: tuner smoke + tuned-vs-default perf gate ==="
# Smoke: one graph cell and one serving cell under the invariant
# checker. The run itself proves tuning keeps every kernel invariant;
# the assertion below proves the tuner actually moved something (an
# observe-only tuner would trivially "pass" any perf comparison).
MEMTIER_CHECK_INVARIANTS=ON \
    ./build-ci/bench/autotune_sweep --trials=2 --epoch-ms=0.2 \
    --workload pr:kron --workload kv:kron \
    --out=build-ci/BENCH_autotune_smoke.json \
    --csv=build-ci/autotune_smoke.csv > /dev/null
python3 - build-ci/BENCH_autotune_smoke.json <<'EOF'
import json, sys
cells = json.load(open(sys.argv[1]))["cells"]
for c in cells:
    if c["tuner_applied"] < 1:
        sys.exit(f"autotune smoke FAILED: tuner moved no tunable on "
                 f"{c['workload']} (epochs={c['tuner_epochs']})")
print("autotune smoke: " +
      ", ".join(f"{c['workload']} applied {c['tuner_applied']} "
                f"(accepted {c['tuner_accepted']})" for c in cells) +
      " under the invariant checker")
EOF
# Perf gate on the committed record: the bench is fully deterministic
# (seeded tuner, cycle clock), so the committed cells are exactly
# reproducible via run_benches.sh. Online tuning must never lose to
# the static default, and must keep a real win somewhere.
python3 - BENCH_autotune.json <<'EOF'
import json, sys
cells = json.load(open(sys.argv[1]))["cells"]
if len(cells) < 3:
    sys.exit("autotune gate FAILED: fewer than 3 committed cells")
worst = min(cells, key=lambda c: c["speedup"])
best = max(cells, key=lambda c: c["speedup"])
for c in cells:
    print(f"autotune gate: {c['workload']} tuned/default "
          f"{c['speedup']:.3f}x")
if worst["speedup"] < 1.0:
    sys.exit(f"autotune gate FAILED: tuned autonuma lost to the "
             f"default on {worst['workload']} "
             f"({worst['speedup']:.3f}x; refresh the baseline via "
             f"run_benches.sh if the change is intentional)")
if best["speedup"] <= 1.05:
    sys.exit(f"autotune gate FAILED: best committed win is only "
             f"{best['speedup']:.3f}x (need >1.05x on at least one "
             f"cell)")
EOF

echo "=== [11/11] benchmark smoke: perfbench at tiny sizes ==="
# The benchmark builds its own copy of src/ (into .bench_build/) and
# drives it through the public entry points; a tiny run of every
# workload checks names, units and oracles end to end.
python3 perfbench/smoke_test.py

echo "ci.sh: all gates passed"
