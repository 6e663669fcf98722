#!/bin/bash
# Runs every bench binary in order, printing each one's report.
# Fails fast when the build is missing or older than the sources, so a
# stale build cannot masquerade as fresh results.
set -u
cd "$(dirname "$0")"

if [ ! -d build/bench ]; then
    echo "run_benches.sh: no build/bench directory." >&2
    echo "  Build first:  cmake -B build -S . && cmake --build build -j" >&2
    exit 1
fi

binaries=$(find build/bench -maxdepth 1 -type f -perm -u+x | sort)
if [ -z "$binaries" ]; then
    echo "run_benches.sh: build/bench contains no executables." >&2
    echo "  Build first:  cmake --build build -j" >&2
    exit 1
fi

# Stale check: any source/bench/CMake file newer than the oldest binary
# means the build no longer reflects the tree.
stale_against=$(ls -t $binaries | tail -1)
newer=$(find src bench CMakeLists.txt -name '*.cc' -o -name '*.h' \
            -o -name 'CMakeLists.txt' 2>/dev/null \
        | xargs -r ls -t 2>/dev/null \
        | head -1)
if [ -n "$newer" ] && [ "$newer" -nt "$stale_against" ]; then
    echo "run_benches.sh: build is stale ($newer is newer than" >&2
    echo "  $stale_against). Rebuild:  cmake --build build -j" >&2
    exit 1
fi

mkdir -p results
# Every graph run spills its out-of-core segment buckets; keep them in
# the build tree instead of a .bigraph_spill in the checkout.
export MEMTIER_SPILL_DIR="$PWD/build/spill"

for b in $binaries; do
    name=$(basename "$b")
    echo "=== $name ==="
    if [ "$name" = "micro_tier_latency" ]; then
        "$b" --benchmark_min_time=0.1 2>/dev/null
    elif [ "$name" = "hotpath_speed" ]; then
        # Hot-path throughput: forced-scalar vs batched pipeline on the
        # PageRank sweep, and batched with the sampler on. Writes the
        # machine-readable record future PRs compare against; the
        # binary itself fails when the three runs stop being
        # bit-identical.
        "$b" --out=BENCH_hotpath.json 2>/dev/null
    elif [ "$name" = "scale_sweep" ]; then
        # Footprint-vs-scale on the segmented CSR path: out-of-core
        # builds from the default scale 18 up to multi-GB footprints
        # (kron 24, urand 25). Writes the record the CI scale gate
        # compares against.
        "$b" --out=BENCH_scale.json 2>/dev/null
    elif [ "$name" = "serving_tail" ]; then
        # Data-serving tail latency: KV + LSM under the registry
        # policies, THP off and on. Writes the machine-readable record
        # make_experiments_md.py renders into EXPERIMENTS.md.
        "$b" --out=BENCH_serving.json --csv=results/serving_tail.csv \
            2>/dev/null
    elif [ "$name" = "autotune_sweep" ]; then
        # Online tuning vs. the static default: tuned autonuma against
        # the same mistuned starting configuration on graph + serving
        # workloads. Writes the record the CI autotune gate compares
        # against; fully deterministic (seeded tuner, cycle clock).
        "$b" --out=BENCH_autotune.json \
            --csv=results/autotune_sweep.csv 2>/dev/null
    elif [ "$name" = "degradation_sweep" ]; then
        # Graceful degradation: the KV replay under escalating ECC
        # error rates, per policy -- DRAM erosion vs tail latency and
        # availability.
        "$b" --out=BENCH_degradation.json \
            --csv=results/degradation_sweep.csv 2>/dev/null
    else
        "$b" 2>/dev/null
    fi
    echo
done

# Failure-rate sensitivity: the same workload under increasingly lossy
# migration, exercising the retry/backoff path and the circuit breaker.
echo "=== fault_sensitivity ==="
echo "--- baseline: no faults ---"
./build/bench/policy_sweep --policy=autonuma \
    --tunable scan_period_ms=0.5 --workload pr:kron \
    --out=results/fault_sweep_p0.csv 2>/dev/null
for p in 0.05 0.1 0.2 0.4; do
    echo "--- transient migration failures p=$p burst=8 ---"
    ./build/bench/policy_sweep --policy=autonuma \
        --tunable scan_period_ms=0.5 --workload pr:kron \
        --faults "migrate:p=$p,burst=8;seed=7" \
        --out="results/fault_sweep_p$p.csv" 2>/dev/null
done
echo

# THP sensitivity: Table 3's TLB-cost matrix and the policy ablation
# with 2 MiB PMD mappings on, next to the 4 KiB baselines printed above.
# Expect a lower dTLB miss rate and a narrower NVMmiss/DRAMmiss ratio.
echo "=== thp_sensitivity ==="
echo "--- table3_tlb_cost --thp ---"
./build/bench/table3_tlb_cost --thp 2>/dev/null
echo "--- ablation_policies --thp ---"
./build/bench/ablation_policies --thp 2>/dev/null
mv -f results/ablation_policies.csv results/ablation_policies_thp.csv \
    2>/dev/null || true
echo "--- policy_sweep --thp ---"
./build/bench/policy_sweep --policy=autonuma --thp \
    --tunable scan_period_ms=0.5 --workload pr:kron \
    --out=results/sweep_autonuma_thp.csv 2>/dev/null
echo

# Serving chaos: the tail sweep re-run under lossy migration with the
# invariant checker armed. Every cell's checksum must match the
# fault-free run's above -- the tail moves, the answers must not.
echo "=== serving_chaos ==="
MEMTIER_CHECK_INVARIANTS=1 ./build/bench/serving_tail \
    --policies=autonuma,exchange --no-thp \
    --faults "migrate:p=0.2,burst=4;seed=7" \
    --out=results/serving_chaos.json \
    --csv=results/serving_chaos.csv 2>/dev/null
python3 - results/serving_tail.csv results/serving_chaos.csv <<'EOF' || exit 1
import csv, sys
def checksums(path):
    return {(r["workload"], r["policy"], r["thp"]): r["checksum"]
            for r in csv.DictReader(open(path))}
clean, chaos = checksums(sys.argv[1]), checksums(sys.argv[2])
for cell, checksum in chaos.items():
    if clean.get(cell) != checksum:
        sys.exit(f"serving_chaos FAILED: {cell} checksum {checksum} vs "
                 f"{clean.get(cell)} without faults")
print(f"serving_chaos: {len(chaos)} cells match the fault-free checksums")
EOF
echo
