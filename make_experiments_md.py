#!/usr/bin/env python3
"""Render EXPERIMENTS.md from bench_output.txt.

The measured tables are extracted verbatim from the bench suite's
output; the paper values and verdicts are maintained here so the
document can be regenerated after every `./run_benches.sh`. The
Figure 11 verdict quotes numbers parsed from its measured block.
"""

import re
import sys
import textwrap

BENCH_OUT = "bench_output.txt"
TARGET = "EXPERIMENTS.md"


def load_sections(path):
    sections = {}
    name = None
    buf = []
    for line in open(path):
        m = re.match(r"^=== (\S+) ===$", line)
        if m:
            if name:
                sections[name] = "".join(buf).strip()
            name = m.group(1)
            buf = []
        elif name:
            buf.append(line)
    if name:
        sections[name] = "".join(buf).strip()
    return sections


def block(sections, key):
    body = sections.get(key, "(section missing -- rerun ./run_benches.sh)")
    # Drop the 3-line header each bench prints (repeated per invocation
    # in multi-run sections like fault_sensitivity).
    lines = [l for l in body.splitlines()
             if not (l.startswith("memtier reproduction")
                     or l.startswith("paper reference")
                     or l.startswith("scale:"))]
    return "```\n" + "\n".join(lines).strip() + "\n```"


def pct(x):
    """Signed percentage with a typographic minus: -1.0 -> "−1.0%"."""
    return f"{x:+.1f}%".replace("-", "\u2212")


def fig11_verdict(sections):
    """Figure 11's verdict and Summary row, every measured number read
    from the measured block."""
    body = sections.get("fig11_objectlevel_speedup", "")
    improvement, nvm_change = {}, {}
    for m in re.finditer(r"^(\w+\*?)\s+[\d.]+\s+[\d.]+\s+(-?[\d.]+)%"
                         r"\s+(-?[\d.]+%|-)", body, re.M):
        improvement[m.group(1)] = float(m.group(2))
        if m.group(3) != "-":
            nvm_change[m.group(1)] = float(m.group(3)[:-1])
    avg = re.search(r"average improvement: ([\d.]+)%.*max: ([\d.]+)%", body)
    needed = ("bc_kron", "bc_urand", "bfs_kron", "bfs_urand", "cc_kron",
              "cc_kron*", "cc_urand")
    if avg is None or any(w not in improvement for w in needed):
        return ("**Verdict: not measured** (section missing or "
                "unparseable -- rerun ./run_benches.sh).\n", "not measured")
    avg_pct, max_pct = float(avg.group(1)), float(avg.group(2))
    wins = [-nvm_change[w] for w in ("bc_kron", "bc_urand", "cc_urand")]
    bfs = [improvement["bfs_kron"], improvement["bfs_urand"]]
    # A spill gain no larger than the bfs swings is not a recovery.
    noise = max(abs(x) for x in bfs)
    spill_gain = improvement["cc_kron*"] - improvement["cc_kron"]
    recovered = spill_gain > noise
    text = (
        f"**Verdict: {'reproduced' if recovered else 'partly reproduced'}.**"
        f" The object-level mapping wins on the bc and cc_urand workloads"
        f" by cutting NVM samples {min(wins):.0f}–{max(wins):.0f}% (paper"
        f" bc_kron: −79% → we measure {pct(nvm_change['bc_kron'])}). The"
        f" whole-object variant shows the cc_kron regression the paper"
        f" reports ({pct(improvement['cc_kron'])} vs. the paper's −6%)."
        f" Spilling moves cc_kron by {spill_gain:.1f} points, to"
        f" {pct(improvement['cc_kron*'])} (the paper gains 8 points, to"
        f" +2%), {'more' if recovered else 'no more'} than the bfs"
        f" workloads' own swings of up to {noise:.1f} points: the spill"
        f" recovery is {'reproduced' if recovered else 'within noise'}."
        f" bfs_kron"
        f" ({pct(bfs[0])}) and bfs_urand ({pct(bfs[1])})"
        f" {'both regress' if max(bfs) < 0 else 'change'} where the"
        f" paper's improved: at this scale BFS's external traffic is"
        f" dominated by the adjacency object that the planner sends wholly"
        f" to NVM. Checksums confirm placement never changes application"
        f" results. Average and maximum improvements ({avg_pct:.1f}% /"
        f" {max_pct:.1f}%) reach {avg_pct / 21:.2f}x and"
        f" {max_pct / 51:.2f}x of the paper's 21% / 51% — our AutoNUMA"
        f" baseline keeps relatively more hot data in DRAM, leaving less"
        f" room to win.")
    summary = (f"{'reproduced' if recovered else 'partly'}: wins on"
               f" bc/cc_urand; spill recovery"
               f" {'reproduced' if recovered else 'within noise'}; bfs"
               f" {'regresses' if max(bfs) < 0 else 'flat'}")
    return (textwrap.fill(text, 72, break_on_hyphens=False,
                          break_long_words=False) + "\n", summary)


HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of *Performance Characterization of AutoNUMA
Memory Tiering on Graph Analytics* (IISWC 2022), reproduced on the
scaled simulated testbed (2^18-vertex graphs, 24 MiB DRAM + 96 MiB NVM,
18 logical threads; see DESIGN.md §3 for the scaling rationale).

Regenerate with:

```sh
cmake -B build -G Ninja && cmake --build build
./run_benches.sh > bench_output.txt
python3 make_experiments_md.py
```

**Reading guide.** The paper measured a real Xeon + Optane machine; we
measure a calibrated simulator. Absolute values are not comparable by
construction (capacities scaled ~8000x, runtimes compressed from minutes
to seconds); the claims under reproduction are the *shapes*: which
mechanism dominates, who wins, and by roughly what factor. Each section
states the paper's numbers, shows the measured output verbatim, and
gives a verdict.
"""


def main():
    sections = load_sections(BENCH_OUT)
    fig11_text, fig11_summary = fig11_verdict(sections)
    out = [HEADER]

    out.append("""\
## Figure 3 — sample distribution across memory levels

**Paper:** for all six workloads, at least ~25% (up to ~50%) of memory
samples are serviced outside the caches (DRAM+NVM), reflecting graph
analytics' poor locality.

**Measured** (`bench/fig03_sample_levels`):

""" + block(sections, "fig03_sample_levels") + """

**Verdict: reproduced.** The external fraction spans ~20–52% across
workloads (paper: 27–49%), with the same qualitative split: the bc
workloads are the most external-heavy, and LFB hits are a visible
fraction, as in the paper's stacked bars. Two workloads sit a few points
below the paper's 25% floor — at this scale CC's label array caches
slightly better than the paper's 2^30-vertex equivalent.
""")

    out.append("""\
## Figure 4 — pages touched 1 / 2 / 3+ times

**Paper:** ~60% of externally-accessed pages (on average) are touched
exactly once (33–80% of external accesses land on such pages);
two-touch pages add ~10%. Hence a reactive two-touch policy cannot
classify most pages.

**Measured** (`bench/fig04_page_touches`, sparse sampling — see
DESIGN.md on sampling density):

""" + block(sections, "fig04_page_touches") + """

**Verdict: reproduced.** Single-touch pages average ~60%+ of the touched
page population, dominating every workload, exactly the paper's
headline characterization result.
""")

    out.append("""\
## Figure 5 — reuse time of two-touch pages (hottest NVM object)

**Paper:** reuse intervals between the two touches are widely dispersed
(stddev close to the mean; bc_kron p25=14 s vs. max≈73+ s), so no
latency threshold separates them; and at most **1.3%** of two-touch
pages are ever observed promoted (NVM first, DRAM second).

**Measured** (`bench/fig05_reuse_time`; times are simulated seconds —
compare dispersion, not magnitude):

""" + block(sections, "fig05_reuse_time") + """

**Verdict: shape reproduced.** Where the hottest NVM object yields a
two-touch population, the stddev is comparable to the mean (bc_kron:
0.16 vs 0.18), confirming the irregular-reuse claim. The observed
promoted share of two-touch pages is small but above the paper's 1.3%
on the bc workloads — our compressed timescale gives the scanner
relatively more opportunities between the two touches.
""")

    out.append("""\
## Figure 6 — top-10 objects by DRAM / NVM samples (bc_kron)

**Paper:** very few objects concentrate the NVM accesses (object 0 holds
~65% of NVM samples for bc_kron, up to ~90% in other workloads), and the
hottest NVM object is *also* the most-accessed DRAM object — i.e.
AutoNUMA left a hot object straddling both tiers.

**Measured** (`bench/fig06_top_objects`):

""" + block(sections, "fig06_top_objects") + """

**Verdict: reproduced.** A handful of per-source BC arrays concentrate
the NVM samples, and the hottest NVM object ranks at/near the top of the
DRAM ranking too — the same "hot object split across tiers" pathology
the paper dissects.
""")

    out.append("""\
## Figure 7 — allocation timeline (bc_kron)

**Paper:** object 0 (8 GB) was allocated right after another object
released ~13 GB; its pages landed in DRAM because space happened to be
free, not because they were hot (Finding 3). The allocate/free pattern
recurs over time.

**Measured** (`bench/fig07_alloc_timeline`):

""" + block(sections, "fig07_alloc_timeline") + """

**Verdict: reproduced.** The live-bytes timeline shows the recurring
per-source allocation churn, and the hottest NVM object is allocated
within a window in which comparable capacity was just released.
""")

    out.append("""\
## Figure 8 — access pattern inside the hottest NVM object (bc_kron)

**Paper:** at full-run granularity the object's accesses look
structured; zooming into one second reveals random access across the
whole object (Finding 4), so its pages cannot be classified hot.

**Measured** (`bench/fig08_access_pattern`):

""" + block(sections, "fig08_access_pattern") + """

**Verdict: reproduced.** The zoom window's mean page stride between
consecutive samples is a large fraction of the object's page range —
a random walk, not a predictable sweep.
""")

    out.append("""\
## Figure 9 — memory usage, migrations, CPU over time (bc_kron)

**Paper:** DRAM fills during the input-reading phase (application +
page cache); once full, new allocations go to NVM; demotions (mostly
kswapd) exceed promotions; the page cache is cut roughly in half by
demotion (Finding 5); promotions stay below the rate limit (Finding 6);
CPU is low while reading, high while computing.

**Measured** (`bench/fig09_memory_timeline`):

""" + block(sections, "fig09_memory_timeline") + """

**Verdict: reproduced.** All five sub-shapes hold: DRAM fills early,
allocation spills to NVM, kswapd demotions dominate promotions by an
order of magnitude, the input phase's page cache is reclaimed from DRAM
by demotion, and CPU utilization traces the read/compute phases.
""")

    out.append("""\
## Figure 10 — DRAM load samples vs. promotions over time (bc_kron)

**Paper:** little correlation between the number of promoted pages and
DRAM load traffic (Finding 7): DRAM hits come from initial placement,
not promotions, and promoted volume is far below the rate-limit
ceiling.

**Measured** (`bench/fig10_promotion_correlation`):

""" + block(sections, "fig10_promotion_correlation") + """

**Verdict: reproduced.** Promoted pages are a tiny fraction of DRAM
load traffic and the per-interval correlation is weak.
""")

    out.append("""\
## Figure 11 — object-level static mapping vs. AutoNUMA (headline)

**Paper:** the offline object-level mapping reduces execution time by
**21% on average, up to 51%**; bc_kron's NVM samples drop **79%**
(41% faster). The cc workloads *regress* with whole-object assignment
(cc_kron −6%) and recover with the spill variant (cc_kron* +2%).

**Measured** (`bench/fig11_objectlevel_speedup`):

""" + block(sections, "fig11_objectlevel_speedup") + """

""" + fig11_text)

    out.append("""\
## Table 1 — where external samples hit

**Paper** (outside-cache% / DRAM% / NVM%): bc_kron 49.1/67.7/32.3,
bc_urand 28.5/78.2/21.8, bfs_kron 37.4/93.9/6.1, bfs_urand
27.1/68.8/31.2, cc_kron 46.9/95.1/4.9, cc_urand 48.6/91.5/8.5. Key
claim: the NVM share depends on the application–dataset *combination*,
not either alone.

**Measured** (`bench/table1_sample_location`):

""" + block(sections, "table1_sample_location") + """

**Verdict: shape reproduced.** DRAM holds the majority of external hits
for five of six workloads (bc_urand is NVM-heavy), and the NVM share
varies ~3–66% with no per-application or per-dataset pattern — the
paper's combination-dependence claim. Divergence: our bc workloads
carry more NVM traffic than the paper's (the compressed timescale gives
AutoNUMA fewer scan generations to pull BC's per-source arrays up
before they are freed again).
""")

    out.append("""\
## Table 2 — external access cost split

**Paper:** NVM's share of total sampled latency always exceeds its
share of accesses — bc_kron spends 62.5% of external cost on 32.3% of
accesses; bfs_urand 71.8% on 31.2%.

**Measured** (`bench/table2_access_cost`):

""" + block(sections, "table2_access_cost") + """

**Verdict: reproduced.** The cost amplification column is > 1x for every
workload (1.4–2.9x): NVM accesses are disproportionately expensive,
Table 2's exact point.
""")

    out.append("""\
## Table 3 — external cost by node and TLB outcome (Finding 1)

**Paper** (cycles, DRAM hit/miss | NVM hit/miss): e.g. bc_kron 659/772 |
1833/2727; cc_urand 325/903 | 1345/4141. Finding 1: NVM+TLB-miss costs
~4x (up to 5.7x) DRAM+TLB-miss.

**Measured** (`bench/table3_tlb_cost`):

""" + block(sections, "table3_tlb_cost") + """

**Verdict: shape reproduced, magnitude compressed.** The ordering holds
everywhere (DRAM hit < DRAM miss < NVM hit < NVM miss) and NVM/DRAM
TLB-hit ratios match the paper (~2.6–3.4x vs. the paper's ~2.8–4.3x).
The NVM-miss/DRAM-miss ratio is ~1.6–1.8x vs. the paper's 3.5–4.6x: our
page walks always hit DRAM-resident page tables, while on real hardware
walks for NVM-heavy footprints contend with the NVM channel itself — a
documented fidelity limit of the walk model (DESIGN.md §3).
""")

    out.append("""\
## Ablations (beyond the paper)

`bench/ablation_autonuma` sweeps the tiering design space the paper's
Section 2.2 describes:

""" + block(sections, "ablation_autonuma") + """

The sweeps confirm the mechanisms behind the paper's findings: the
promotion rate limit trades promotion coverage against thrashing
(promote-then-demote grows with the budget), scanning faster finds more
candidates at hint-fault cost, and growing DRAM monotonically removes
tiering activity.
""")

    out.append("""\
## Extension — online dynamic object-level tiering

The paper's conclusion proposes moving from offline profiling to
runtime object management; `src/policy/dynamic_tiering` implements it
(windowed per-object access counting, periodic re-ranking, budgeted
whole-object migration) and `bench/ablation_dynamic` compares:

""" + block(sections, "ablation_dynamic") + """

The online policy matches or beats the offline static mapping on
average — without any profiling run — and avoids the static mapping's
regressions, supporting the paper's closing argument that object-level
management is the right granularity for graph analytics on tiered
memory.
""")

    out.append("""\
## Failure-rate sensitivity (beyond the paper)

`run_benches.sh` drives `bench/policy_sweep --faults` over increasingly
lossy transient migration (bursts of 8, seeded so every run replays
bit-identically; see DESIGN.md §6 for the fault model):

""" + block(sections, "fault_sensitivity") + """

The workload completes with identical output at every failure rate —
failures cost time and promotion coverage, never correctness. Retries
absorb low rates; as the rate grows, failed and retried migrations
climb and the circuit breaker starts tripping, pausing promotion and
scanning until the failure burst passes. The `migrate_fail`,
`promote_retry`, `alloc_fail`, `disk_read_retry` and `breaker_trips`
columns land in `results/fault_sweep_p*.csv`.
""")

    out.append("""\
## THP sensitivity (beyond the paper)

`run_benches.sh` re-runs the TLB-cost matrix and the policy ablation
with transparent huge pages on (`--thp`: 2 MiB PMD mappings, separate
huge TLB entry classes, one-level-shorter page walks; see DESIGN.md §7
for the model):

""" + block(sections, "thp_sensitivity") + """

One huge TLB entry covers 512 base pages, so the dTLB miss rate
collapses against the Table 3 baseline — an order of magnitude where
page walks actually hurt — which shrinks exactly the penalty the
paper's Finding 1 identifies as compounding NVM access cost. Where the
miss buckets stay populated the NVM-miss/DRAM-miss cost ratio narrows
with it; once THP eliminates nearly all misses the residual bucket
means turn into sparse-sample statistics, so the per-access means
matter less than the vanishing miss *rate*. The `thp` column plus the
`thp_fault_alloc` / `thp_collapse_alloc` / `thp_split_page` counters
land in `results/ablation_policies_thp.csv` and
`results/sweep_autonuma_thp.csv`.
""")

    out.append("""\
## Serving-scenario tail latency (beyond the paper)

The paper measures graph analytics, i.e. throughput; `src/serve` adds
the other canonical tiered-memory scenario: data serving, where the
metric is tail latency. `bench/serving_tail` replays a Redis-style KV
store and a LevelDB-style LSM store under open-loop Zipfian traffic
(diurnal rate swing + a connection-storm window) across the registry's
tiering policies, THP off and on (DESIGN.md §9):

""" + block(sections, "serving_tail") + """

The checksum column proves the policies only move time, never answers.
dram-only bounds the achievable tail; AutoNUMA lands close behind it
once its migrations settle, while exchange pays for its extra
swap traffic precisely where a serving system can least afford it —
p999 and the storm window. The LSM's tail is an order of magnitude
heavier than the KV's (compaction pauses + block-cache misses walking
SimFile-backed SSTs), and interleave hurts it most because every
second cache block lands on NVM. Full per-phase percentiles land in
`results/serving_tail.csv` and `BENCH_serving.json`.

`run_benches.sh` also re-runs the sweep under lossy migration
(`migrate:p=0.2,burst=4`) with the kernel invariant checker armed:

""" + block(sections, "serving_chaos") + """

Checksums match the fault-free run cell for cell — migration failures
fatten the tail but never corrupt a response.
""")

    out.append("""\
## Footprint scaling (beyond the paper)

The paper runs 2^30-vertex graphs (228–292 GB); the scaled testbed
defaults to 2^18 (~33 MB). `src/bigraph` closes part of that gap: the
CSR is split into row-range segments, each an independently placed
mmap object, built out of core (edges stream from the generator into
per-segment disk buckets, so host RSS is bounded by one segment, never
the whole edge list). `bench/scale_sweep` walks the footprint up two
orders of magnitude — kron 2^18→2^24 and urand 2^25 (~4.3 GB) — under
AutoNUMA and the no-tiering baseline, with DRAM/NVM capacities scaled
in proportion (DESIGN.md §12):

""" + block(sections, "scale_sweep") + """

A one-segment build is bit-identical to the monolithic loader (the
`segment-1 golden check` line; CI re-asserts it on every change), so
every number the smaller benches report is unchanged by the subsystem.
Across the sweep the tiering shapes persist at every scale: AutoNUMA
holds the DRAM-hit fraction at 5-7x the no-tiering baseline's
(0.61-0.74 vs 0.10-0.13), paying migration volume that grows with the
footprint, while host peak RSS tracks the materialized segments (~1.3x
footprint) instead of the monolithic path's whole-edge-list blowup —
the monolithic loader cannot build these graphs at all past scale 22.
Wall-clock accesses/sec declines only ~3x across a 140x footprint
growth. The machine-readable record (`BENCH_scale.json`) is what the
CI scale gate regresses against.
""")

    out.append("""\
## Online autotuning (beyond the paper)

The paper tunes AutoNUMA's parameters offline and reports how far the
stock configuration sits from the tuned one; `src/policy/autotune`
closes the loop online. The `autotune` policy wraps any registered base
policy and hill-climbs its live tunables (scan cadence, adjust period,
promotion rate limit, copy threads) between epochs, accepting a change
only when the observed access throughput improves and reverting it
otherwise — fully deterministic (seeded direction choices, cycle-clock
epochs). `bench/autotune_sweep` starts both arms from the same
deliberately mistuned configuration — sluggish scanning plus a starved
promotion budget — under tight DRAM, and lets only the tuned arm move
(DESIGN.md §13):

""" + block(sections, "autotune_sweep") + """

The checksum assertion inside the bench proves tuning never changes
application output. The tuned arm matches or beats the stuck default on
every cell and wins where placement quality dominates (pr/bc under
capacity pressure); the serving workloads are arrival-bound, so the
tuner correctly settles near break-even instead of thrashing. The
trajectory counters (`applied` / `accepted` / `reverted`) land in
`results/autotune_sweep.csv` with the post-run effective tunables; the
machine-readable record (`BENCH_autotune.json`) is what the CI autotune
gate regresses against.
""")

    out.append("""\
## Substrate calibration

`bench/micro_tier_latency` (google-benchmark) validates the memory
model against the measurements the paper cites (Izraelevitz et al.):

""" + block(sections, "micro_tier_latency") + """

NVM random loads cost ~3.0x DRAM (cited: ~3x), sequential ~2x at the
parameter level, and saturating random NVM stores expose the 256 B
write-amplification plus controller back-pressure.

## Summary

| Experiment | Verdict |
|---|---|
| Fig. 3 external fraction 25–50% | reproduced (20–52%) |
| Fig. 4 ~60% single-touch pages | reproduced (~63% avg) |
| Fig. 5 irregular reuse intervals | shape reproduced |
| Fig. 6 few objects own NVM traffic | reproduced |
| Fig. 7 allocation-timing placement (Finding 3) | reproduced |
| Fig. 8 random access in hot object (Finding 4) | reproduced |
| Fig. 9 demotion/page-cache/CPU phases (Findings 5–6) | reproduced |
| Fig. 10 promotions uncorrelated with DRAM hits (Finding 7) | reproduced |
| Fig. 11 object-level wins; cc needs spill | """ + fig11_summary + """ |
| Table 1 DRAM-majority, combination-dependent NVM share | shape reproduced |
| Table 2 NVM cost amplification | reproduced |
| Table 3 TLB-miss ordering (Finding 1) | shape reproduced, ratio compressed |
| Failure-rate sensitivity (beyond the paper) | correct at every rate; breaker engages |
| THP sensitivity (beyond the paper) | dTLB miss rate falls; NVM/DRAM miss-cost ratio narrows |
| Serving tail latency (beyond the paper) | dram-only bounds the tail; exchange worst at p999/storm; checksums policy-invariant |
| Footprint scaling (beyond the paper) | segmented CSR to 2^24–2^25 (~140x default footprint); segment-1 bit-identical; tiering shapes persist |
| Online autotuning (beyond the paper) | tuned ≥ stock on every cell, up to +22% under capacity pressure; checksums tuning-invariant |
""")

    open(TARGET, "w").write("\n".join(out))
    print(f"wrote {TARGET} from {len(sections)} bench sections")


if __name__ == "__main__":
    sys.exit(main())
