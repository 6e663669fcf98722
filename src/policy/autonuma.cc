#include "policy/autonuma.h"

#include <algorithm>

#include "policy/tunable_registry.h"

namespace memtier {

AutoNuma::AutoNuma(Kernel &kernel, const AutoNumaParams &params)
    : kernel(kernel), cfg(params), hotThreshold(params.initialThreshold),
      rateTokens(static_cast<double>(params.rateLimitBytesPerSec))
{
}

void
AutoNuma::scanTick(Cycles now)
{
    if (kernel.migrationsPaused(now)) {
        // Breaker open: marking pages now would only produce hint
        // faults whose promotions the kernel refuses. Skip the round.
        ++stat.scansPaused;
        return;
    }
    if (kernel.addressSpace().vmas().empty())
        return;
    stat.pagesScanned +=
        kernel.changeProtNuma(scanCursor, cfg.scanPagesPerRound, now);
    maybeAdjustThreshold(now);
}

bool
AutoNuma::rateLimitAllows(Cycles now, std::uint64_t bytes)
{
    // Token bucket refilled continuously, capped at one second's worth.
    // Hint faults arrive stamped with per-thread clocks, which are not
    // globally monotone; only refill when time moved forward (an
    // unsigned underflow here would refill the bucket to full).
    const double rate = static_cast<double>(cfg.rateLimitBytesPerSec);
    if (now > rateLastRefill) {
        const double elapsed = cyclesToSeconds(now - rateLastRefill);
        rateTokens = std::min(rateTokens + elapsed * rate, rate);
        rateLastRefill = now;
    }
    if (rateTokens >= static_cast<double>(bytes)) {
        rateTokens -= static_cast<double>(bytes);
        return true;
    }
    return false;
}

void
AutoNuma::maybeAdjustThreshold(Cycles now)
{
    if (nextAdjust == 0) {
        nextAdjust = now + cfg.adjustPeriod;
        return;
    }
    if (now < nextAdjust)
        return;

    // Compare the candidate volume of the window against the rate limit
    // budget: too many candidates -> lower the threshold (stricter);
    // too few -> raise it (more permissive). (Section 2.2.)
    const double window_sec = cyclesToSeconds(cfg.adjustPeriod);
    const double budget =
        static_cast<double>(cfg.rateLimitBytesPerSec) * window_sec;
    if (static_cast<double>(windowCandidateBytes) > budget) {
        hotThreshold = std::max(cfg.thresholdMin, hotThreshold / 2);
    } else {
        hotThreshold = std::min(cfg.thresholdMax,
                                hotThreshold + hotThreshold / 8);
    }
    stat.thresholdSeconds.add(cyclesToSeconds(now),
                              cyclesToSeconds(hotThreshold));
    windowCandidateBytes = 0;
    nextAdjust = now + cfg.adjustPeriod;
}

Cycles
AutoNuma::onHintFault(PageNum vpn, Cycles now, PageMeta &meta)
{
    ++stat.hintFaults;
    const Cycles latency = now >= meta.scanTime ? now - meta.scanTime : 0;
    stat.hintLatencySeconds.add(cyclesToSeconds(latency));
    maybeAdjustThreshold(now);

    if (meta.node != MemNode::NVM)
        return 0;  // DRAM hint faults only feed the latency statistics.

    ++stat.hintFaultsNvm;

    if (now < promotionHoldUntil) {
        // A DRAM frame was just retired: capacity is eroding under us,
        // so stop pushing pages in until reclaim has caught up with
        // the new (smaller) watermarks.
        ++stat.promotionsHeldOff;
        return 0;
    }

    // One fault on a PMD mapping stands for 512 base pages: the rate
    // limit and the threshold-adaptation window are charged in bytes so
    // a huge promotion consumes a proportionate share of the budget.
    const bool huge = meta.huge;
    const std::uint64_t bytes = huge ? kHugePageSize : kPageSize;
    if (huge)
        ++stat.hugeHintFaults;

    // Free-capacity fast path: promote on any hint fault (Section 2.2:
    // "if there is enough free space ... all pages can be promoted").
    if (kernel.dramHasFreeCapacity()) {
        if (!rateLimitAllows(now, bytes)) {
            ++stat.rejectedByRateLimit;
            ++kernel.vmstatMutable().promoteRateLimited;
            return 0;
        }
        const Cycles cost = kernel.promotePage(vpn, now);
        if (cost > 0) {
            ++stat.promotedFreePath;
        } else {
            ++stat.promotionFailures;
        }
        return cost;
    }

    // Constrained path: threshold-gated candidate promotion.
    if (latency >= hotThreshold) {
        ++stat.rejectedByThreshold;
        return 0;
    }
    kernel.vmstatMutable().promoteCandidates +=
        huge ? kPagesPerHuge : 1;
    windowCandidateBytes += bytes;

    if (!rateLimitAllows(now, bytes)) {
        ++stat.rejectedByRateLimit;
        ++kernel.vmstatMutable().promoteRateLimited;
        return 0;
    }
    const Cycles cost = kernel.promotePage(vpn, now);
    if (cost > 0) {
        ++stat.promotedThresholdPath;
    } else {
        ++stat.promotionFailures;
    }
    return cost;
}

void
AutoNuma::onMemoryFailure(PageNum vpn, MemNode node, bool uncorrectable,
                          Cycles now)
{
    (void)vpn;
    (void)uncorrectable;
    ++stat.memoryFailures;
    if (node == MemNode::DRAM)
        promotionHoldUntil = std::max(promotionHoldUntil,
                                      now + cfg.failureHoldoff);
}

void
AutoNuma::onThpCollapse(PageNum base_vpn, Cycles now)
{
    (void)base_vpn;
    (void)now;
    ++stat.thpCollapses;
}

void
AutoNuma::onThpSplit(PageNum base_vpn, Cycles now)
{
    (void)base_vpn;
    (void)now;
    ++stat.thpSplits;
}

void
registerScanTunables(TunableRegistry &registry, const char *owner,
                     Cycles &scanPeriod, std::uint32_t &scanPagesPerRound,
                     Cycles &failureHoldoff)
{
    registry.add({"scan_period_ms", "cycles between scan rounds (ms)",
                  owner, 0.05, 1000.0, false, /*rearmScan=*/true,
                  [&scanPeriod] { return cyclesToSeconds(scanPeriod) * 1e3; },
                  [&scanPeriod](double v) {
                      scanPeriod = secondsToCycles(v / 1000.0);
                  }});
    registry.add({"scan_pages", "pages marked PROT_NONE per scan round",
                  owner, 16.0, 4096.0, /*integerValued=*/true, false,
                  [&scanPagesPerRound] {
                      return static_cast<double>(scanPagesPerRound);
                  },
                  [&scanPagesPerRound](double v) {
                      scanPagesPerRound = static_cast<std::uint32_t>(v);
                  }});
    registry.add({"failure_holdoff_ms",
                  "promotion holdoff after a DRAM frame retirement (ms)",
                  owner, 0.0, 1000.0, false, false,
                  [&failureHoldoff] {
                      return cyclesToSeconds(failureHoldoff) * 1e3;
                  },
                  [&failureHoldoff](double v) {
                      failureHoldoff = secondsToCycles(v / 1000.0);
                  }});
}

void
AutoNuma::registerTunables(TunableRegistry &registry)
{
    registerScanTunables(registry, name(), cfg.scanPeriod,
                         cfg.scanPagesPerRound, cfg.failureHoldoff);
    registry.add({"hot_threshold_ms",
                  "initial hint-fault hotness threshold (ms)", name(),
                  0.01, 1000.0, false, false,
                  [this] {
                      return cyclesToSeconds(cfg.initialThreshold) * 1e3;
                  },
                  [this](double v) {
                      cfg.initialThreshold = secondsToCycles(v / 1000.0);
                      hotThreshold = cfg.initialThreshold;
                  }});
    registry.add({"threshold_min_ms",
                  "lower clamp of the adaptive threshold", name(), 0.01,
                  100.0, false, false,
                  [this] { return cyclesToSeconds(cfg.thresholdMin) * 1e3; },
                  [this](double v) {
                      cfg.thresholdMin = secondsToCycles(v / 1000.0);
                  }});
    registry.add({"threshold_max_ms",
                  "upper clamp of the adaptive threshold", name(), 1.0,
                  5000.0, false, false,
                  [this] { return cyclesToSeconds(cfg.thresholdMax) * 1e3; },
                  [this](double v) {
                      cfg.thresholdMax = secondsToCycles(v / 1000.0);
                  }});
    registry.add({"rate_limit_kib", "promotion rate limit (KiB per second)",
                  name(), 64.0, 1048576.0, /*integerValued=*/true, false,
                  [this] {
                      return static_cast<double>(cfg.rateLimitBytesPerSec /
                                                 kKiB);
                  },
                  [this](double v) {
                      cfg.rateLimitBytesPerSec =
                          static_cast<std::uint64_t>(v) * kKiB;
                      rateTokens =
                          static_cast<double>(cfg.rateLimitBytesPerSec);
                  }});
    registry.add({"adjust_period_ms", "threshold adjustment interval (ms)",
                  name(), 0.1, 1000.0, false, false,
                  [this] { return cyclesToSeconds(cfg.adjustPeriod) * 1e3; },
                  [this](double v) {
                      cfg.adjustPeriod = secondsToCycles(v / 1000.0);
                  }});
}

std::vector<PolicyCounter>
AutoNuma::snapshotStats() const
{
    return {
        {"pages_scanned", stat.pagesScanned},
        {"hint_faults", stat.hintFaults},
        {"hint_faults_nvm", stat.hintFaultsNvm},
        {"promoted_free_path", stat.promotedFreePath},
        {"promoted_threshold_path", stat.promotedThresholdPath},
        {"rejected_by_threshold", stat.rejectedByThreshold},
        {"rejected_by_rate_limit", stat.rejectedByRateLimit},
        {"promotion_failures", stat.promotionFailures},
        {"scans_paused", stat.scansPaused},
        {"huge_hint_faults", stat.hugeHintFaults},
        {"thp_collapses", stat.thpCollapses},
        {"thp_splits", stat.thpSplits},
        {"memory_failures", stat.memoryFailures},
        {"promotions_held_off", stat.promotionsHeldOff},
    };
}

}  // namespace memtier
