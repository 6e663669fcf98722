#include "policy/exchange_policy.h"

#include <algorithm>

#include "policy/autonuma.h"
#include "policy/tunable_registry.h"

namespace memtier {

ExchangePolicy::ExchangePolicy(Kernel &kernel,
                               const ExchangePolicyParams &params)
    : kernel(kernel), cfg(params)
{
}

void
ExchangePolicy::scanTick(Cycles now)
{
    batchUsed = 0;  // A fresh exchange budget every scan period.

    if (kernel.migrationsPaused(now)) {
        ++stat.scansPaused;
        return;
    }
    if (kernel.addressSpace().vmas().empty())
        return;
    stat.pagesScanned +=
        kernel.changeProtNuma(scanCursor, cfg.scanPagesPerRound, now);

    // Expire stale protection entries so the map stays bounded.
    for (auto it = protectedUntil.begin(); it != protectedUntil.end();) {
        if (it->second <= now)
            it = protectedUntil.erase(it);
        else
            ++it;
    }
}

Cycles
ExchangePolicy::onHintFault(PageNum vpn, Cycles now, PageMeta &meta)
{
    ++stat.hintFaults;
    if (meta.node != MemNode::NVM)
        return 0;
    ++stat.hintFaultsNvm;

    if (now < promotionHoldUntil) {
        // A DRAM frame was just retired: neither a promotion nor an
        // exchange should push more pages into the shrinking tier until
        // reclaim has adjusted to the reduced capacity.
        ++stat.promotionsHeldOff;
        return 0;
    }

    const Cycles latency = now >= meta.scanTime ? now - meta.scanTime : 0;
    if (latency >= cfg.hotThreshold) {
        ++stat.rejectedCold;
        return 0;
    }

    // PMD mappings take the plain promotion path only: the pairwise
    // 4 KiB exchange cannot host a 2 MiB range, and the kernel demand-
    // splits the mapping itself if no contiguous DRAM frame exists.
    if (meta.huge) {
        const PageNum base = hugeBaseOf(vpn);
        const Cycles cost = kernel.promotePage(vpn, now);
        if (cost > 0) {
            ++stat.promotions;
            protectedUntil[base] = now + cfg.protectWindow;
        }
        return cost;
    }

    // Free-capacity fast path: plain promotion, like AutoNUMA.
    if (kernel.dramHasFreeCapacity()) {
        const Cycles cost = kernel.promotePage(vpn, now);
        if (cost > 0) {
            ++stat.promotions;
            protectedUntil[vpn] = now + cfg.protectWindow;
        }
        return cost;
    }

    // DRAM full: exchange with the coldest DRAM page instead of waiting
    // for reclaim to demote one (the AutoTiering CPM/OPM fast path).
    if (batchUsed >= cfg.exchangeBatch) {
        ++stat.rejectedBatch;
        return 0;
    }
    const PageNum victim = kernel.pickExchangeVictim(now);
    if (victim == kNoPage) {
        ++stat.noVictim;
        return 0;
    }
    const Cycles cost = kernel.exchangePages(vpn, victim, now);
    if (cost > 0) {
        ++stat.exchanges;
        ++batchUsed;
        protectedUntil[vpn] = now + cfg.protectWindow;
        protectedUntil.erase(victim);
    } else {
        ++stat.noVictim;
    }
    return cost;
}

DemotionDecision
ExchangePolicy::onDemotionRequest(PageNum vpn, Cycles now,
                                  const PageMeta &meta, bool direct)
{
    (void)meta;
    (void)direct;
    const auto it = protectedUntil.find(vpn);
    if (it != protectedUntil.end() && it->second > now) {
        ++stat.demotionsVetoed;
        return DemotionDecision::veto();
    }
    return DemotionDecision::allow();
}

void
ExchangePolicy::onMemoryFailure(PageNum vpn, MemNode node,
                                bool uncorrectable, Cycles now)
{
    (void)uncorrectable;
    ++stat.memoryFailures;
    // The retired frame's page is gone or moved; drop any protection
    // entry so the map does not pin a recycled virtual page number.
    protectedUntil.erase(vpn);
    if (node == MemNode::DRAM)
        promotionHoldUntil = std::max(promotionHoldUntil,
                                      now + cfg.failureHoldoff);
}

std::vector<PolicyCounter>
ExchangePolicy::snapshotStats() const
{
    return {
        {"pages_scanned", stat.pagesScanned},
        {"hint_faults", stat.hintFaults},
        {"hint_faults_nvm", stat.hintFaultsNvm},
        {"promotions", stat.promotions},
        {"exchanges", stat.exchanges},
        {"rejected_cold", stat.rejectedCold},
        {"rejected_batch", stat.rejectedBatch},
        {"no_victim", stat.noVictim},
        {"demotions_vetoed", stat.demotionsVetoed},
        {"scans_paused", stat.scansPaused},
        {"memory_failures", stat.memoryFailures},
        {"promotions_held_off", stat.promotionsHeldOff},
    };
}

void
ExchangePolicy::registerTunables(TunableRegistry &registry)
{
    registerScanTunables(registry, name(), cfg.scanPeriod,
                         cfg.scanPagesPerRound, cfg.failureHoldoff);
    registry.add({"hot_threshold_ms",
                  "fixed hint-fault hotness threshold (ms)", name(), 0.01,
                  1000.0, false, false,
                  [this] {
                      return cyclesToSeconds(cfg.hotThreshold) * 1e3;
                  },
                  [this](double v) {
                      cfg.hotThreshold = secondsToCycles(v / 1000.0);
                  }});
    registry.add({"exchange_batch", "exchanges allowed per scan period",
                  name(), 1.0, 4096.0, /*integerValued=*/true, false,
                  [this] {
                      return static_cast<double>(cfg.exchangeBatch);
                  },
                  [this](double v) {
                      cfg.exchangeBatch = static_cast<std::uint32_t>(v);
                  }});
    registry.add({"protect_ms",
                  "reclaim protection window for exchanged-in pages (ms)",
                  name(), 0.0, 1000.0, false, false,
                  [this] {
                      return cyclesToSeconds(cfg.protectWindow) * 1e3;
                  },
                  [this](double v) {
                      cfg.protectWindow = secondsToCycles(v / 1000.0);
                  }});
}

}  // namespace memtier
