#include "policy/dynamic_tiering.h"

#include <algorithm>
#include <vector>

namespace memtier {

namespace {

/** True for VMAs that hold an application object (the mmap tracker's
 *  records): page-cache files and untracked regions are not ranked. */
bool
isObject(const Vma &vma)
{
    return !vma.pageCache && vma.object != kNoObject;
}

}  // namespace

DynamicObjectTiering::DynamicObjectTiering(
    Kernel &kernel, const DynamicTieringParams &params)
    : kernel(kernel), cfg(params)
{
}

void
DynamicObjectTiering::onAccess(const AccessRecord &record)
{
    if (!isExternalLevel(record.level))
        return;
    const Vma *vma = kernel.addressSpace().find(record.vaddr);
    if (vma == nullptr || !isObject(*vma))
        return;
    windowCounts[vma->object] += 1.0;
}

void
DynamicObjectTiering::scanTick(Cycles now)
{
    ++stat.rebalances;

    // Rank live objects by windowed accesses per requested byte (the
    // static planner's score, computed online).
    struct Ranked
    {
        const Vma *vma;
        double score;
    };
    std::vector<Ranked> ranked;
    for (const auto &[start, vma] : kernel.addressSpace().vmas()) {
        if (!isObject(vma))
            continue;
        auto it = windowCounts.find(vma.object);
        const double count =
            it == windowCounts.end() ? 0.0 : it->second;
        ranked.push_back({&vma, count / static_cast<double>(vma.bytes)});
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked &a, const Ranked &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  return a.vma->object < b.vma->object;
              });

    // Greedy DRAM budget fill, then migrate mismatched objects under
    // the per-interval page budget -- demotions first so promotions
    // have room to land.
    const auto budget_bytes = static_cast<std::uint64_t>(
        static_cast<double>(
            kernel.physicalMemory().dram().params().capacityBytes) *
        (1.0 - cfg.dramReserveFrac));
    std::uint64_t planned = 0;
    std::vector<const Vma *> want_dram;
    std::vector<const Vma *> want_nvm;
    for (const Ranked &r : ranked) {
        if (r.score > 0.0 && planned + r.vma->bytes <= budget_bytes) {
            planned += r.vma->bytes;
            want_dram.push_back(r.vma);
        } else {
            want_nvm.push_back(r.vma);
        }
    }

    std::uint32_t budget = cfg.migrationBudgetPages;
    for (const Vma *vma : want_nvm) {
        if (budget == 0)
            break;
        const std::uint32_t moved = kernel.migratePages(
            vma->start, vma->end, MemNode::NVM, budget, now);
        stat.pagesMovedDown += moved;
        budget -= moved;
    }
    for (const Vma *vma : want_dram) {
        if (budget == 0)
            break;
        const std::uint32_t moved = kernel.migratePages(
            vma->start, vma->end, MemNode::DRAM, budget, now);
        stat.pagesMovedUp += moved;
        budget -= moved;
    }

    // Decay the window so the ranking tracks phase changes.
    for (auto &[obj, count] : windowCounts)
        count *= cfg.decay;
}

std::vector<PolicyCounter>
DynamicObjectTiering::snapshotStats() const
{
    return {
        {"rebalances", stat.rebalances},
        {"pages_moved_up", stat.pagesMovedUp},
        {"pages_moved_down", stat.pagesMovedDown},
    };
}

}  // namespace memtier
