#include "policy/static_policies.h"

#include "policy/tunable_registry.h"

namespace memtier {

std::vector<PolicyCounter>
StaticPolicy::snapshotStats() const
{
    return {
        {"first_touch_dram", stat.firstTouchDram},
        {"first_touch_nvm", stat.firstTouchNvm},
        {"demotions_vetoed", stat.demotionsVetoed},
    };
}

DramOnlyPolicy::DramOnlyPolicy(Kernel &kernel) : kernel(kernel) {}

MemNode
DramOnlyPolicy::onFirstTouchAlloc(PageNum vpn, Cycles now, MemNode chosen)
{
    (void)vpn;
    (void)now;
    (void)chosen;
    // Pack DRAM completely: override the kernel's watermark-driven NVM
    // fallback and only overflow when DRAM is truly out of frames (the
    // fault path falls back on allocation failure).
    const MemNode node =
        kernel.physicalMemory().dram().freePages() > 0 ? MemNode::DRAM
                                                       : MemNode::NVM;
    if (node == MemNode::DRAM)
        ++stat.firstTouchDram;
    else
        ++stat.firstTouchNvm;
    return node;
}

InterleavePolicy::InterleavePolicy(std::uint32_t dram_stride,
                                   std::uint32_t nvm_stride)
    : dramStride(dram_stride ? dram_stride : 1),
      nvmStride(nvm_stride ? nvm_stride : 1)
{
}

void
InterleavePolicy::registerTunables(TunableRegistry &registry)
{
    // The ratio only steers *future* first touches; changing it mid-run
    // never moves already-placed pages.
    registry.add({"dram_stride", "pages sent to DRAM per period", name(),
                  1.0, 64.0, /*integerValued=*/true, false,
                  [this] { return static_cast<double>(dramStride); },
                  [this](double v) {
                      dramStride = static_cast<std::uint32_t>(v);
                      if (dramStride == 0)
                          dramStride = 1;
                  }});
    registry.add({"nvm_stride", "pages sent to NVM per period", name(),
                  1.0, 64.0, /*integerValued=*/true, false,
                  [this] { return static_cast<double>(nvmStride); },
                  [this](double v) {
                      nvmStride = static_cast<std::uint32_t>(v);
                      if (nvmStride == 0)
                          nvmStride = 1;
                  }});
}

MemNode
InterleavePolicy::onFirstTouchAlloc(PageNum vpn, Cycles now,
                                    MemNode chosen)
{
    (void)vpn;
    (void)now;
    (void)chosen;
    // Deal pages round-robin in stride-sized runs: dramStride pages to
    // DRAM, then nvmStride pages to NVM, in first-touch order.
    const std::uint64_t period = dramStride + nvmStride;
    const MemNode node = (counter++ % period) < dramStride
                             ? MemNode::DRAM
                             : MemNode::NVM;
    if (node == MemNode::DRAM)
        ++stat.firstTouchDram;
    else
        ++stat.firstTouchNvm;
    return node;
}

}  // namespace memtier
