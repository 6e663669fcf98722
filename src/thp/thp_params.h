/**
 * @file
 * Transparent-huge-page model tunables.
 *
 * Header-only (base dependencies only) so the os layer can embed the
 * parameters in KernelParams without linking against the thp library;
 * the collapse daemon itself (khugepaged.h) sits above the kernel.
 */

#ifndef MEMTIER_THP_THP_PARAMS_H_
#define MEMTIER_THP_THP_PARAMS_H_

#include <cstdint>

#include "base/env.h"
#include "base/types.h"

namespace memtier {

/**
 * THP knobs. Everything is inert while @ref enabled is false -- the
 * default -- which keeps 4 KiB-only runs bit-identical to builds that
 * predate the THP model (golden-regression guarded).
 */
struct ThpParams
{
    /** Master switch (the /sys/kernel/mm/transparent_hugepage knob). */
    bool enabled = false;

    /**
     * Allocate PMD mappings directly on first touch of an eligible
     * 2 MiB range (THP "always" policy). When false, huge pages only
     * appear through khugepaged collapse.
     */
    bool faultAlloc = true;

    /** Cycles between khugepaged scan rounds. */
    Cycles khugepagedPeriod = secondsToCycles(0.002);

    /** 2 MiB-aligned ranges examined per khugepaged round. */
    std::uint32_t khugepagedRangesPerRound = 64;

    /** Collapses performed per khugepaged round at most. */
    std::uint32_t khugepagedMaxCollapses = 8;
};

/** MEMTIER_THP=ON/on/1 force-enables the THP model for any run. */
inline bool
thpForcedByEnv()
{
    return envFlag("MEMTIER_THP");
}

}  // namespace memtier

#endif  // MEMTIER_THP_THP_PARAMS_H_
