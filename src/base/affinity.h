/**
 * @file
 * The host CPUs this process may run on: the one count that sizes
 * every host-thread pool (the cell pool, the out-of-core bucket sort)
 * and that a record reports as its host's nproc.
 */

#ifndef MEMTIER_BASE_AFFINITY_H_
#define MEMTIER_BASE_AFFINITY_H_

namespace memtier {

/** CPUs in this process's affinity mask (at least 1). */
unsigned affinityCpuCount();

}  // namespace memtier

#endif  // MEMTIER_BASE_AFFINITY_H_
