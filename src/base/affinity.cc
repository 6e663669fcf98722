#include "base/affinity.h"

#include <algorithm>
#include <thread>

#include <sched.h>

namespace memtier {

unsigned
affinityCpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    // More CPUs than a cpu_set_t holds: fall back to the online count.
    return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace memtier
