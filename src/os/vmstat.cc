#include "os/vmstat.h"

#include <ostream>

namespace memtier {

void
writeVmstat(std::ostream &os, const VmStat &s)
{
    for (const VmStatCounter &c : kVmStatCounters)
        os << c.name << ' ' << s.*c.field << '\n';
}

}  // namespace memtier
