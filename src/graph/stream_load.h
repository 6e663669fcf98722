/**
 * @file
 * Timed streaming of file-resident values into a simulated allocation:
 * one page-granular page-cache fetch plus line loads, interleaved with
 * the element stores, page by page -- the access pattern of a buffered
 * fread into a fresh allocation. Shared by the monolithic SimCsrGraph
 * loader and the segmented loader in src/bigraph, so both phases issue
 * the exact same access sequence per byte streamed.
 */

#ifndef MEMTIER_GRAPH_STREAM_LOAD_H_
#define MEMTIER_GRAPH_STREAM_LOAD_H_

#include <algorithm>
#include <cstdint>

#include "runtime/sim_file.h"
#include "runtime/sim_vector.h"

namespace memtier {

/**
 * Stream all of @p dst from @p file at @p file_offset: page by page,
 * one page-granular file.read, then timed stores of the elements that
 * page carries. The values must already be in @p dst's host storage
 * (written untimed through host()); only the accesses are issued.
 */
template <typename T>
void
streamInPlace(SimFile &file, ThreadContext &t, std::uint64_t file_offset,
              const SimVector<T> &dst)
{
    const std::uint64_t count = dst.size();
    std::uint64_t copied = 0;
    while (copied < count) {
        const std::uint64_t bytes_done = copied * sizeof(T);
        const std::uint64_t chunk_bytes =
            std::min<std::uint64_t>(kPageSize,
                                    (count - copied) * sizeof(T));
        file.read(t, file_offset + bytes_done, chunk_bytes);
        const std::uint64_t chunk_elems = chunk_bytes / sizeof(T);
        dst.storeRange(t, copied, chunk_elems);
        copied += chunk_elems;
    }
}

}  // namespace memtier

#endif  // MEMTIER_GRAPH_STREAM_LOAD_H_
