/**
 * @file
 * SimVector<T>: a typed array living in the simulated address space.
 *
 * Element reads/writes issue timed memory operations through the engine
 * while the actual values live in host memory owned by the SimHeap. This
 * is how the graph applications "run on" the simulated tiered memory.
 */

#ifndef MEMTIER_RUNTIME_SIM_VECTOR_H_
#define MEMTIER_RUNTIME_SIM_VECTOR_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "base/logging.h"
#include "base/types.h"
#include "sim/engine.h"
#include "sim/thread_context.h"

namespace memtier {

/**
 * Non-owning handle to a simulated-memory array. Ownership of both the
 * virtual region and the host backing store stays with the SimHeap that
 * allocated it.
 *
 * @tparam T trivially copyable element of power-of-two size <= 8, so an
 *           aligned element never straddles a cache line.
 */
template <typename T>
class SimVector
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "SimVector elements must be trivially copyable");
    static_assert(sizeof(T) <= 8 && (sizeof(T) & (sizeof(T) - 1)) == 0,
                  "element size must be 1, 2, 4 or 8 bytes");

  public:
    /**
     * Elements per accessBatch issued by the bulk operations. Chunking
     * bounds the request scratch buffer; batch boundaries are free to
     * move because the batched path is bit-identical to per-element
     * issue regardless of where a batch starts or ends. The engine's
     * own materialized chunks use the same size.
     */
    static constexpr std::uint64_t kBulkChunk = kAccessChunk;

    /** Empty (invalid) handle. */
    SimVector() = default;

    /** Wired handle; built by SimHeap. */
    SimVector(Engine *engine, Addr base, T *host, std::uint64_t count)
        : eng(engine), baseAddr(base), hostPtr(host), n(count)
    {
    }

    /** True when this handle refers to an allocation. */
    bool valid() const { return eng != nullptr; }

    /** Element count. */
    std::uint64_t size() const { return n; }

    /** Base simulated virtual address. */
    Addr base() const { return baseAddr; }

    /** Simulated address of element @p i. */
    Addr
    addrOf(std::uint64_t i) const
    {
        return baseAddr + i * sizeof(T);
    }

    /** Timed load of element @p i on thread @p t. */
    T
    get(ThreadContext &t, std::uint64_t i) const
    {
        MEMTIER_ASSERT(i < n, "SimVector load out of range");
        eng->load(t, addrOf(i));
        return hostPtr[i];
    }

    /** Timed store of @p value into element @p i on thread @p t. */
    void
    set(ThreadContext &t, std::uint64_t i, T value) const
    {
        MEMTIER_ASSERT(i < n, "SimVector store out of range");
        eng->store(t, addrOf(i));
        hostPtr[i] = value;
    }

    /**
     * Timed read-modify-write convenience (our interleaving is
     * serialized, so this is atomic by construction).
     */
    template <typename Fn>
    void
    update(ThreadContext &t, std::uint64_t i, Fn &&fn) const
    {
        MEMTIER_ASSERT(i < n, "SimVector update out of range");
        eng->load(t, addrOf(i));
        hostPtr[i] = fn(hostPtr[i]);
        eng->store(t, addrOf(i));
    }

    // -- Bulk operations ----------------------------------------------
    //
    // Each builds one request list in the thread's scratch buffer and
    // issues a single Engine::accessBatch per chunk, so the engine can
    // coalesce same-line runs and deliver observer records batch-at-a-
    // time. The timed access sequence is exactly the per-element loop's
    // (same addresses, same ops, same order); only the host-side
    // dispatch is amortized.

    /**
     * Timed loads of [@p begin, @p end); calls @p fn(i, value) for each
     * element after its chunk's accesses are issued. @p fn must not
     * itself mutate this vector's elements.
     */
    template <typename Fn>
    void
    forEach(ThreadContext &t, std::uint64_t begin, std::uint64_t end,
            Fn &&fn) const
    {
        MEMTIER_ASSERT(begin <= end && end <= n,
                       "SimVector forEach out of range");
        for (std::uint64_t c = begin; c < end;) {
            const std::uint64_t stop = std::min(end, c + kBulkChunk);
            issueRange(t, c, stop, MemOp::Load);
            for (std::uint64_t i = c; i < stop; ++i)
                fn(i, hostPtr[i]);
            c = stop;
        }
    }

    /** Timed loads of [@p begin, @p end) copied into @p dst. */
    void
    copyOut(ThreadContext &t, std::uint64_t begin, std::uint64_t end,
            T *dst) const
    {
        MEMTIER_ASSERT(begin <= end && end <= n,
                       "SimVector copyOut out of range");
        for (std::uint64_t c = begin; c < end;) {
            const std::uint64_t stop = std::min(end, c + kBulkChunk);
            issueRange(t, c, stop, MemOp::Load);
            c = stop;
        }
        if (end > begin)
            std::memcpy(dst, hostPtr + begin, (end - begin) * sizeof(T));
    }

    /** Timed stores of @p count elements from @p src at @p begin. */
    void
    putRange(ThreadContext &t, std::uint64_t begin, const T *src,
             std::uint64_t count) const
    {
        storeRange(t, begin, count);
        if (count > 0)
            std::memcpy(hostPtr + begin, src, count * sizeof(T));
    }

    /**
     * Timed stores of @p count elements at @p begin whose values are
     * already in host storage (written untimed through host()): the
     * accesses of putRange without its copy.
     */
    void
    storeRange(ThreadContext &t, std::uint64_t begin,
               std::uint64_t count) const
    {
        MEMTIER_ASSERT(begin + count <= n,
                       "SimVector storeRange out of range");
        for (std::uint64_t c = begin; c < begin + count;) {
            const std::uint64_t stop =
                std::min(begin + count, c + kBulkChunk);
            issueRange(t, c, stop, MemOp::Store);
            c = stop;
        }
    }

    /**
     * Timed stores of [@p begin, @p end) with per-element values from
     * @p gen(i), issued as batches.
     */
    template <typename Gen>
    void
    generate(ThreadContext &t, std::uint64_t begin, std::uint64_t end,
             Gen &&gen) const
    {
        MEMTIER_ASSERT(begin <= end && end <= n,
                       "SimVector generate out of range");
        for (std::uint64_t c = begin; c < end;) {
            const std::uint64_t stop = std::min(end, c + kBulkChunk);
            issueRange(t, c, stop, MemOp::Store);
            for (std::uint64_t i = c; i < stop; ++i)
                hostPtr[i] = gen(i);
            c = stop;
        }
    }

    /** Timed stores filling [@p begin, @p end) with @p value. */
    void
    fillRange(ThreadContext &t, std::uint64_t begin, std::uint64_t end,
              T value) const
    {
        MEMTIER_ASSERT(begin <= end && end <= n,
                       "SimVector fillRange out of range");
        for (std::uint64_t c = begin; c < end;) {
            const std::uint64_t stop = std::min(end, c + kBulkChunk);
            issueRange(t, c, stop, MemOp::Store);
            c = stop;
        }
        std::fill(hostPtr + begin, hostPtr + end, value);
    }

    /**
     * Timed gather: load index elements [@p begin, @p end) of @p idx,
     * then load this vector at each of those positions, writing the
     * values to @p dst in index order.
     */
    template <typename I>
    void
    gatherFrom(ThreadContext &t, const SimVector<I> &idx,
               std::uint64_t begin, std::uint64_t end, T *dst) const
    {
        for (std::uint64_t c = begin; c < end;) {
            const std::uint64_t stop = std::min(end, c + kBulkChunk);
            idx.issueRange(t, c, stop, MemOp::Load);
            auto &addrs = t.addrScratch;
            addrs.clear();
            for (std::uint64_t k = c; k < stop; ++k) {
                const auto i = static_cast<std::uint64_t>(idx.raw(k));
                MEMTIER_ASSERT(i < n, "SimVector gather out of range");
                addrs.push_back(addrOf(i));
            }
            eng->accessMany(t, std::span<const Addr>(addrs),
                            MemOp::Load);
            for (std::uint64_t k = c; k < stop; ++k)
                dst[k - begin] =
                    hostPtr[static_cast<std::uint64_t>(idx.raw(k))];
            c = stop;
        }
    }

    /**
     * Timed gather with host-resident indices: load this vector at each
     * position in @p indices, writing values to @p dst in order.
     */
    template <typename I>
    void
    gather(ThreadContext &t, std::span<const I> indices, T *dst) const
    {
        for (std::size_t c = 0; c < indices.size();) {
            const std::size_t stop =
                std::min(indices.size(),
                         c + static_cast<std::size_t>(kBulkChunk));
            auto &addrs = t.addrScratch;
            addrs.clear();
            for (std::size_t k = c; k < stop; ++k) {
                const auto i = static_cast<std::uint64_t>(indices[k]);
                MEMTIER_ASSERT(i < n, "SimVector gather out of range");
                addrs.push_back(addrOf(i));
            }
            eng->accessMany(t, std::span<const Addr>(addrs),
                            MemOp::Load);
            for (std::size_t k = c; k < stop; ++k)
                dst[k] = hostPtr[static_cast<std::uint64_t>(indices[k])];
            c = stop;
        }
    }

    /** Timed scatter: store @p value at each position in @p indices. */
    template <typename I>
    void
    scatterSet(ThreadContext &t, std::span<const I> indices, T value) const
    {
        for (std::size_t c = 0; c < indices.size();) {
            const std::size_t stop =
                std::min(indices.size(),
                         c + static_cast<std::size_t>(kBulkChunk));
            auto &addrs = t.addrScratch;
            addrs.clear();
            for (std::size_t k = c; k < stop; ++k) {
                const auto i = static_cast<std::uint64_t>(indices[k]);
                MEMTIER_ASSERT(i < n, "SimVector scatter out of range");
                addrs.push_back(addrOf(i));
            }
            eng->accessMany(t, std::span<const Addr>(addrs),
                            MemOp::Store);
            for (std::size_t k = c; k < stop; ++k)
                hostPtr[static_cast<std::uint64_t>(indices[k])] = value;
            c = stop;
        }
    }

    /**
     * Issue the timed accesses for [@p begin, @p end) as one batch
     * without touching host values (building block for the bulk ops;
     * public so composite structures like the CSR segments can reuse
     * it).
     */
    void
    issueRange(ThreadContext &t, std::uint64_t begin, std::uint64_t end,
               MemOp op) const
    {
        if (end > begin)
            eng->accessRange(t, addrOf(begin), end - begin,
                             static_cast<std::uint32_t>(sizeof(T)), op);
    }

    /**
     * Untimed host access, for verification and for initializing values
     * whose timed population happens through other calls.
     */
    T *host() { return hostPtr; }

    /** Untimed const host access. */
    const T *host() const { return hostPtr; }

    /** Untimed host element read (validation only). */
    T raw(std::uint64_t i) const { return hostPtr[i]; }

  private:
    Engine *eng = nullptr;
    Addr baseAddr = 0;
    T *hostPtr = nullptr;
    std::uint64_t n = 0;
};

}  // namespace memtier

#endif  // MEMTIER_RUNTIME_SIM_VECTOR_H_
