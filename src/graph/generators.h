/**
 * @file
 * The two GAPBS synthetic inputs the paper uses (Section 4.1):
 * Kronecker (kron, Graph500 parameters) and uniform random (urand,
 * Erdos-Renyi style), both with average degree 16.
 *
 * The paper generates `-g30/-u31` (hundreds of GB); the scaled testbed
 * uses the same generators at smaller scale so the footprint exceeds
 * the scaled DRAM capacity by the same ratio.
 *
 * Both generators exist in two forms sharing one RNG sequence: the
 * EdgeList builders below, and streaming forEach*Edge visitors that
 * emit edges one at a time without materializing the list -- the form
 * the out-of-core segmented builder (src/bigraph) consumes, where the
 * full edge list at scale 24+ would not fit the host RSS budget. The
 * builders are thin wrappers over the visitors.
 */

#ifndef MEMTIER_GRAPH_GENERATORS_H_
#define MEMTIER_GRAPH_GENERATORS_H_

#include <cstdint>

#include "base/logging.h"
#include "base/rng.h"
#include "graph/graph.h"

namespace memtier {

/** Graph500 R-MAT quadrant probabilities; D takes the remainder. */
inline constexpr double kKronA = 0.57;
inline constexpr double kKronB = 0.19;
inline constexpr double kKronC = 0.19;

/**
 * Integer form of the draw test `nextDouble() < p`. nextDouble() is
 * exactly k * 2^-53 with k = next() >> 11, and scaling @p p by 2^53 is
 * exact, so r < p holds exactly when k < ceil(p * 2^53).
 */
constexpr std::uint64_t
kronThreshold(double p)
{
    const double x = p * 0x1.0p53;
    const auto t = static_cast<std::uint64_t>(x);
    return static_cast<double>(t) == x ? t : t + 1;
}

/** Cumulative quadrant thresholds, from the double sums A, A+B and
 *  A+B+C that a floating-point quadrant chain compares r against. */
inline constexpr std::uint64_t kKronThresholdA = kronThreshold(kKronA);
inline constexpr std::uint64_t kKronThresholdAB =
    kronThreshold(kKronA + kKronB);
inline constexpr std::uint64_t kKronThresholdABC =
    kronThreshold(kKronA + kKronB + kKronC);
static_assert(0 < kKronThresholdA && kKronThresholdA < kKronThresholdAB &&
              kKronThresholdAB < kKronThresholdABC &&
              kKronThresholdABC < (1ULL << 53));

/**
 * R-MAT quadrant of one 53-bit draw @p k, branch-free: bit 1 is the
 * source's bit, bit 0 the target's. Quadrant A (k < T_A) sets neither,
 * B sets the target's, C the source's, D both.
 */
constexpr std::uint64_t
kronQuadrant(std::uint64_t k)
{
    const std::uint64_t ge_a = k >= kKronThresholdA;
    const std::uint64_t ge_ab = k >= kKronThresholdAB;
    const std::uint64_t ge_abc = k >= kKronThresholdABC;
    return ge_ab << 1 | (ge_a ^ ge_ab ^ ge_abc);
}

/**
 * Stream the Kronecker (R-MAT) edge sequence with Graph500
 * probabilities: calls @p fn(u, v) for each of the degree*2^scale
 * generated edges, in generation order. One draw per bit, the same
 * draws a floating-point `r < p` quadrant chain makes; an absolute
 * stream golden (tests/graph_test.cc) pins the sequence.
 */
template <typename Fn>
void
forEachKronEdge(int scale, int degree, std::uint64_t seed, Fn &&fn)
{
    MEMTIER_ASSERT(scale > 0 && scale < 32, "kron scale out of range");
    const std::uint64_t n = 1ULL << scale;
    const std::uint64_t m = n * static_cast<std::uint64_t>(degree);
    Rng rng(seed);

    for (std::uint64_t e = 0; e < m; ++e) {
        std::uint64_t u = 0;
        std::uint64_t v = 0;
        for (int bit = 0; bit < scale; ++bit) {
            const std::uint64_t q = kronQuadrant(rng.next() >> 11);
            u |= (q >> 1) << bit;
            v |= (q & 1) << bit;
        }
        fn(static_cast<NodeId>(u), static_cast<NodeId>(v));
    }
}

/**
 * Stream the uniform-random edge sequence: calls @p fn(u, v) for each
 * of the degree*2^scale edges with independently uniform endpoints.
 * Pinned by the same absolute stream golden.
 */
template <typename Fn>
void
forEachUrandEdge(int scale, int degree, std::uint64_t seed, Fn &&fn)
{
    MEMTIER_ASSERT(scale > 0 && scale < 32, "urand scale out of range");
    const std::uint64_t n = 1ULL << scale;
    const std::uint64_t m = n * static_cast<std::uint64_t>(degree);
    Rng rng(seed);

    for (std::uint64_t e = 0; e < m; ++e) {
        const auto u = static_cast<NodeId>(rng.nextBounded(n));
        const auto v = static_cast<NodeId>(rng.nextBounded(n));
        fn(u, v);
    }
}

/**
 * Kronecker (R-MAT) generator with Graph500 probabilities
 * (A=0.57, B=0.19, C=0.19).
 *
 * @param scale log2 of the vertex count.
 * @param degree average edges per vertex (Graph500 edgefactor).
 * @param seed RNG seed.
 */
EdgeList generateKron(int scale, int degree, std::uint64_t seed);

/**
 * Uniform-random generator: degree*2^scale edges with independently
 * uniform endpoints.
 *
 * @param scale log2 of the vertex count.
 * @param degree average edges per vertex.
 * @param seed RNG seed.
 */
EdgeList generateUrand(int scale, int degree, std::uint64_t seed);

}  // namespace memtier

#endif  // MEMTIER_GRAPH_GENERATORS_H_
