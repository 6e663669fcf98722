/**
 * @file
 * Open-loop request generator for the serving tier: Zipfian key
 * popularity, exponential inter-arrivals modulated by a diurnal ramp
 * and connection-storm bursts, and a GET/SET/DEL/SCAN mix. The stream
 * is a pure function of GeneratorParams (same seed, same requests --
 * the determinism tests and the bit-identical-percentiles acceptance
 * criterion both depend on it).
 */

#ifndef MEMTIER_SERVE_REQUEST_GEN_H_
#define MEMTIER_SERVE_REQUEST_GEN_H_

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "serve/serve_params.h"

namespace memtier {

/** One generated request. */
struct ServeRequest
{
    Cycles arrival = 0;       ///< Arrival time relative to stream start.
    ServeOp op = ServeOp::Get;
    std::uint64_t key = 0;
    std::uint32_t scanLength = 0;  ///< SCAN only.
    ServePhase phase = ServePhase::OffPeak;
};

/**
 * Zipfian rank generator (Gray et al.'s method, the YCSB generator),
 * with ranks scrambled over the keyspace by a bijective multiplicative
 * hash so the hot keys are not physically adjacent.
 */
class ZipfianKeys
{
  public:
    /**
     * @param num_keys keyspace size (power of two).
     * @param theta skew; 0 degenerates to the uniform distribution.
     */
    ZipfianKeys(std::uint64_t num_keys, double theta);

    /** Draw one key in [0, numKeys) using @p rng. */
    std::uint64_t next(Rng &rng) const;

    /** Popularity-rank -> key scrambling (exposed for tests). */
    std::uint64_t keyOfRank(std::uint64_t rank) const;

  private:
    std::uint64_t numKeys;
    double theta;
    double zetan = 0.0;
    double zeta2 = 0.0;
    double alpha = 0.0;
    double eta = 0.0;
};

/** The open-loop request stream. */
class RequestGenerator
{
  public:
    explicit RequestGenerator(const GeneratorParams &params);

    /**
     * Produce the next request into @p out.
     * @return false once the configured request count is exhausted.
     */
    bool next(ServeRequest *out);

    /** Requests produced so far. */
    std::uint64_t produced() const { return emitted; }

    /**
     * Instantaneous arrival rate at @p t_sec (requests per simulated
     * second): base rate with the diurnal modulation and the storm
     * multiplier applied. Exposed for tests.
     */
    double rateAt(double t_sec) const;

    /** Phase label of an arrival at @p t_sec (exposed for tests). */
    ServePhase phaseAt(double t_sec) const;

  private:
    /** sin(2*pi*t/period) of the diurnal ramp, 0 when it is off. */
    double diurnalSin(double t_sec) const;

    /** rateAt / phaseAt given @p sin_t = diurnalSin(@p t_sec). */
    double rateFor(double t_sec, double sin_t) const;
    ServePhase phaseFor(double t_sec, double sin_t) const;

    GeneratorParams p;
    ZipfianKeys keys;
    Rng rng;
    double nowSec = 0.0;
    double nowSin = 0.0;  ///< diurnalSin(nowSec).
    std::uint64_t emitted = 0;
};

/** Generate the whole stream at once (testing convenience). */
std::vector<ServeRequest> generateAll(const GeneratorParams &params);

}  // namespace memtier

#endif  // MEMTIER_SERVE_REQUEST_GEN_H_
