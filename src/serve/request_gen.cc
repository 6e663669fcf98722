#include "serve/request_gen.h"

#include <cmath>

#include "base/logging.h"

namespace memtier {

const char *
serveAppName(ServeApp app)
{
    switch (app) {
      case ServeApp::KV: return "kv";
      case ServeApp::LSM: return "lsm";
    }
    return "?";
}

const char *
servePhaseName(ServePhase phase)
{
    switch (phase) {
      case ServePhase::OffPeak: return "offpeak";
      case ServePhase::Peak: return "peak";
      case ServePhase::Storm: return "storm";
    }
    return "?";
}

const char *
serveOpName(ServeOp op)
{
    switch (op) {
      case ServeOp::Get: return "get";
      case ServeOp::Set: return "set";
      case ServeOp::Del: return "del";
      case ServeOp::Scan: return "scan";
    }
    return "?";
}

// ----------------------------------------------------------- ZipfianKeys

ZipfianKeys::ZipfianKeys(std::uint64_t num_keys, double theta)
    : numKeys(num_keys), theta(theta)
{
    MEMTIER_ASSERT(num_keys > 0 && (num_keys & (num_keys - 1)) == 0,
                   "keyspace must be a power of two");
    MEMTIER_ASSERT(theta >= 0.0 && theta < 1.0,
                   "zipf theta must be in [0, 1)");
    if (theta == 0.0)
        return;  // Uniform; no tables needed.
    for (std::uint64_t i = 1; i <= numKeys; ++i) {
        const double z = std::pow(1.0 / static_cast<double>(i), theta);
        zetan += z;
        if (i <= 2)
            zeta2 += z;
    }
    alpha = 1.0 / (1.0 - theta);
    eta = (1.0 - std::pow(2.0 / static_cast<double>(numKeys),
                          1.0 - theta)) /
          (1.0 - zeta2 / zetan);
}

std::uint64_t
ZipfianKeys::keyOfRank(std::uint64_t rank) const
{
    // Odd-multiplier multiplication is a bijection on Z_{2^k}, so the
    // popularity ranking is spread over the keyspace without collisions.
    return (rank * 0x9e3779b97f4a7c15ULL) & (numKeys - 1);
}

std::uint64_t
ZipfianKeys::next(Rng &rng) const
{
    if (theta == 0.0)
        return rng.nextBounded(numKeys);
    const double u = rng.nextDouble();
    const double uz = u * zetan;
    std::uint64_t rank;
    if (uz < 1.0) {
        rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta)) {
        rank = 1;
    } else {
        rank = static_cast<std::uint64_t>(
            static_cast<double>(numKeys) *
            std::pow(eta * u - eta + 1.0, alpha));
        if (rank >= numKeys)
            rank = numKeys - 1;
    }
    return keyOfRank(rank);
}

// ------------------------------------------------------ RequestGenerator

RequestGenerator::RequestGenerator(const GeneratorParams &params)
    : p(params), keys(params.numKeys, params.zipfTheta), rng(params.seed)
{
    MEMTIER_ASSERT(p.baseRate > 0.0, "arrival rate must be positive");
    MEMTIER_ASSERT(p.readFraction + p.scanFraction <= 1.0,
                   "read + scan fractions exceed 1");
    nowSin = diurnalSin(nowSec);
}

double
RequestGenerator::diurnalSin(double t_sec) const
{
    if (p.diurnalAmplitude > 0.0 && p.diurnalPeriodSec > 0.0)
        return std::sin(2.0 * M_PI * t_sec / p.diurnalPeriodSec);
    return 0.0;
}

double
RequestGenerator::rateFor(double t_sec, double sin_t) const
{
    double rate = p.baseRate;
    if (p.diurnalAmplitude > 0.0 && p.diurnalPeriodSec > 0.0)
        rate *= 1.0 + p.diurnalAmplitude * sin_t;
    if (phaseFor(t_sec, sin_t) == ServePhase::Storm)
        rate *= p.stormMultiplier;
    return std::max(rate, 0.1 * p.baseRate);
}

ServePhase
RequestGenerator::phaseFor(double t_sec, double sin_t) const
{
    if (p.stormDurationSec > 0.0 && t_sec >= p.stormStartSec &&
        t_sec < p.stormStartSec + p.stormDurationSec) {
        return ServePhase::Storm;
    }
    // diurnalSin is 0 when the modulation is off: never a peak.
    return sin_t > 0.0 ? ServePhase::Peak : ServePhase::OffPeak;
}

double
RequestGenerator::rateAt(double t_sec) const
{
    return rateFor(t_sec, diurnalSin(t_sec));
}

ServePhase
RequestGenerator::phaseAt(double t_sec) const
{
    return phaseFor(t_sec, diurnalSin(t_sec));
}

bool
RequestGenerator::next(ServeRequest *out)
{
    if (emitted >= p.requests)
        return false;
    ++emitted;

    // Exponential inter-arrival at the instantaneous rate (a
    // non-homogeneous Poisson process by local linearization; exact
    // enough at these modulation depths and fully deterministic). The
    // diurnal sin of an arrival instant is computed once: it labels
    // this arrival and sets the rate of the next gap.
    const double u = rng.nextDouble();
    nowSec += -std::log1p(-u) / rateFor(nowSec, nowSin);
    nowSin = diurnalSin(nowSec);

    out->arrival = secondsToCycles(nowSec);
    out->phase = phaseFor(nowSec, nowSin);
    out->key = keys.next(rng);
    out->scanLength = 0;

    const double mix = rng.nextDouble();
    if (mix < p.readFraction) {
        out->op = ServeOp::Get;
    } else if (mix < p.readFraction + p.scanFraction) {
        out->op = ServeOp::Scan;
        out->scanLength = p.scanLength;
    } else if (rng.nextBool(p.deleteFraction)) {
        out->op = ServeOp::Del;
    } else {
        out->op = ServeOp::Set;
    }
    return true;
}

std::vector<ServeRequest>
generateAll(const GeneratorParams &params)
{
    RequestGenerator gen(params);
    std::vector<ServeRequest> out;
    out.reserve(params.requests);
    ServeRequest r;
    while (gen.next(&r))
        out.push_back(r);
    return out;
}

}  // namespace memtier
