/**
 * @file
 * Unit tests for the base library: types, RNG, statistics, CSV,
 * logging and the environment-override parsers.
 */

#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "base/csv.h"
#include "base/env.h"
#include "base/logging.h"
#include "base/rng.h"
#include "base/stats.h"
#include "base/types.h"

namespace memtier {
namespace {

// ---------------------------------------------------------------- types

TEST(Types, PageGeometry)
{
    EXPECT_EQ(kPageSize, 4096u);
    EXPECT_EQ(pageOf(0), 0u);
    EXPECT_EQ(pageOf(4095), 0u);
    EXPECT_EQ(pageOf(4096), 1u);
    EXPECT_EQ(pageBase(3), 3u * 4096u);
}

TEST(Types, LineGeometry)
{
    EXPECT_EQ(kLineSize, 64u);
    EXPECT_EQ(lineOf(63), 0u);
    EXPECT_EQ(lineOf(64), 1u);
    EXPECT_EQ(lineOf(4096), 64u);
}

TEST(Types, RoundUpPages)
{
    EXPECT_EQ(roundUpPages(1), 1u);
    EXPECT_EQ(roundUpPages(4096), 1u);
    EXPECT_EQ(roundUpPages(4097), 2u);
    EXPECT_EQ(roundUpPages(0), 0u);
}

TEST(Types, CycleSecondsRoundTrip)
{
    const Cycles c = secondsToCycles(1.5);
    EXPECT_NEAR(cyclesToSeconds(c), 1.5, 1e-9);
    EXPECT_EQ(secondsToCycles(1.0), kCyclesPerSecond);
}

TEST(Types, LevelNames)
{
    EXPECT_STREQ(memLevelName(MemLevel::L1), "L1");
    EXPECT_STREQ(memLevelName(MemLevel::LFB), "LFB");
    EXPECT_STREQ(memLevelName(MemLevel::NVM), "NVM");
    EXPECT_STREQ(memNodeName(MemNode::DRAM), "DRAM");
    EXPECT_STREQ(memNodeName(MemNode::NVM), "NVM");
}

TEST(Types, ExternalLevels)
{
    EXPECT_TRUE(isExternalLevel(MemLevel::DRAM));
    EXPECT_TRUE(isExternalLevel(MemLevel::NVM));
    EXPECT_FALSE(isExternalLevel(MemLevel::L1));
    EXPECT_FALSE(isExternalLevel(MemLevel::LFB));
    EXPECT_FALSE(isExternalLevel(MemLevel::L3));
}

// ------------------------------------------------------------------ rng

TEST(Rng, Deterministic)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 4);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, BoundedZeroBound)
{
    Rng rng(7);
    EXPECT_EQ(rng.nextBounded(0), 0u);
}

TEST(Rng, BoundedCoversRange)
{
    Rng rng(11);
    bool seen[8] = {};
    for (int i = 0; i < 1000; ++i)
        seen[rng.nextBounded(8)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(9);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, SplitMixDeterministic)
{
    SplitMix64 a(42);
    SplitMix64 b(42);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), SplitMix64(43).next());
}

// ---------------------------------------------------------------- stats

TEST(RunningStat, Empty)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, Moments)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // Sample stddev.
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_EQ(s.sum(), 40.0);
}

TEST(RunningStat, SingleValue)
{
    RunningStat s;
    s.add(3.5);
    EXPECT_EQ(s.mean(), 3.5);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 3.5);
    EXPECT_EQ(s.max(), 3.5);
}

TEST(RunningStat, NegativeValues)
{
    RunningStat s;
    s.add(-10.0);
    s.add(10.0);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), -10.0);
}

TEST(PercentileSummary, Empty)
{
    PercentileSummary p;
    EXPECT_EQ(p.percentile(0.5), 0.0);
    EXPECT_EQ(p.mean(), 0.0);
}

TEST(PercentileSummary, Quartiles)
{
    PercentileSummary p;
    for (int i = 1; i <= 101; ++i)
        p.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(p.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(p.percentile(0.25), 26.0);
    EXPECT_DOUBLE_EQ(p.percentile(0.5), 51.0);
    EXPECT_DOUBLE_EQ(p.percentile(0.75), 76.0);
    EXPECT_DOUBLE_EQ(p.percentile(1.0), 101.0);
    EXPECT_DOUBLE_EQ(p.mean(), 51.0);
}

TEST(PercentileSummary, InterpolatesBetweenOrderStats)
{
    PercentileSummary p;
    p.add(0.0);
    p.add(10.0);
    EXPECT_DOUBLE_EQ(p.percentile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(p.percentile(0.25), 2.5);
}

TEST(PercentileSummary, UnsortedInput)
{
    PercentileSummary p;
    for (double v : {9.0, 1.0, 5.0, 3.0, 7.0})
        p.add(v);
    EXPECT_DOUBLE_EQ(p.min(), 1.0);
    EXPECT_DOUBLE_EQ(p.max(), 9.0);
    EXPECT_DOUBLE_EQ(p.percentile(0.5), 5.0);
}

TEST(PercentileSummary, Stddev)
{
    PercentileSummary p;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        p.add(v);
    EXPECT_NEAR(p.stddev(), 2.138, 0.001);
}

TEST(Histogram, Buckets)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(1.5);
    h.add(1.9);
    h.add(9.99);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(9), 1u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, UnderOverflow)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-1.0);
    h.add(10.0);
    h.add(100.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, BucketLowEdges)
{
    Histogram h(0.0, 100.0, 4);
    EXPECT_DOUBLE_EQ(h.bucketLow(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketLow(2), 50.0);
}

TEST(LatencyHistogram, Empty)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
    EXPECT_DOUBLE_EQ(h.violationFraction(100), 0.0);
}

TEST(LatencyHistogram, BucketGeometry)
{
    using LH = LatencyHistogram;
    // Values below kSubBuckets land in their own unit bucket.
    for (std::uint64_t v = 0; v < LH::kSubBuckets; ++v) {
        EXPECT_EQ(LH::bucketIndex(v), v);
        EXPECT_EQ(LH::bucketLow(v), v);
        EXPECT_EQ(LH::bucketWidth(v), 1u);
    }
    // Every value is covered by its bucket's [low, low + width) range,
    // and bucket indices are monotone in the value.
    std::size_t prev = 0;
    for (std::uint64_t v = 1; v < (1ULL << 40); v = v * 3 + 1) {
        const std::size_t i = LH::bucketIndex(v);
        EXPECT_GE(i, prev);
        prev = i;
        EXPECT_LE(LH::bucketLow(i), v);
        EXPECT_LT(v, LH::bucketLow(i) + LH::bucketWidth(i));
        // Relative bucket resolution is 1/kSubBuckets.
        EXPECT_LE(LH::bucketWidth(i),
                  std::max<std::uint64_t>(1, v / LH::kSubBuckets + 1));
    }
    EXPECT_LT(LH::bucketIndex(~std::uint64_t{0}), LH::kNumBuckets);
}

TEST(LatencyHistogram, ExactForSmallValues)
{
    // 33 values 0..32: every value sits in its own unit-width bucket
    // (unit buckets run through the first octave), so at integral
    // ranks q*(n-1) the histogram must agree with the exact order
    // statistics. Non-integral ranks interpolate within one bucket and
    // legitimately differ from cross-value interpolation.
    LatencyHistogram h;
    PercentileSummary exact;
    for (std::uint64_t v = 0; v <= LatencyHistogram::kSubBuckets; ++v) {
        h.add(v);
        exact.add(static_cast<double>(v));
    }
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), LatencyHistogram::kSubBuckets);
    for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0})
        EXPECT_DOUBLE_EQ(h.percentile(q), exact.percentile(q)) << q;
}

TEST(LatencyHistogram, PercentilesTrackExactWithinBucketResolution)
{
    LatencyHistogram h;
    PercentileSummary exact;
    Rng rng(2026);
    for (int i = 0; i < 20000; ++i) {
        // Long-tailed sample spanning several octaves, like latency.
        const std::uint64_t v =
            100 + rng.nextBounded(1ULL << (6 + rng.nextBounded(14)));
        h.add(v);
        exact.add(static_cast<double>(v));
    }
    EXPECT_EQ(h.count(), 20000u);
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
        const double e = exact.percentile(q);
        // One sub-bucket of relative error (1/32), plus interpolation
        // slack within the covering bucket.
        EXPECT_NEAR(h.percentile(q), e, e * 2.0 / 32.0 + 1.0) << q;
    }
    EXPECT_DOUBLE_EQ(h.mean(), exact.mean());
    EXPECT_EQ(h.min(), static_cast<std::uint64_t>(exact.min()));
    EXPECT_EQ(h.max(), static_cast<std::uint64_t>(exact.max()));
}

TEST(LatencyHistogram, MergeMatchesCombinedStream)
{
    LatencyHistogram a;
    LatencyHistogram b;
    LatencyHistogram all;
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t v = rng.nextBounded(1 << 20);
        if (i % 2 == 0)
            a.add(v);
        else
            b.add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.sum(), all.sum());
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
    for (const double q : {0.1, 0.5, 0.99})
        EXPECT_DOUBLE_EQ(a.percentile(q), all.percentile(q));
    EXPECT_EQ(a.countAtOrAbove(1 << 10), all.countAtOrAbove(1 << 10));
}

TEST(LatencyHistogram, ViolationCounting)
{
    LatencyHistogram h;
    for (const std::uint64_t v : {1u, 5u, 10u, 20u})
        h.add(v);
    // Unit buckets below kSubBuckets make these exact.
    EXPECT_EQ(h.countAtOrAbove(0), 4u);
    EXPECT_EQ(h.countAtOrAbove(5), 3u);
    EXPECT_EQ(h.countAtOrAbove(6), 2u);
    EXPECT_EQ(h.countAtOrAbove(21), 0u);
    EXPECT_DOUBLE_EQ(h.violationFraction(10), 0.5);
    h.add(1ULL << 30);
    EXPECT_EQ(h.countAtOrAbove(1ULL << 40), 0u);
    EXPECT_EQ(h.countAtOrAbove(1ULL << 29), 1u);
}

TEST(TimeSeries, AppendAndQuery)
{
    TimeSeries ts;
    ts.add(0.0, 1.0);
    ts.add(1.0, 5.0);
    ts.add(2.0, 3.0);
    EXPECT_EQ(ts.size(), 3u);
    EXPECT_EQ(ts.last(), 3.0);
    EXPECT_EQ(ts.max(), 5.0);
}

TEST(TimeSeries, DownsampleKeepsEnds)
{
    TimeSeries ts;
    for (int i = 0; i < 100; ++i)
        ts.add(static_cast<double>(i), static_cast<double>(i));
    TimeSeries small = ts.downsampled(10);
    EXPECT_LE(small.size(), 12u);
    EXPECT_EQ(small.points().front().time, 0.0);
    EXPECT_EQ(small.points().back().time, 99.0);
}

TEST(TimeSeries, DownsampleNoopWhenSmall)
{
    TimeSeries ts;
    ts.add(0.0, 1.0);
    EXPECT_EQ(ts.downsampled(10).size(), 1u);
}

// ------------------------------------------------------------------ csv

TEST(Csv, HeaderAndRows)
{
    std::ostringstream out;
    CsvWriter csv(out);
    csv.header({"a", "b"});
    csv.cell(std::uint64_t{1}).cell(std::string("x")).endRow();
    csv.cell(2.5).cell(std::string("y")).endRow();
    EXPECT_EQ(out.str(), "a,b\n1,x\n2.5,y\n");
    EXPECT_EQ(csv.rows(), 2u);
}

TEST(Csv, EscapesSpecials)
{
    std::ostringstream out;
    CsvWriter csv(out);
    csv.cell(std::string("a,b")).cell(std::string("q\"q")).endRow();
    EXPECT_EQ(out.str(), "\"a,b\",\"q\"\"q\"\n");
}

TEST(Csv, IntegralDoubleFormatting)
{
    std::ostringstream out;
    CsvWriter csv(out);
    csv.cell(3.0).endRow();
    EXPECT_EQ(out.str(), "3\n");
}

// -------------------------------------------------------------- logging

TEST(Logging, Strprintf)
{
    EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strprintf("%.2f", 1.005), "1.00");
}

TEST(Logging, LevelRoundTrip)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setLogLevel(before);
}

// ------------------------------------------------------------------ env

constexpr const char *kTestVar = "MEMTIER_TEST_ENV_PARSE";

TEST(Env, FlagAcceptsOnOffSpellings)
{
    unsetenv(kTestVar);
    EXPECT_FALSE(envFlag(kTestVar));
    for (const char *off : {"", "0", "OFF", "off"}) {
        setenv(kTestVar, off, 1);
        EXPECT_FALSE(envFlag(kTestVar)) << "'" << off << "'";
    }
    for (const char *on : {"1", "ON", "on"}) {
        setenv(kTestVar, on, 1);
        EXPECT_TRUE(envFlag(kTestVar)) << "'" << on << "'";
    }
    unsetenv(kTestVar);
}

TEST(Env, FlagRejectsTypos)
{
    for (const char *typo : {"true", "yes", "On", "2", " on", "ON "}) {
        EXPECT_DEATH(
            {
                setenv(kTestVar, typo, 1);
                envFlag(kTestVar);
            },
            "MEMTIER_TEST_ENV_PARSE='.*' is not a switch")
            << "'" << typo << "'";
    }
}

TEST(Env, IntAcceptsUnsetEmptyAndInRange)
{
    unsetenv(kTestVar);
    EXPECT_EQ(envInt(kTestVar, 1, 64), std::nullopt);
    setenv(kTestVar, "", 1);
    EXPECT_EQ(envInt(kTestVar, 1, 64), std::nullopt);
    for (const long v : {1L, 7L, 64L}) {
        setenv(kTestVar, std::to_string(v).c_str(), 1);
        EXPECT_EQ(envInt(kTestVar, 1, 64), v);
    }
    unsetenv(kTestVar);
}

TEST(Env, IntRejectsMalformedAndOutOfRange)
{
    for (const char *bad : {"0", "65", "-3", "4x", "abc", " ", "1e3",
                            "99999999999999999999"}) {
        EXPECT_DEATH(
            {
                setenv(kTestVar, bad, 1);
                envInt(kTestVar, 1, 64);
            },
            "MEMTIER_TEST_ENV_PARSE='.*' is not an integer in 1..64")
            << "'" << bad << "'";
    }
}

}  // namespace
}  // namespace memtier
