/**
 * @file
 * Lightweight statistics containers shared by the profiler and the
 * experiment harness: running moments, percentile summaries, histograms
 * and sampled time series.
 */

#ifndef MEMTIER_BASE_STATS_H_
#define MEMTIER_BASE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace memtier {

/** Incremental mean/variance/min/max (Welford's algorithm). */
class RunningStat
{
  public:
    /** Fold one observation into the statistic. */
    void add(double x);

    /** Number of observations. */
    std::uint64_t count() const { return n; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return n ? mu : 0.0; }

    /** Unbiased sample variance (0 when n < 2). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Minimum observation (0 when empty). */
    double min() const { return n ? lo : 0.0; }

    /** Maximum observation (0 when empty). */
    double max() const { return n ? hi : 0.0; }

    /** Sum of all observations. */
    double sum() const { return total; }

  private:
    std::uint64_t n = 0;
    double mu = 0.0;
    double m2 = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    double total = 0.0;
};

/**
 * Exact percentile summary over a retained set of observations.
 *
 * Figure 5 of the paper reports min/25th/50th/75th/avg/max of page reuse
 * intervals; this type computes exactly that summary.
 */
class PercentileSummary
{
  public:
    /** Record one observation. */
    void add(double x) { values.push_back(x); }

    /** Number of observations. */
    std::size_t count() const { return values.size(); }

    /**
     * Value at quantile @p q in [0, 1], by linear interpolation between
     * order statistics. Returns 0 when empty.
     */
    double percentile(double q) const;

    /** Arithmetic mean (0 when empty). */
    double mean() const;

    /** Sample standard deviation (0 when n < 2). */
    double stddev() const;

    /** Smallest observation. */
    double min() const { return percentile(0.0); }

    /** Largest observation. */
    double max() const { return percentile(1.0); }

  private:
    mutable std::vector<double> values;
    mutable bool sorted = false;

    void ensureSorted() const;
};

/** Fixed-bucket histogram over [lo, hi) with overflow/underflow buckets. */
class Histogram
{
  public:
    /**
     * @param lo lower bound of the first regular bucket.
     * @param hi upper bound of the last regular bucket.
     * @param buckets number of regular buckets (> 0).
     */
    Histogram(double lo, double hi, std::size_t buckets);

    /** Record one observation. */
    void add(double x);

    /** Count in regular bucket @p i. */
    std::uint64_t bucketCount(std::size_t i) const { return counts.at(i); }

    /** Inclusive lower edge of regular bucket @p i. */
    double bucketLow(std::size_t i) const;

    /** Observations below the histogram range. */
    std::uint64_t underflow() const { return under; }

    /** Observations at or above the histogram range. */
    std::uint64_t overflow() const { return over; }

    /** Total observations including under/overflow. */
    std::uint64_t total() const { return n; }

  private:
    double lo;
    double hi;
    std::vector<std::uint64_t> counts;
    std::uint64_t under = 0;
    std::uint64_t over = 0;
    std::uint64_t n = 0;
};

/**
 * Log-bucketed latency histogram: geometric octaves subdivided into
 * 2^kSubBucketShift linear sub-buckets (HdrHistogram-style), so the
 * relative quantization error is bounded by 2^-kSubBucketShift (~3%)
 * at every magnitude while the footprint stays a fixed ~15 KiB.
 *
 * Designed for the serving tier's tail-latency reporting: recording is
 * O(1) with no allocation, histograms from different phases or threads
 * merge exactly (bucket layouts are identical by construction), and
 * every query is a pure function of the recorded multiset -- the same
 * request stream always yields bit-identical percentiles.
 */
class LatencyHistogram
{
  public:
    /** log2 of the linear sub-buckets per octave. */
    static constexpr unsigned kSubBucketShift = 5;

    /** Sub-buckets per octave (also the count of exact unit buckets). */
    static constexpr std::uint64_t kSubBuckets = 1ULL << kSubBucketShift;

    /** Total bucket count covering the full uint64 range. */
    static constexpr std::size_t kNumBuckets =
        static_cast<std::size_t>((64 - kSubBucketShift + 1) *
                                 kSubBuckets);

    LatencyHistogram();

    /** Record one latency observation (any unit; cycles by convention). */
    void add(std::uint64_t value);

    /** Fold @p other into this histogram (exact: same bucket layout). */
    void merge(const LatencyHistogram &other);

    /** Number of observations. */
    std::uint64_t count() const { return n; }

    /** Exact sum of all observations. */
    std::uint64_t sum() const { return total; }

    /** Exact mean (0 when empty). */
    double mean() const;

    /** Exact minimum observation (0 when empty). */
    std::uint64_t min() const { return n ? lo : 0; }

    /** Exact maximum observation (0 when empty). */
    std::uint64_t max() const { return n ? hi : 0; }

    /**
     * Value at quantile @p q in [0, 1]: linear interpolation inside the
     * covering bucket, clamped to the exact observed [min, max]. The
     * result is within one bucket width (<= ~3% relative) of the exact
     * order statistic; values below kSubBuckets are exact.
     */
    double percentile(double q) const;

    /**
     * Observations in buckets at or above the bucket containing
     * @p threshold -- the SLO-violation counter. Resolution is one
     * bucket (~3%): observations quantized into the threshold's bucket
     * count as violations.
     */
    std::uint64_t countAtOrAbove(std::uint64_t threshold) const;

    /** countAtOrAbove as a fraction of count (0 when empty). */
    double violationFraction(std::uint64_t threshold) const;

    /** Bucket index recording @p value (exposed for tests). */
    static std::size_t bucketIndex(std::uint64_t value);

    /** Inclusive lower bound of bucket @p i (exposed for tests). */
    static std::uint64_t bucketLow(std::size_t i);

    /** Width of bucket @p i in value units (exposed for tests). */
    static std::uint64_t bucketWidth(std::size_t i);

  private:
    std::vector<std::uint64_t> counts;
    std::uint64_t n = 0;
    std::uint64_t total = 0;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
};

/**
 * A (time, value) series sampled at irregular instants, used for the
 * Figure 9/10 style timelines (memory usage, counters, CPU utilization).
 */
class TimeSeries
{
  public:
    struct Point
    {
        double time;   ///< Simulated seconds.
        double value;  ///< Sampled value.
    };

    /** Append a sample; times must be non-decreasing. */
    void add(double time, double value);

    /** All points in time order. */
    const std::vector<Point> &points() const { return data; }

    /** Number of samples. */
    std::size_t size() const { return data.size(); }

    /** Last sampled value (0 when empty). */
    double last() const { return data.empty() ? 0.0 : data.back().value; }

    /** Largest sampled value (0 when empty). */
    double max() const;

    /**
     * Downsample to at most @p max_points by keeping every k-th point
     * (always keeping the final point), for compact report output.
     */
    TimeSeries downsampled(std::size_t max_points) const;

  private:
    std::vector<Point> data;
};

}  // namespace memtier

#endif  // MEMTIER_BASE_STATS_H_
