/**
 * @file
 * Small statistics helpers: per-bucket vectors, linear-bucket
 * distributions, and the JSON string/number formatting the dumps and
 * benches share.  Component telemetry (counters, time integrals,
 * latency histograms) lives in metrics/metrics.hh.
 */

#ifndef TCPNI_COMMON_STATS_HH
#define TCPNI_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace tcpni
{
namespace stats
{

/** A named vector of counters indexed by a small integer. */
class Vector
{
  public:
    explicit Vector(size_t size = 0) : values_(size, 0) {}

    /** Grow (never shrink) to at least @p size buckets. */
    void resize(size_t size);

    int64_t &operator[](size_t i);
    int64_t at(size_t i) const;
    size_t size() const { return values_.size(); }
    int64_t total() const;
    void reset();

  private:
    std::vector<int64_t> values_;
};

/** A sampled distribution with mean/min/max/stddev and linear buckets. */
class Distribution
{
  public:
    /** Bucket samples into @p nbuckets buckets spanning [lo, hi). */
    Distribution(double lo = 0, double hi = 100, size_t nbuckets = 10);

    void sample(double v, int64_t count = 1);

    int64_t count() const { return count_; }
    double mean() const;
    double stddev() const;
    double min() const { return min_; }
    double max() const { return max_; }
    const std::vector<int64_t> &buckets() const { return buckets_; }
    int64_t underflow() const { return underflow_; }
    int64_t overflow() const { return overflow_; }
    void reset();

  private:
    double lo_, hi_, bucketSize_;
    std::vector<int64_t> buckets_;
    int64_t underflow_ = 0, overflow_ = 0;
    int64_t count_ = 0;
    double sum_ = 0, squares_ = 0;
    double min_ = 0, max_ = 0;
};

/** Escape a string for inclusion in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** Format a double as a JSON number ("%.10g"; non-finite values,
 *  which JSON cannot represent, collapse to "0"). */
std::string jsonNum(double v);

} // namespace stats
} // namespace tcpni

#endif // TCPNI_COMMON_STATS_HH
