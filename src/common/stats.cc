#include "common/stats.hh"

#include <cmath>
#include <cstdio>

#include "common/logging.hh"

namespace tcpni
{
namespace stats
{

void
Vector::resize(size_t size)
{
    if (size > values_.size())
        values_.resize(size, 0);
}

int64_t &
Vector::operator[](size_t i)
{
    if (i >= values_.size())
        values_.resize(i + 1, 0);
    return values_[i];
}

int64_t
Vector::at(size_t i) const
{
    return i < values_.size() ? values_[i] : 0;
}

int64_t
Vector::total() const
{
    int64_t sum = 0;
    for (int64_t v : values_)
        sum += v;
    return sum;
}

void
Vector::reset()
{
    for (int64_t &v : values_)
        v = 0;
}

Distribution::Distribution(double lo, double hi, size_t nbuckets)
    : lo_(lo), hi_(hi), buckets_(nbuckets, 0)
{
    tcpni_assert(hi > lo && nbuckets > 0);
    bucketSize_ = (hi - lo) / static_cast<double>(nbuckets);
}

void
Distribution::sample(double v, int64_t count)
{
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        if (v < min_) min_ = v;
        if (v > max_) max_ = v;
    }
    count_ += count;
    sum_ += v * count;
    squares_ += v * v * count;

    if (v < lo_) {
        underflow_ += count;
    } else if (v >= hi_) {
        overflow_ += count;
    } else {
        size_t idx = static_cast<size_t>((v - lo_) / bucketSize_);
        if (idx >= buckets_.size())
            idx = buckets_.size() - 1;
        buckets_[idx] += count;
    }
}

double
Distribution::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Distribution::stddev() const
{
    if (count_ < 2)
        return 0.0;
    double n = static_cast<double>(count_);
    double var = (squares_ - sum_ * sum_ / n) / (n - 1);
    return var > 0 ? std::sqrt(var) : 0.0;
}

void
Distribution::reset()
{
    for (int64_t &b : buckets_)
        b = 0;
    underflow_ = overflow_ = count_ = 0;
    sum_ = squares_ = min_ = max_ = 0;
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace stats
} // namespace tcpni
