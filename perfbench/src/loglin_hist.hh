/**
 * @file
 * Log-linear histogram for latency percentiles.
 *
 * Values are unsigned integers (simulated ticks). Each power-of-two
 * range [2^k, 2^(k+1)) is split into `subBuckets` equal-width
 * buckets, and values below `subBuckets` get one bucket each, so a
 * bucket's width is at most 1/subBuckets of its lower edge: with 64
 * sub-buckets every reported percentile is within 1.6% of the true
 * sample. A linear histogram cannot do this across the four decades
 * a record's latency spans between an idle ring and a lossy hotspot.
 *
 * Percentiles use the nearest-rank definition; within the bucket
 * holding that rank the samples are taken as evenly spread over its
 * width, and the result is clamped to the exact min/max seen.
 * `supportedPercentile` answers which percentile a sample set can
 * carry: the highest one with at least `minBeyond` samples above it.
 */

#ifndef PERFBENCH_LOGLIN_HIST_HH
#define PERFBENCH_LOGLIN_HIST_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench
{

class LogLinHist
{
  public:
    static constexpr unsigned subBits = 6;
    static constexpr std::uint64_t subBuckets = std::uint64_t(1) << subBits;

    void
    record(std::uint64_t v)
    {
        const std::size_t b = bucketOf(v);
        if (b >= counts_.size())
            counts_.resize(b + 1, 0);
        ++counts_[b];
        ++count_;
        sum_ += v;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    void
    merge(const LogLinHist &o)
    {
        if (o.counts_.size() > counts_.size())
            counts_.resize(o.counts_.size(), 0);
        for (std::size_t i = 0; i < o.counts_.size(); ++i)
            counts_[i] += o.counts_[i];
        count_ += o.count_;
        sum_ += o.sum_;
        min_ = std::min(min_, o.min_);
        max_ = std::max(max_, o.max_);
    }

    std::uint64_t count() const { return count_; }
    /** Exact sum of the recorded values (no bucketing error). */
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }

    double
    mean() const
    {
        return count_ ? double(sum_) / double(count_) : 0.0;
    }

    /**
     * Nearest-rank percentile @p pct in [0, 100]: the value below
     * which ceil(pct/100 * count) samples fall. 0 when empty.
     */
    double
    percentile(double pct) const
    {
        if (count_ == 0)
            return 0.0;
        pct = std::clamp(pct, 0.0, 100.0);
        auto rank = std::uint64_t(std::ceil(pct / 100.0 * double(count_)));
        rank = std::clamp<std::uint64_t>(rank, 1, count_);
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < counts_.size(); ++b) {
            if (seen + counts_[b] >= rank) {
                // Spread the bucket's samples evenly over its width.
                const double k = double(rank - seen) - 0.5;
                const double width = double(upperEdge(b) - lowerEdge(b));
                const double v = double(lowerEdge(b))
                                 + width * k / double(counts_[b]);
                return std::clamp(v, double(min_), double(max_));
            }
            seen += counts_[b];
        }
        return double(max_);
    }

    /**
     * The highest percentile, capped at @p wanted, that leaves at
     * least @p min_beyond samples above its rank: 100*(1 -
     * min_beyond/count). 0 when there are too few samples for any.
     */
    double
    supportedPercentile(double wanted, std::uint64_t min_beyond = 10) const
    {
        if (count_ <= min_beyond)
            return 0.0;
        const double cap =
            100.0 * (1.0 - double(min_beyond) / double(count_));
        return std::min(wanted, cap);
    }

    /** Bucket index of @p v (exposed for tests). */
    static std::size_t
    bucketOf(std::uint64_t v)
    {
        if (v < subBuckets)
            return std::size_t(v);
        const unsigned k = unsigned(std::bit_width(v)) - 1; // 2^k <= v
        const unsigned shift = k - subBits;
        const std::uint64_t sub = (v >> shift) - subBuckets;
        return std::size_t(subBuckets + std::uint64_t(k - subBits) * subBuckets
                           + sub);
    }

    /** Smallest value that lands in bucket @p b. */
    static std::uint64_t
    lowerEdge(std::size_t b)
    {
        if (b < subBuckets)
            return b;
        const std::uint64_t octave = (b - subBuckets) / subBuckets;
        const std::uint64_t sub = (b - subBuckets) % subBuckets;
        return (subBuckets + sub) << octave;
    }

    /** Largest value that lands in bucket @p b. */
    static std::uint64_t
    upperEdge(std::size_t b)
    {
        if (b < subBuckets)
            return b;
        const std::uint64_t octave = (b - subBuckets) / subBuckets;
        return lowerEdge(b) + ((std::uint64_t(1) << octave) - 1);
    }

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LOGLIN_HIST_HH
