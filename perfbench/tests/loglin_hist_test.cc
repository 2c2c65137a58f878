#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "loglin_hist.hh"

using perfbench::LogLinHist;

namespace
{

/** Nearest-rank percentile of raw samples: the reference. */
std::uint64_t
exactPercentile(std::vector<std::uint64_t> v, double pct)
{
    std::sort(v.begin(), v.end());
    auto rank = std::uint64_t(std::ceil(pct / 100.0 * double(v.size())));
    rank = std::clamp<std::uint64_t>(rank, 1, v.size());
    return v[rank - 1];
}

} // namespace

TEST(LogLinHist, BucketEdgesTileTheValueRange)
{
    // Every value lands in the bucket whose edges contain it, and
    // consecutive buckets are adjacent.
    for (std::size_t b = 0; b + 1 < 64 * 40; ++b) {
        EXPECT_EQ(LogLinHist::upperEdge(b) + 1, LogLinHist::lowerEdge(b + 1))
            << "bucket " << b;
        EXPECT_EQ(LogLinHist::bucketOf(LogLinHist::lowerEdge(b)), b);
        EXPECT_EQ(LogLinHist::bucketOf(LogLinHist::upperEdge(b)), b);
    }
    EXPECT_EQ(LogLinHist::bucketOf(~std::uint64_t(0)),
              LogLinHist::bucketOf(std::uint64_t(1) << 63) + 63);
}

TEST(LogLinHist, BucketWidthIsBoundedRelativeToValue)
{
    for (std::size_t b = LogLinHist::subBuckets; b < 64 * 50; ++b) {
        const double width = double(LogLinHist::upperEdge(b)
                                    - LogLinHist::lowerEdge(b) + 1);
        EXPECT_LE(width / double(LogLinHist::lowerEdge(b)),
                  1.0 / double(LogLinHist::subBuckets));
    }
}

TEST(LogLinHist, SmallValuesAreExact)
{
    LogLinHist h;
    for (std::uint64_t v = 1; v <= 50; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 50u);
    EXPECT_EQ(h.sum(), 50u * 51u / 2u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 25.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(h.mean(), 25.5);
}

TEST(LogLinHist, PercentilesTrackRawSamplesAcrossDecades)
{
    // Latencies spread over four decades, as between an idle ring
    // and a lossy hotspot: every percentile within one bucket width.
    std::mt19937_64 rng(42);
    std::lognormal_distribution<double> dist(std::log(2e7), 1.5);
    std::vector<std::uint64_t> raw;
    LogLinHist h;
    for (int i = 0; i < 20000; ++i) {
        const auto v = std::uint64_t(dist(rng)) + 1;
        raw.push_back(v);
        h.record(v);
    }
    for (double pct : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9}) {
        const double exact = double(exactPercentile(raw, pct));
        EXPECT_NEAR(h.percentile(pct), exact, exact / 64.0) << "p" << pct;
    }
    EXPECT_EQ(h.min(), *std::min_element(raw.begin(), raw.end()));
    EXPECT_EQ(h.max(), *std::max_element(raw.begin(), raw.end()));
}

TEST(LogLinHist, RanksInsideOneBucketInterpolate)
{
    // 64 samples in the bucket [2^20, 2^20 + 2^14): successive ranks
    // read distinct, rising values inside the bucket's edges.
    LogLinHist h;
    const std::uint64_t lo = std::uint64_t(1) << 20;
    for (std::uint64_t i = 0; i < 64; ++i)
        h.record(lo + i * 256);
    const std::size_t b = LogLinHist::bucketOf(lo);
    ASSERT_EQ(LogLinHist::bucketOf(lo + 63 * 256), b);
    double prev = 0;
    for (int pct = 5; pct <= 95; pct += 5) {
        const double v = h.percentile(pct);
        EXPECT_GT(v, prev);
        EXPECT_GE(v, double(LogLinHist::lowerEdge(b)));
        EXPECT_LE(v, double(LogLinHist::upperEdge(b)));
        prev = v;
    }
}

TEST(LogLinHist, PercentileIsClampedToObservedExtremes)
{
    LogLinHist h;
    h.record(1000003);
    EXPECT_DOUBLE_EQ(h.percentile(0), 1000003.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 1000003.0);
}

TEST(LogLinHist, EmptyHistogramReportsZero)
{
    LogLinHist h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.supportedPercentile(99), 0.0);
}

TEST(LogLinHist, MergeEqualsRecordingEverythingInOne)
{
    LogLinHist a;
    LogLinHist b;
    LogLinHist all;
    for (std::uint64_t v = 1; v < 5000; v += 7) {
        (v % 3 ? a : b).record(v * 1013);
        all.record(v * 1013);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.sum(), all.sum());
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
    for (double pct : {5.0, 50.0, 95.0, 99.0})
        EXPECT_DOUBLE_EQ(a.percentile(pct), all.percentile(pct));
}

TEST(LogLinHist, SupportedPercentileLeavesTenSamplesBeyond)
{
    LogLinHist h;
    for (int i = 0; i < 84; ++i)
        h.record(100 + i);
    // 84 samples: p99 would leave under one sample beyond it.
    const double p = h.supportedPercentile(99);
    EXPECT_NEAR(p, 100.0 * (1.0 - 10.0 / 84.0), 1e-12);
    const auto rank = std::uint64_t(std::ceil(p / 100.0 * 84.0));
    EXPECT_GE(84u - rank, 10u);

    LogLinHist big;
    for (int i = 0; i < 5000; ++i)
        big.record(i + 1);
    EXPECT_DOUBLE_EQ(big.supportedPercentile(99), 99.0);

    LogLinHist tiny;
    for (int i = 0; i < 10; ++i)
        tiny.record(i + 1);
    EXPECT_DOUBLE_EQ(tiny.supportedPercentile(99), 0.0);
}
