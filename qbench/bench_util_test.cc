#include "bench_util.h"

#include <gtest/gtest.h>

namespace qbench {
namespace {

TEST(TailRuleTest, PicksHighestPercentileWithTenBeyond) {
  EXPECT_EQ(TailPercentFor(99), 0);
  EXPECT_EQ(TailPercentFor(100), 90);  // 100 - 90 = 10 beyond p90
  EXPECT_EQ(TailPercentFor(199), 90);  // 199 - 190 = 9 beyond p95
  EXPECT_EQ(TailPercentFor(200), 95);
  EXPECT_EQ(TailPercentFor(999), 95);  // 999 - 990 = 9 beyond p99
  EXPECT_EQ(TailPercentFor(1000), 99);
  EXPECT_EQ(TailPercentFor(100000), 99);
}

TEST(TailRuleTest, MinSamplesMatchesRule) {
  EXPECT_EQ(MinSamplesForTail(90), 100);
  EXPECT_EQ(MinSamplesForTail(95), 200);
  EXPECT_EQ(MinSamplesForTail(99), 1000);
  for (int percent : {90, 95, 99}) {
    int64_t n = MinSamplesForTail(percent);
    EXPECT_GE(SamplesBeyond(n, percent), 10);
    EXPECT_LT(SamplesBeyond(n - 1, percent), 10);
  }
}

TEST(QuantileTest, MedianAndNearestRank) {
  EXPECT_DOUBLE_EQ(Quantile({3, 1, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 2, 3}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  EXPECT_DOUBLE_EQ(NearestRank(samples, 90), 90.0);
  EXPECT_DOUBLE_EQ(NearestRank(samples, 99), 99.0);
}

TEST(ZipfSamplerTest, SameSeedSameSequence) {
  ZipfSampler a(500, 1.0, 42);
  ZipfSampler b(500, 1.0, 42);
  ZipfSampler c(500, 1.0, 43);
  bool differs = false;
  for (int i = 0; i < 2000; ++i) {
    size_t x = a.Next();
    EXPECT_EQ(x, b.Next());
    EXPECT_LT(x, 500u);
    differs = differs || x != c.Next();
  }
  EXPECT_TRUE(differs);
}

TEST(ZipfSamplerTest, LowRanksDominate) {
  ZipfSampler sampler(100, 1.0, 7);
  int top = 0;
  int bottom = 0;
  for (int i = 0; i < 20000; ++i) {
    size_t k = sampler.Next();
    top += k == 0;
    bottom += k == 99;
  }
  // P(0) / P(99) = 100 under s = 1.
  EXPECT_GT(top, 20 * bottom);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  SpanLog log;
  SpanRecord root{"request", 0, 100, -1, 0, {}};
  int r = log.Add(root);
  // Two workers: [10, 60) and [30, 80) overlap on [30, 60); plus [90, 95).
  log.Add({"a", 10, 60, r, 0, {}});
  log.Add({"b", 30, 80, r, 0, {}});
  int c = log.Add({"c", 90, 95, r, 0, {}});
  log.Add({"d", 91, 94, c, 0, {}});
  std::vector<int64_t> self = log.SelfTimes();
  EXPECT_EQ(self[0], 100 - 70 - 5);
  EXPECT_EQ(self[1], 50);
  EXPECT_EQ(self[3], 5 - 3);
  EXPECT_EQ(self[4], 3);
}

TEST(SelfTimeTest, CoveredLengthClipsToParent) {
  EXPECT_EQ(CoveredLength({{-5, 5}, {8, 20}}, 0, 10), 5 + 2);
  EXPECT_EQ(CoveredLength({{0, 10}, {2, 3}, {9, 12}}, 0, 12), 12);
  EXPECT_EQ(CoveredLength({}, 0, 10), 0);
}

TEST(DigestTest, StableKnownValues) {
  // FNV-1a 64 reference values.
  EXPECT_EQ(Digest::Of(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Digest::Of("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Digest::Of("foobar"), 0x85944171f73967e8ULL);
  Digest split;
  split.Add("foo");
  split.Add("bar");
  EXPECT_EQ(split.value(), Digest::Of("foobar"));
  EXPECT_EQ(split.Hex(), "85944171f73967e8");
}

}  // namespace
}  // namespace qbench
