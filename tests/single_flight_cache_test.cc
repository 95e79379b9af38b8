// SingleFlightCache mechanics, run over both serving-tier instantiations
// (DocumentResultCache and QueryKbCache): single-flight deduplication, a
// throwing compute under single-flight, byte-budget LRU eviction, Clear, and
// per-epoch EvictAll. Labeled tsan and asan.
#include "store/single_flight_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "service/document_result_cache.h"
#include "store/query_cache.h"

namespace qkbfly {
namespace {

/// Per-tier fixtures: how a test key and value are made for each cache.
template <typename Cache>
struct Tier;

template <>
struct Tier<DocumentResultCache> {
  using Value = DocumentResult;
  using Traits = DocumentResultCacheTraits;
  static std::string Key(const std::string& tag) {
    return DocumentCacheKey(tag, "fp");
  }
  static Value Make(const std::string& tag) {
    DocumentResult r;
    r.annotated.id = tag;
    r.annotated.title = "title of " + tag;
    return r;
  }
  static std::string Tag(const Value& v) { return v.annotated.id; }
};

template <>
struct Tier<QueryKbCache> {
  using Value = CachedAnswer;
  using Traits = QueryKbCacheTraits;
  static std::string Key(const std::string& tag) {
    return QueryCacheKey(tag, 1, "fp");
  }
  static Value Make(const std::string& tag) {
    CachedAnswer a;
    a.kb_bytes = "qkbfly-kb\t1\n";
    a.answers = {tag};
    a.documents = 1;
    return a;
  }
  static std::string Tag(const Value& v) { return v.answers.front(); }
};

/// Holds a compute's in-flight window open until `joiners` other callers
/// have joined it. The deadline makes a broken single-flight fail the
/// assertions that follow instead of hanging the test.
template <typename Cache>
void AwaitJoiners(const Cache& cache, uint64_t joiners) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cache.stats().hits < joiners &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

template <typename Cache>
class SingleFlightCacheTest : public ::testing::Test {};

using CacheTypes = ::testing::Types<DocumentResultCache, QueryKbCache>;
TYPED_TEST_SUITE(SingleFlightCacheTest, CacheTypes);

TYPED_TEST(SingleFlightCacheTest, SingleFlightComputesOnce) {
  using T = Tier<TypeParam>;
  TypeParam cache;
  constexpr int kThreads = 8;
  std::atomic<int> computations{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      auto value = cache.FetchOrCompute(T::Key("k"), [&] {
        ++computations;
        AwaitJoiners(cache, kThreads - 1);
        return T::Make("k");
      });
      EXPECT_EQ(T::Tag(*value), "k");
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(computations.load(), 1);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
}

TYPED_TEST(SingleFlightCacheTest, ThrowingComputeReachesEveryWaiter) {
  using T = Tier<TypeParam>;
  TypeParam cache;
  CacheInstruments instruments = T::Traits::Instruments();
  int64_t bytes_before = instruments.resident_bytes->Value();
  int64_t entries_before = instruments.resident_entries->Value();

  constexpr int kThreads = 8;
  std::atomic<int> computations{0};
  std::atomic<int> rethrown{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      try {
        (void)cache.FetchOrCompute(T::Key("k"), [&]() -> typename T::Value {
          ++computations;
          // Throw only once every other caller is waiting on this entry.
          AwaitJoiners(cache, kThreads - 1);
          throw std::runtime_error("compute failed");
        });
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()) == "compute failed") ++rethrown;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(computations.load(), 1);
  EXPECT_EQ(rethrown.load(), kThreads);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.ApproxBytesUsed(), 0u);
  EXPECT_EQ(instruments.resident_bytes->Value(), bytes_before);
  EXPECT_EQ(instruments.resident_entries->Value(), entries_before);

  // The failed entry is gone: the next call computes again and caches.
  bool hit = true;
  auto value =
      cache.FetchOrCompute(T::Key("k"), [] { return T::Make("k"); }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(T::Tag(*value), "k");
  EXPECT_EQ(cache.entry_count(), 1u);
  (void)cache.FetchOrCompute(T::Key("k"), [] { return T::Make("k"); }, &hit);
  EXPECT_TRUE(hit);
}

TYPED_TEST(SingleFlightCacheTest, EvictsLruUnderByteBudget) {
  using T = Tier<TypeParam>;
  // One shard so LRU order is global; a budget of ~3 fake entries.
  typename TypeParam::Options options;
  options.num_shards = 1;
  size_t entry_bytes = 0;
  {
    TypeParam probe(options);
    (void)probe.FetchOrCompute(T::Key("probe"),
                               [] { return T::Make("probe"); });
    entry_bytes = probe.ApproxBytesUsed();
    ASSERT_GT(entry_bytes, 0u);
  }
  options.byte_budget = 3 * entry_bytes + entry_bytes / 2;
  TypeParam cache(options);
  for (int i = 0; i < 10; ++i) {
    std::string id = "doc" + std::to_string(i);
    (void)cache.FetchOrCompute(T::Key(id), [&] { return T::Make(id); });
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.ApproxBytesUsed(), cache.byte_budget());
  EXPECT_LT(cache.entry_count(), 10u);

  // The most recent key survived; the oldest was evicted and recomputes.
  bool hit = false;
  (void)cache.FetchOrCompute(T::Key("doc9"), [] { return T::Make("doc9"); },
                             &hit);
  EXPECT_TRUE(hit);
  (void)cache.FetchOrCompute(T::Key("doc0"), [] { return T::Make("doc0"); },
                             &hit);
  EXPECT_FALSE(hit);
}

TYPED_TEST(SingleFlightCacheTest, ClearDropsResidentEntries) {
  using T = Tier<TypeParam>;
  TypeParam cache;
  (void)cache.FetchOrCompute(T::Key("k"), [] { return T::Make("k"); });
  ASSERT_EQ(cache.entry_count(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.ApproxBytesUsed(), 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);  // Clear is not an eviction
  bool hit = true;
  (void)cache.FetchOrCompute(T::Key("k"), [] { return T::Make("k"); }, &hit);
  EXPECT_FALSE(hit);
}

TYPED_TEST(SingleFlightCacheTest, EvictAllIsIdempotentPerEpoch) {
  using T = Tier<TypeParam>;
  TypeParam cache;
  (void)cache.FetchOrCompute(T::Key("a"), [] { return T::Make("a"); });
  (void)cache.FetchOrCompute(T::Key("b"), [] { return T::Make("b"); });
  ASSERT_EQ(cache.entry_count(), 2u);
  cache.EvictAll(1);  // construction epoch is 0, so 1 advances and clears
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.ApproxBytesUsed(), 0u);
  EXPECT_EQ(cache.stats().evictions, 2u);  // dropped entries are evictions
  (void)cache.FetchOrCompute(T::Key("a"), [] { return T::Make("a"); });
  cache.EvictAll(1);  // no-op: already at epoch 1
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

}  // namespace
}  // namespace qkbfly
