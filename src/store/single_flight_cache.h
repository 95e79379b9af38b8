// The cache machinery shared by both serving tiers: a sharded, thread-safe,
// byte-budgeted LRU with single-flight computation. The doc tier
// (DocumentResultCache, service/document_result_cache.h) caches per-document
// extraction results; the query tier (QueryKbCache, store/query_cache.h)
// caches whole answered queries. A tier supplies only its value type (which
// must provide `size_t ApproxBytes() const`), how its keys are built, and a
// Traits type with its default byte budget and its registry instruments.
//
// Lock order (qkbfly-lint C2): shard mutexes rank below the thread pool and
// above the fact store. The compute function always runs with no shard mutex
// held, so a query-tier compute that reaches the doc tier never nests one
// tier's shard mutex inside the other's.
#ifndef QKBFLY_STORE_SINGLE_FLIGHT_CACHE_H_
#define QKBFLY_STORE_SINGLE_FLIGHT_CACHE_H_

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "corpus/document.h"
#include "obs/metrics.h"
#include "util/cache_stats.h"
#include "util/invariants.h"
#include "util/logging.h"

namespace qkbfly {

/// One tier's registry instruments (process-wide, shared by every instance
/// of the tier). Each tier registers its own literal names.
struct CacheInstruments {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Gauge* resident_bytes;
  obs::Gauge* resident_entries;
};

/// Sharded LRU of immutable `Value`s (shared_ptr<const>, so readers never
/// copy). When N threads ask for the same missing key concurrently, exactly
/// one runs the compute function and the others block on its result.
///
/// `Traits` provides `static constexpr size_t kDefaultByteBudget` and
/// `static CacheInstruments Instruments()`.
///
/// Eviction is LRU per shard under `byte_budget / num_shards`; an entry
/// costs `key.size() + sizeof(Entry) + value.ApproxBytes()`. In-flight
/// entries are never evicted.
template <typename Value, typename Traits>
class SingleFlightCache {
 public:
  struct Options {
    size_t byte_budget = Traits::kDefaultByteBudget;  ///< Across all shards.
    int num_shards = 8;
  };

  explicit SingleFlightCache(Options options)
      : options_(options), metrics_(Traits::Instruments()) {
    options_.num_shards = std::max(1, options_.num_shards);
    size_t shards = static_cast<size_t>(options_.num_shards);
    budget_per_shard_ = options_.byte_budget / shards;
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
    baseline_ = TotalsNow();
  }
  SingleFlightCache() : SingleFlightCache(Options()) {}

  /// Clears on destruction so the resident gauges drop this instance's
  /// contribution.
  ~SingleFlightCache() { Clear(); }

  SingleFlightCache(const SingleFlightCache&) = delete;
  SingleFlightCache& operator=(const SingleFlightCache&) = delete;

  using ComputeFn = std::function<Value()>;

  /// Returns the cached value for `key`, computing and inserting it on miss.
  /// `was_hit` (optional) reports whether this call avoided running
  /// `compute` — true both for ready entries and for joining another
  /// thread's in-flight computation. If `compute` throws, the entry is
  /// erased and every waiter rethrows the same exception.
  std::shared_ptr<const Value> FetchOrCompute(const std::string& key,
                                              const ComputeFn& compute,
                                              bool* was_hit = nullptr) {
    Shard& shard = *shards_[std::hash<std::string>{}(key) % shards_.size()];
    std::promise<std::shared_ptr<const Value>> promise;
#if defined(QKBFLY_CHECK_INVARIANTS)
    CacheStats stats_before;
#endif
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
#if defined(QKBFLY_CHECK_INVARIANTS)
      stats_before = TotalsNow();
#endif
      auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        // Ready entry or another thread's in-flight computation: either way
        // no work runs on this thread, so it counts as a hit.
        metrics_.hits->Increment();
        if (it->second.ready) {
          shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru);
        }
        auto future = it->second.future;
        lock.unlock();
        if (was_hit != nullptr) *was_hit = true;
        return future.get();  // blocks only while in-flight; rethrows
      }
      metrics_.misses->Increment();
      Entry entry;
      entry.future = promise.get_future().share();
      shard.map.emplace(key, std::move(entry));  // in-flight marker
    }
    if (was_hit != nullptr) *was_hit = false;

    // Compute outside the lock; single-flight guarantees this thread is the
    // only one running `compute` for this key.
    std::shared_ptr<const Value> value;
    try {
      value = std::make_shared<const Value>(compute());
    } catch (...) {
      std::exception_ptr error = std::current_exception();
      {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.map.erase(key);  // never made it into the LRU
      }
      promise.set_exception(error);  // waiters rethrow from future.get()
      std::rethrow_exception(error);
    }
    promise.set_value(value);

    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.map.find(key);
      // Only the computing thread transitions or erases an in-flight entry,
      // so it is still present and not yet ready.
      QKB_CHECK(it != shard.map.end() && !it->second.ready);
      it->second.ready = true;
      it->second.bytes =
          it->first.size() + sizeof(Entry) + value->ApproxBytes();
      shard.lru.push_front(it->first);
      it->second.lru = shard.lru.begin();
      shard.bytes += it->second.bytes;
      metrics_.resident_bytes->Add(static_cast<int64_t>(it->second.bytes));
      metrics_.resident_entries->Add(1);
      EvictOverBudgetLocked(shard);
      QKBFLY_INVARIANT(CheckShardAccountingLocked(shard),
                       "SingleFlightCache::FetchOrCompute");
      // Counters are lock-free atomics, so reading the registry totals while
      // holding the shard mutex cannot deadlock.
      QKBFLY_INVARIANT(CheckCacheStatsMonotonic(stats_before, TotalsNow()),
                       "SingleFlightCache::FetchOrCompute");
    }
    return value;
  }

  /// Hit/miss/eviction counters. The live counters are the tier's registry
  /// counters; this view subtracts the construction-time baseline so each
  /// instance reports only its own traffic.
  CacheStats stats() const { return TotalsNow() - baseline_; }

  /// Total accounted bytes of ready entries.
  size_t ApproxBytesUsed() const {
    size_t bytes = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      bytes += shard->bytes;
    }
    return bytes;
  }

  /// Ready entries currently resident.
  size_t entry_count() const {
    size_t count = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      count += shard->lru.size();
    }
    return count;
  }

  size_t byte_budget() const { return options_.byte_budget; }

  /// Drops all ready entries without counting them as evictions. In-flight
  /// computations are untouched: they complete, fulfil their waiters and
  /// insert as usual.
  void Clear() { DropReadyEntries(); }

  /// Epoch-aware invalidation: drops every ready entry when `epoch` advances
  /// past the last epoch seen (idempotent per epoch), counting each dropped
  /// entry as an eviction.
  void EvictAll(CorpusEpoch epoch) {
    CorpusEpoch seen = epoch_.load(std::memory_order_acquire);
    if (seen >= epoch) return;
    epoch_.store(epoch, std::memory_order_release);
    metrics_.evictions->Increment(DropReadyEntries());
  }

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const Value>> future;
    bool ready = false;
    size_t bytes = 0;
    std::list<std::string>::iterator lru;  ///< Valid only when ready.
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> map;
    std::list<std::string> lru;  ///< Ready keys, most recently used first.
    size_t bytes = 0;
  };

  CacheStats TotalsNow() const {
    CacheStats totals;
    totals.hits = metrics_.hits->Value();
    totals.misses = metrics_.misses->Value();
    totals.evictions = metrics_.evictions->Value();
    return totals;
  }

  void EvictOverBudgetLocked(Shard& shard) {
    while (shard.bytes > budget_per_shard_ && !shard.lru.empty()) {
      auto it = shard.map.find(shard.lru.back());
      QKB_CHECK(it != shard.map.end());
      shard.bytes -= it->second.bytes;
      metrics_.resident_bytes->Add(-static_cast<int64_t>(it->second.bytes));
      metrics_.resident_entries->Add(-1);
      shard.map.erase(it);
      shard.lru.pop_back();
      metrics_.evictions->Increment();
    }
  }

  /// Drops the ready entries of every shard; returns how many it dropped.
  uint64_t DropReadyEntries() {
    uint64_t dropped = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      metrics_.resident_bytes->Add(-static_cast<int64_t>(shard->bytes));
      metrics_.resident_entries->Add(-static_cast<int64_t>(shard->lru.size()));
      dropped += shard->lru.size();
      for (const std::string& key : shard->lru) shard->map.erase(key);
      shard->lru.clear();
      shard->bytes = 0;
      QKBFLY_INVARIANT(CheckShardAccountingLocked(*shard),
                       "SingleFlightCache::DropReadyEntries");
    }
    return dropped;
  }

  /// Recomputes ready-entry bytes/counts and compares them with the shard's
  /// running counters (util/invariants.h). Requires shard.mutex held. Always
  /// compiled; called from the hot path only under QKBFLY_CHECK_INVARIANTS.
  static std::string CheckShardAccountingLocked(const Shard& shard) {
    size_t bytes = 0;
    size_t ready = 0;
    for (const auto& [key, entry] : shard.map) {
      if (!entry.ready) continue;
      bytes += entry.bytes;
      ++ready;
    }
    return CheckCacheShardAccounting(shard.bytes, bytes, shard.lru.size(),
                                     ready);
  }

  Options options_;
  size_t budget_per_shard_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<CorpusEpoch> epoch_{0};  ///< Last epoch EvictAll acted on.
  // Counters are read lock-free, so the monotonicity invariant can run while
  // a shard mutex is held; the gauges sum over every instance of the tier.
  CacheInstruments metrics_;
  CacheStats baseline_;
};

}  // namespace qkbfly

#endif  // QKBFLY_STORE_SINGLE_FLIGHT_CACHE_H_
