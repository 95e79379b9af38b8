// Cross-query reuse of per-document extraction results. annotate -> graph ->
// densify is query-independent (only stage 3, canonicalization, is built per
// query), so DocumentResults keyed by (document id, engine-config
// fingerprint) can be shared by every query that retrieves the same
// document — the paper's demo keeps already-processed sentences around for
// exactly this reason.
//
// The machinery is SingleFlightCache (store/single_flight_cache.h), shared
// with the query tier; this file holds only the key and the tier's registry
// instruments (`doc_cache_{hits,misses,evictions}_total`,
// `doc_cache_resident_{bytes,entries}`).
//
// Invalidation rule: the fingerprint in the key must capture everything that
// changes the computation (see EngineConfig::Fingerprint), and document ids
// must be stable per content — a mutated document must get a new id. Keys
// carry no corpus epoch, so EvictAll on an epoch bump is the
// correctness-critical half of invalidation for this tier.
#ifndef QKBFLY_SERVICE_DOCUMENT_RESULT_CACHE_H_
#define QKBFLY_SERVICE_DOCUMENT_RESULT_CACHE_H_

#include <string>
#include <string_view>

#include "core/qkbfly.h"
#include "store/single_flight_cache.h"

namespace qkbfly {

struct DocumentResultCacheTraits {
  static constexpr size_t kDefaultByteBudget = size_t{64} << 20;

  static CacheInstruments Instruments() {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    return {registry.GetCounter("doc_cache_hits_total",
                                "DocumentResultCache lookups served without "
                                "computing (ready or joined in-flight)"),
            registry.GetCounter("doc_cache_misses_total",
                                "DocumentResultCache lookups that ran the "
                                "compute function"),
            registry.GetCounter("doc_cache_evictions_total",
                                "DocumentResultCache evictions (LRU and "
                                "epoch-bump EvictAll)"),
            registry.GetGauge("doc_cache_resident_bytes",
                              "Ready DocumentResult bytes resident"),
            registry.GetGauge("doc_cache_resident_entries",
                              "Ready DocumentResult entries resident")};
  }
};

using DocumentResultCache =
    SingleFlightCache<DocumentResult, DocumentResultCacheTraits>;

/// The doc-tier key: document id and engine fingerprint, '\x1f'-joined.
inline std::string DocumentCacheKey(std::string_view doc_id,
                                    std::string_view fingerprint) {
  std::string key;
  key.reserve(doc_id.size() + 1 + fingerprint.size());
  key.append(doc_id);
  key.push_back('\x1f');
  key.append(fingerprint);
  return key;
}

}  // namespace qkbfly

#endif  // QKBFLY_SERVICE_DOCUMENT_RESULT_CACHE_H_
