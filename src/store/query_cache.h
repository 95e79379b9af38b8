// The query-level cache tier: whole answered queries, keyed by (normalized
// question, corpus epoch, engine-config fingerprint). Sits above the
// per-document DocumentResultCache — a hit here skips retrieval, per-document
// extraction AND canonicalization. The cached value stores the serialized KB
// (OnTheFlyKb::Serialize bytes), so warm answers deserialize to a KB that is
// byte-identical to the cold build (the Serialize/Deserialize round-trip
// contract carries the identity guarantee).
//
// The machinery is SingleFlightCache (store/single_flight_cache.h), shared
// with the doc tier; this file holds only the value type, the key and the
// tier's registry instruments (`query_cache_{hits,misses,evictions}_total`,
// `query_cache_resident_{bytes,entries}`).
#ifndef QKBFLY_STORE_QUERY_CACHE_H_
#define QKBFLY_STORE_QUERY_CACHE_H_

#include <string>
#include <string_view>
#include <vector>

#include "corpus/document.h"
#include "store/single_flight_cache.h"

namespace qkbfly {

/// One cached answered query.
struct CachedAnswer {
  std::string kb_bytes;              ///< OnTheFlyKb::Serialize output.
  std::vector<std::string> answers;  ///< Rendered top facts, ranked.
  size_t documents = 0;              ///< Documents retrieved for the answer.
  bool from_store = false;           ///< Served from persisted QA pairs.

  size_t ApproxBytes() const;
};

struct QueryKbCacheTraits {
  static constexpr size_t kDefaultByteBudget = size_t{32} << 20;
  static CacheInstruments Instruments();
};

using QueryKbCache = SingleFlightCache<CachedAnswer, QueryKbCacheTraits>;

/// The query-tier key: normalized query, corpus epoch, and engine
/// fingerprint, '\x1f'-joined. Epoch in the key means a corpus bump
/// naturally misses — EvictAll() only reclaims the dead entries' memory.
std::string QueryCacheKey(std::string_view normalized_query, CorpusEpoch epoch,
                          std::string_view fingerprint);

}  // namespace qkbfly

#endif  // QKBFLY_STORE_QUERY_CACHE_H_
