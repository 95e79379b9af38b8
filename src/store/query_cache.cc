#include "store/query_cache.h"

#include <cstdio>

namespace qkbfly {

size_t CachedAnswer::ApproxBytes() const {
  size_t bytes = sizeof(*this) + kb_bytes.size();
  for (const std::string& a : answers) bytes += sizeof(a) + a.size();
  return bytes;
}

CacheInstruments QueryKbCacheTraits::Instruments() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  return {registry.GetCounter("query_cache_hits_total",
                              "QueryKbCache lookups served without answering "
                              "(ready or joined in-flight)"),
          registry.GetCounter("query_cache_misses_total",
                              "QueryKbCache lookups that ran the full "
                              "answer pipeline"),
          registry.GetCounter("query_cache_evictions_total",
                              "QueryKbCache evictions (LRU and "
                              "epoch-bump EvictAll)"),
          registry.GetGauge("query_cache_resident_bytes",
                            "Ready CachedAnswer bytes resident"),
          registry.GetGauge("query_cache_resident_entries",
                            "Ready CachedAnswer entries resident")};
}

std::string QueryCacheKey(std::string_view normalized_query, CorpusEpoch epoch,
                          std::string_view fingerprint) {
  char epoch_buf[24];
  std::snprintf(epoch_buf, sizeof(epoch_buf), "%llu",
                static_cast<unsigned long long>(epoch));
  std::string key;
  key.reserve(normalized_query.size() + fingerprint.size() + 26);
  key.append(normalized_query);
  key.push_back('\x1f');
  key.append(epoch_buf);
  key.push_back('\x1f');
  key.append(fingerprint);
  return key;
}

}  // namespace qkbfly
