#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace qbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double pos = q * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

int64_t SamplesBeyond(int64_t n, int percent) {
  int64_t rank = (n * percent + 99) / 100;  // ceil(n * percent / 100)
  return n - rank;
}

int TailPercentFor(int64_t n) {
  for (int percent : {99, 95, 90}) {
    if (SamplesBeyond(n, percent) >= 10) return percent;
  }
  return 0;
}

int64_t MinSamplesForTail(int percent) {
  int64_t n = 1;
  while (SamplesBeyond(n, percent) < 10) ++n;
  return n;
}

double NearestRank(std::vector<double> samples, int percent) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  int64_t n = static_cast<int64_t>(samples.size());
  int64_t rank = std::max<int64_t>(1, (n * percent + 99) / 100);
  return samples[static_cast<size_t>(rank - 1)];
}

ZipfSampler::ZipfSampler(size_t n, double s, uint64_t seed) : rng_(seed) {
  cdf_.reserve(n);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Next() {
  double u = rng_.NextDouble();
  size_t k = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(k, cdf_.size() - 1);
}

void Digest::Add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    state_ ^= c;
    state_ *= 0x100000001b3ULL;
  }
}

std::string Digest::Hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

uint64_t Digest::Of(std::string_view bytes) {
  Digest d;
  d.Add(bytes);
  return d.value();
}

int64_t CoveredLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (const auto& [a, b] : intervals) {
    int64_t from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return covered;
}

int SpanLog::Open(std::string name, int parent, int64_t request) {
  SpanRecord record;
  record.name = std::move(name);
  record.parent = parent;
  record.request = request;
  record.start_ns = NowNs();
  record.end_ns = record.start_ns;
  spans_.push_back(std::move(record));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::Close(int span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

int SpanLog::Add(SpanRecord record) {
  spans_.push_back(std::move(record));
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<int64_t> SpanLog::SelfTimes() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    self[i] = (s.end_ns - s.start_ns) -
              CoveredLength(std::move(children[i]), s.start_ns, s.end_ns);
  }
  return self;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
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
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string SpanLog::ToJson(std::string_view workload) const {
  std::string out = "{\"workload\":" + JsonString(workload) + ",\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"id\":" + std::to_string(i) + ",\"name\":" + JsonString(s.name) +
           ",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"request\":" + std::to_string(s.request) + ",\"counters\":{";
    bool first = true;
    for (const auto& [key, value] : s.counters) {
      if (!first) out += ",";
      first = false;
      out += JsonString(key) + ":" + JsonNumber(value);
    }
    out += "}}";
  }
  return out + "]}\n";
}

}  // namespace qbench
