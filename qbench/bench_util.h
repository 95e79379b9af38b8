// Helpers of the repository benchmark (qbench): sample statistics with the
// ten-beyond tail rule, a seeded Zipf sampler, a byte digest for KB
// identity checks, and an in-memory span log with self-time accounting.
// None of this is part of the system under test; it lives beside the
// benchmark program and is unit-tested by bench_util_test.cc.
#ifndef QBENCH_BENCH_UTIL_H_
#define QBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace qbench {

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 when
/// there are none.
double Quantile(std::vector<double> samples, double q);

/// Samples strictly beyond the nearest-rank `percent` percentile of `n`
/// samples: n - ceil(n * percent / 100).
int64_t SamplesBeyond(int64_t n, int percent);

/// The tail percentile to report for `n` samples: the highest of 99, 95 and
/// 90 with at least ten samples beyond it, or 0 when even p90 has fewer.
int TailPercentFor(int64_t n);

/// The fewest samples at which `percent` has ten samples beyond it.
int64_t MinSamplesForTail(int percent);

/// Nearest-rank percentile (percent in (0, 100]) of unsorted samples.
double NearestRank(std::vector<double> samples, int percent);

/// Zipf(s) over ranks [0, n): P(rank k) ~ 1 / (k + 1)^s. The draw sequence
/// is a pure function of (n, s, seed).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s, uint64_t seed);

  size_t Next();

 private:
  std::vector<double> cdf_;
  qkbfly::Rng rng_;
};

/// Incremental 64-bit FNV-1a digest.
class Digest {
 public:
  void Add(std::string_view bytes);
  uint64_t value() const { return state_; }
  std::string Hex() const;

  static uint64_t Of(std::string_view bytes);

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Length of [lo, hi) covered by the union of `intervals` (each [a, b)).
/// Overlapping intervals — children running on parallel workers — count once.
int64_t CoveredLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi);

/// Monotonic nanoseconds since an arbitrary process-wide origin.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed region of the traced run.
struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;       ///< Index into the log, -1 for a root.
  int64_t request = -1;  ///< Request (operation) the span belongs to.
  std::map<std::string, double> counters;  ///< Work done inside the span.
};

/// Spans of one traced run, kept in memory and written out once at the end.
class SpanLog {
 public:
  /// Opens a span now; returns its index.
  int Open(std::string name, int parent, int64_t request);
  void Close(int span);

  /// Adds an already-timed span (e.g. converted from another clock).
  int Add(SpanRecord record);

  void Count(int span, const std::string& key, double value) {
    spans_[static_cast<size_t>(span)].counters[key] += value;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Per span: its duration minus the part its children cover, with
  /// overlapping children merged before subtracting.
  std::vector<int64_t> SelfTimes() const;

  /// All spans as one JSON object {"workload":..., "spans":[...]}.
  std::string ToJson(std::string_view workload) const;

 private:
  std::vector<SpanRecord> spans_;
};

/// RAII span on a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent, int64_t request)
      : log_(log), id_(log->Open(std::move(name), parent, request)) {}
  ~ScopedSpan() { log_->Close(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  void Count(const std::string& key, double value) {
    log_->Count(id_, key, value);
  }

 private:
  SpanLog* log_;
  int id_;
};

/// JSON string literal with escapes.
std::string JsonString(std::string_view s);

/// Round-trip text of a double ("%.17g").
std::string JsonNumber(double value);

}  // namespace qbench

#endif  // QBENCH_BENCH_UTIL_H_
