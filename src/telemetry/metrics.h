// Process-wide metrics registry: counters and fixed-bucket histograms with
// JSON snapshot export.
//
// Ownership: metric objects are created on first Get*() and are NEVER
// destroyed or re-created — call sites may cache the returned reference in
// a function-local static for a lock-free hot path. Reset() zeroes values
// in place, so cached references stay valid across test scenarios.
//
// Determinism: metrics that measure wall-clock (every *_us histogram, the
// per-phase timing counters) are registered with `timing = true` and are
// excluded from SnapshotJson(/*include_timing=*/false). Everything else is
// a pure function of (source, seed, config, workload), which is what the
// determinism test in tests/telemetry_test.cc pins down.
#ifndef KRX_SRC_TELEMETRY_METRICS_H_
#define KRX_SRC_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/telemetry/telemetry.h"

namespace krx {
namespace telemetry {

class Counter {
 public:
  explicit Counter(std::string name, bool timing) : name_(std::move(name)), timing_(timing) {}
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  bool timing() const { return timing_; }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::string name_;
  bool timing_;
  std::atomic<uint64_t> value_{0};
};

// Fixed-bucket histogram. `bounds` are inclusive upper bounds in ascending
// order; observations above the last bound land in the overflow bucket.
class Histogram {
 public:
  Histogram(std::string name, std::vector<uint64_t> bounds, bool timing);
  void Observe(uint64_t v);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<uint64_t>& bounds() const { return bounds_; }
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t overflow_count() const { return overflow_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  bool timing() const { return timing_; }
  void Reset();

 private:
  std::string name_;
  std::vector<uint64_t> bounds_;
  bool timing_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> overflow_{0};
};

// Bucket bounds reused across the instrumented subsystems.
std::vector<uint64_t> LatencyBucketsUs();  // 1us .. ~10s, log-ish

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // First call registers; later calls return the same object (the first
  // call's `timing` flag and — for histograms — bounds win).
  Counter& GetCounter(const std::string& name, bool timing = false);
  Histogram& GetHistogram(const std::string& name, std::vector<uint64_t> bounds,
                          bool timing = false);

  // Zeroes every registered metric in place (objects survive — cached
  // references stay valid).
  void Reset();

  // Deterministic export: objects keyed by name in sorted order. With
  // include_timing = false, wall-clock metrics are omitted so the snapshot
  // is a pure function of the seeded run. `indent` prefixes every line
  // (for embedding in a larger document).
  std::string SnapshotJson(bool include_timing = true, const std::string& indent = "") const;

  // CSV form of the same snapshot: header `kind,name,value` followed by one
  // row per counter and three rows per histogram (<name>.count,
  // <name>.sum, <name>.overflow). Rows are sorted by (kind, name), so with
  // include_timing = false the document is as deterministic as the JSON
  // snapshot. Names containing `,` or `"` are quoted RFC-4180 style.
  std::string SnapshotCsv(bool include_timing = true) const;

 private:
  MetricsRegistry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace telemetry
}  // namespace krx

// `name` must be a string literal: the resolved metric is cached in a
// function-local static, so the disabled path is one relaxed load + branch
// and the enabled path skips the registry lock after first use.
#define KRX_COUNTER_ADD(name, n)                                              \
  do {                                                                        \
    if (::krx::telemetry::MetricsEnabled()) {                                 \
      static ::krx::telemetry::Counter& krx_tele_counter =                    \
          ::krx::telemetry::MetricsRegistry::Global().GetCounter(name);       \
      krx_tele_counter.Add(n);                                                \
    }                                                                         \
  } while (0)
// Wall-clock histogram in microseconds (registered timing, latency bounds).
#define KRX_HISTO_US(name, v)                                                 \
  do {                                                                        \
    if (::krx::telemetry::MetricsEnabled()) {                                 \
      static ::krx::telemetry::Histogram& krx_tele_histo =                    \
          ::krx::telemetry::MetricsRegistry::Global().GetHistogram(           \
              name, ::krx::telemetry::LatencyBucketsUs(), /*timing=*/true);   \
      krx_tele_histo.Observe(v);                                              \
    }                                                                         \
  } while (0)

#endif  // KRX_SRC_TELEMETRY_METRICS_H_
