#include "src/telemetry/metrics.h"

#include <algorithm>
#include <cstdio>

namespace krx {
namespace telemetry {
namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out->append(buf);
}

void AppendCsvField(std::string* out, const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) {
    out->append(s);
    return;
  }
  out->push_back('"');
  for (char c : s) {
    if (c == '"') {
      out->push_back('"');
    }
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

Histogram::Histogram(std::string name, std::vector<uint64_t> bounds, bool timing)
    : name_(std::move(name)), bounds_(std::move(bounds)), timing_(timing),
      buckets_(bounds_.size()) {}

void Histogram::Observe(uint64_t v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  if (it == bounds_.end()) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
  } else {
    buckets_[static_cast<size_t>(it - bounds_.begin())].fetch_add(1, std::memory_order_relaxed);
  }
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  for (std::atomic<uint64_t>& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  overflow_.store(0, std::memory_order_relaxed);
}

std::vector<uint64_t> LatencyBucketsUs() {
  return {1,      2,      5,       10,      20,      50,      100,     200,
          500,    1000,   2000,    5000,    10000,   20000,   50000,   100000,
          200000, 500000, 1000000, 2000000, 5000000, 10000000};
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked for the same reason as the ring registry: hot paths cache
  // references in function-local statics whose destruction order relative
  // to this object is unspecified.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name, bool timing) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>(name, timing)).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name, std::vector<uint64_t> bounds,
                                         bool timing) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<Histogram>(name, std::move(bounds), timing))
             .first;
  }
  return *it->second;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) {
    c->Reset();
  }
  for (auto& [name, h] : histograms_) {
    h->Reset();
  }
}

std::string MetricsRegistry::SnapshotJson(bool include_timing, const std::string& indent) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  const std::string in1 = indent + "  ";
  const std::string in2 = indent + "    ";
  out += "{\n";

  out += in1 + "\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (c->timing() && !include_timing) {
      continue;
    }
    out += first ? "\n" : ",\n";
    first = false;
    out += in2 + "\"";
    AppendEscaped(&out, name);
    out += "\": ";
    AppendU64(&out, c->value());
  }
  out += first ? "},\n" : "\n" + in1 + "},\n";

  out += in1 + "\"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (h->timing() && !include_timing) {
      continue;
    }
    out += first ? "\n" : ",\n";
    first = false;
    out += in2 + "\"";
    AppendEscaped(&out, name);
    out += "\": {\"count\": ";
    AppendU64(&out, h->count());
    out += ", \"sum\": ";
    AppendU64(&out, h->sum());
    out += ", \"buckets\": [";
    for (size_t i = 0; i < h->bounds().size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += "{\"le\": ";
      AppendU64(&out, h->bounds()[i]);
      out += ", \"n\": ";
      AppendU64(&out, h->bucket_count(i));
      out += "}";
    }
    out += "], \"overflow\": ";
    AppendU64(&out, h->overflow_count());
    out += "}";
  }
  out += first ? "}\n" : "\n" + in1 + "}\n";

  out += indent + "}";
  return out;
}

std::string MetricsRegistry::SnapshotCsv(bool include_timing) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "kind,name,value\n";
  for (const auto& [name, c] : counters_) {
    if (c->timing() && !include_timing) {
      continue;
    }
    out += "counter,";
    AppendCsvField(&out, name);
    out += ",";
    AppendU64(&out, c->value());
    out += "\n";
  }
  for (const auto& [name, h] : histograms_) {
    if (h->timing() && !include_timing) {
      continue;
    }
    for (const char* field : {"count", "sum", "overflow"}) {
      out += "histogram,";
      AppendCsvField(&out, name + "." + field);
      out += ",";
      const uint64_t v = field[0] == 'c'   ? h->count()
                         : field[0] == 's' ? h->sum()
                                           : h->overflow_count();
      AppendU64(&out, v);
      out += "\n";
    }
  }
  return out;
}

}  // namespace telemetry
}  // namespace krx
