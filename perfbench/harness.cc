#include "harness.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/base/rng.h"

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

WindowedStats Windowed(const PhaseResult& r, int windows) {
  WindowedStats out;
  out.ops = r.ops.size();
  const size_t cycle = std::max<size_t>(r.ops_per_cycle, 1);
  const size_t cycles = r.ops.size() / cycle;
  if (cycles == 0 || windows < 1) return out;
  out.windows = std::min(cycles, static_cast<size_t>(windows));
  out.window_ops = cycles / out.windows * cycle;
  std::vector<CompletedOp> ops = r.ops;
  std::stable_sort(ops.begin(), ops.end(),
                   [](const CompletedOp& a, const CompletedOp& b) { return a.end_s < b.end_s; });
  std::vector<double> rate, p50, p99;
  double total_service_ms = 0;
  for (size_t w = 0; w < out.windows; ++w) {
    std::vector<double> ms;
    double service_ms = 0;
    for (size_t i = w * out.window_ops; i < (w + 1) * out.window_ops; ++i) {
      ms.push_back(ops[i].ms);
      service_ms += ops[i].service_ms;
    }
    total_service_ms += service_ms;
    rate.push_back(r.clients * 1000.0 * static_cast<double>(ms.size()) / service_ms);
    p50.push_back(Percentile(ms, 0.5));
    p99.push_back(Percentile(ms, 0.99));
  }
  out.mean_ops_per_s = r.clients * 1000.0 *
                       static_cast<double>(out.windows * out.window_ops) / total_service_ms;
  out.ops_per_s = *std::max_element(rate.begin(), rate.end());
  out.p50_ms = *std::min_element(p50.begin(), p50.end());
  out.p99_ms = *std::min_element(p99.begin(), p99.end());
  return out;
}

std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_rps, double duration_ms,
                                     int tenants, int clients) {
  std::vector<Arrival> out;
  if (rate_rps <= 0 || duration_ms <= 0 || tenants < 1 || clients < 1) return out;
  krx::Rng rng(seed ^ 0x9015500A11ULL ^ static_cast<uint64_t>(rate_rps));
  std::vector<int> deck;
  double t = 0;
  for (;;) {
    // Uniform in (0, 1] from the top 53 bits, so log() stays finite.
    const double u = static_cast<double>((rng.Next() >> 11) + 1) * (1.0 / 9007199254740992.0);
    t += -std::log(u) * 1000.0 / rate_rps;
    if (t >= duration_ms) break;
    if (deck.empty()) {
      for (int i = 0; i < tenants; ++i) deck.push_back(i);
      rng.Shuffle(deck);
    }
    Arrival a;
    a.at_ms = t;
    a.tenant = deck.back();
    deck.pop_back();
    a.client = static_cast<int>(out.size() % static_cast<size_t>(clients));
    out.push_back(a);
  }
  return out;
}

namespace {

std::vector<int> AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

void PinThisThread(int index) {
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.empty() || index < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<size_t>(index) % cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

namespace {

double StatusFieldMb(const char* field) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kb = std::atof(line + len + 1);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace

double PeakRssMb() { return StatusFieldMb("VmHWM"); }
double CurrentRssMb() { return StatusFieldMb("VmRSS"); }

// ---- Tracer. ----

struct Tracer::ThreadBuffer {
  int thread = 0;
  uint64_t next_local = 1;
  std::vector<Span> spans;
  std::vector<size_t> open;  // indices into spans of the spans still open
  std::vector<Sample> samples;
};

namespace {
thread_local void* tl_buffer = nullptr;
}  // namespace

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::Local() {
  if (tl_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->spans.reserve(1 << 14);
    std::lock_guard<std::mutex> lock(mu_);
    buffer->thread = static_cast<int>(buffers_.size());
    tl_buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<ThreadBuffer*>(tl_buffer);
}

int64_t Tracer::SinceOrigin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
}

size_t Tracer::Push(ThreadBuffer& b, const char* name, uint64_t tag) {
  Span s;
  s.id = (static_cast<uint64_t>(b.thread + 1) << 40) | b.next_local++;
  s.parent = b.open.empty() ? 0 : b.spans[b.open.back()].id;
  s.name = name;
  s.tag = tag;
  s.phase = phase_;
  s.thread = b.thread;
  b.spans.push_back(s);
  return b.spans.size() - 1;
}

uint64_t Tracer::Begin(const char* name, uint64_t tag) {
  if (!enabled_) return 0;
  ThreadBuffer& b = Local();
  const size_t index = Push(b, name, tag);
  b.open.push_back(index);
  b.spans[index].start_ns = SinceOrigin(Clock::now());
  return b.spans[index].id;
}

void Tracer::End(uint64_t id) {
  const int64_t now = SinceOrigin(Clock::now());
  ThreadBuffer& b = Local();
  // Spans close in LIFO order on one thread; tolerate a mismatch by
  // searching down the open stack.
  for (size_t i = b.open.size(); i-- > 0;) {
    Span& s = b.spans[b.open[i]];
    if (s.id == id) {
      s.end_ns = now;
      b.open.erase(b.open.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void Tracer::Record(const char* name, Clock::time_point start, Clock::time_point end,
                    uint64_t tag) {
  if (!enabled_) return;
  ThreadBuffer& b = Local();
  Span& s = b.spans[Push(b, name, tag)];
  s.start_ns = SinceOrigin(start);
  s.end_ns = SinceOrigin(end);
}

void Tracer::AddSample(const std::string& name, double value) {
  if (!enabled_) return;
  Local().samples.push_back({name, value, phase_});
}

std::vector<Tracer::Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) out.insert(out.end(), b->spans.begin(), b->spans.end());
  return out;
}

std::vector<Tracer::Sample> Tracer::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> out;
  for (const auto& b : buffers_) out.insert(out.end(), b->samples.begin(), b->samples.end());
  return out;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "exec-matrix") return MakeExecMatrix();
  if (name == "build-churn") return MakeBuildChurn();
  if (name == "rerand-live") return MakeRerandLive();
  if (name == "serve-open") return MakeServeOpen();
  return nullptr;
}

}  // namespace perfbench
