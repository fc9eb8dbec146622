// Shared pieces of the repository benchmark (perfbench/): statistics, the
// in-memory span tracer, the seeded open-loop schedule, process RSS, and the
// Workload interface the four workloads implement.
//
// Everything here is measured from the benchmark's own files, around calls
// into the public API of each kR^X layer; nothing inside src/ is
// instrumented for the benchmark.
#ifndef KRX_PERFBENCH_HARNESS_H_
#define KRX_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---- Statistics. ----

// Nearest-rank percentile of `values` (q in [0, 1]); 0 for an empty input.
// The rank is ceil(q * n), so q = 0.99 over 1000 samples returns the 990th
// smallest value and 10 samples lie beyond it.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

// ---- Open-loop schedule. ----

struct Arrival {
  double at_ms = 0;  // scheduled send time, relative to the rung start
  int tenant = 0;
  int client = 0;    // client thread (and fleet worker) that sends it
};

// Poisson arrivals at `rate_rps` for `duration_ms`, dealt round-robin to
// `clients` client threads. Tenants are dealt from a shuffled deck: each
// block of `tenants` arrivals (0..n-1, n..2n-1, ...) goes to every tenant
// once, in a seeded order, so any run of whole blocks carries the same
// request mix. The same (seed, rate, duration, tenants, clients) always
// yields the same schedule.
std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_rps, double duration_ms,
                                     int tenants, int clients);

// ---- CPU placement. ----

// Pins the calling thread to the `index`-th CPU (modulo the count) of the
// CPUs this process was allowed to use when it started. Every benchmark
// thread runs pinned: on a shared virtual machine, a thread that migrates
// between vCPUs ran up to 40% slower than a pinned one, whole runs apart.
void PinThisThread(int index);

// ---- Process memory. ----

// Peak (VmHWM) and current (VmRSS) resident set of this process, in MB.
double PeakRssMb();
double CurrentRssMb();

// ---- Span tracer. ----
//
// Spans and samples are kept in memory (one buffer per thread, no locking
// on the hot path) and written out once, after the run. A span records a
// name "<layer>.<call>", its parent (the span open on the same thread when
// it started), start and end, and an optional request tag shared by the
// spans of one request. Samples are named scalar observations (counts,
// ratios, per-build sums) taken at the same boundaries. Every record
// carries the phase it was taken in, so a traced workload's own numbers can
// be told apart from the layer probes run after it.
class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    const char* name = "";
    int64_t start_ns = 0;  // since the tracer's origin
    int64_t end_ns = 0;
    uint64_t tag = 0;
    int phase = 0;
    int thread = 0;
  };
  struct Sample {
    std::string name;
    double value = 0;
    int phase = 0;
  };

  static Tracer& Global();

  bool enabled() const { return enabled_; }
  // Not thread-safe: toggle only while no traced thread is running.
  void SetEnabled(bool on) { enabled_ = on; }
  void SetPhase(int phase) { phase_ = phase; }

  // Span bracketing on the calling thread; Begin returns 0 when disabled.
  uint64_t Begin(const char* name, uint64_t tag = 0);
  void End(uint64_t id);
  // A span for an interval that does not bracket a call on this thread
  // (e.g. the queueing between a request's scheduled send and its service).
  void Record(const char* name, Clock::time_point start, Clock::time_point end,
              uint64_t tag = 0);
  void AddSample(const std::string& name, double value);

  // Everything recorded so far; call only after traced threads joined.
  std::vector<Span> Spans() const;
  std::vector<Sample> Samples() const;

 private:
  struct ThreadBuffer;
  ThreadBuffer& Local();
  int64_t SinceOrigin(Clock::time_point t) const;
  // Appends a span for `name` to this thread's buffer, as a child of the
  // innermost open span; returns its index in the buffer.
  size_t Push(ThreadBuffer& b, const char* name, uint64_t tag);

  bool enabled_ = false;
  int phase_ = 0;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;  // guards buffers_ (registration and collection)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// RAII span on the global tracer; free when tracing is off.
class SpanScope {
 public:
  explicit SpanScope(const char* name, uint64_t tag = 0)
      : id_(Tracer::Global().enabled() ? Tracer::Global().Begin(name, tag) : 0) {}
  ~SpanScope() {
    if (id_ != 0) Tracer::Global().End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  uint64_t id_;
};

// Records a sample on the global tracer when tracing is on.
inline void TraceSample(const std::string& name, double value) {
  if (Tracer::Global().enabled()) Tracer::Global().AddSample(name, value);
}

// Phases of a traced run.
inline constexpr int kPhaseWorkload = 1;  // the traced half of the workload
inline constexpr int kPhaseProbe = 2;     // layer probes and mini workloads

// ---- Workloads. ----

struct CompletedOp {
  double end_s = 0;       // completion, in seconds since the timed phase started
  double ms = 0;          // latency
  double service_ms = 0;  // time its client thread spent on it (the latency, in a closed loop)
};

// What one timed phase of a workload measured.
struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0;
  std::vector<CompletedOp> ops;  // every completed op
  // Client threads serving the ops: throughput is clients / mean service
  // time. In an open loop this is the rate the clients could sustain, not
  // the offered rate they were given.
  int clients = 1;
  // The workload's own throughput figure, for ops whose cost the windows
  // below cannot even out (see rerand-live and serve-open); 0 = the best
  // window's.
  double ops_per_s = 0;
  // Length of the workload's repeating op mix (one matrix pass, one config
  // cycle); windows hold whole cycles so every window runs the same mix.
  size_t ops_per_cycle = 1;
  // Guest work retired by the counted ops (0 where the workload runs none).
  uint64_t guest_instructions = 0;
  uint64_t guest_deci_cycles = 0;
  uint64_t guest_ops = 0;  // ops whose guest work is counted above
  // Workload-specific end-to-end figures (name -> value), printed in the
  // human-readable summary with their unit.
  struct Extra {
    std::string name;
    double value = 0;
    std::string unit;
    std::string note;
  };
  std::vector<Extra> extras;
  std::vector<std::string> notes;   // free-form summary lines
  std::vector<std::string> errors;  // first few failure descriptions

  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
};

// End-to-end figures of a phase. The completed ops, in completion order,
// are cut into up to `windows` windows of whole cycles; each window gets its
// own throughput, p50 and p99, and each figure is the best window's
// (highest throughput, lowest p50 and p99). On a shared 4-vCPU virtual
// machine every workload ran in a fast and a slow mode, up to 1.6x apart,
// in stretches of seconds and in proportions that changed from run to run;
// across ten runs the median window's figures spread by up to 31% and the
// best window's by up to 22%. The best window hides any stall that spares one
// window, so `mean_ops_per_s` gives the throughput over the whole phase.
struct WindowedStats {
  double ops_per_s = 0;
  double mean_ops_per_s = 0;  // clients / mean service time over every op
  double p50_ms = 0;
  double p99_ms = 0;
  size_t ops = 0;         // completed ops in the phase
  size_t windows = 0;     // windows the figures are taken over
  size_t window_ops = 0;  // ops per window
};
WindowedStats Windowed(const PhaseResult& r, int windows);

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds everything the timed phase needs. Called on a fresh object.
  virtual krx::Status SetUp(uint64_t seed) = 0;
  // Runs the timed phase for about `seconds`.
  virtual PhaseResult Run(double seconds) = 0;
};

std::unique_ptr<Workload> MakeExecMatrix();
std::unique_ptr<Workload> MakeBuildChurn();
std::unique_ptr<Workload> MakeRerandLive();
std::unique_ptr<Workload> MakeServeOpen();

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

// The layer probes of a traced run: times the public calls of the plugin,
// ir, kernel, mem, verify, rerand, fleet, cpu and workload layers in
// isolation, recording spans and samples in kPhaseProbe. Returns false
// (with `error` set) when a probe's own correctness check fails.
bool RunLayerProbes(uint64_t seed, std::string* error);

}  // namespace perfbench

#endif  // KRX_PERFBENCH_HARNESS_H_
