// Unified telemetry: typed event tracing with per-thread binary rings.
//
// This header is the tracing half of the telemetry subsystem (metrics live
// in metrics.h, the sampling guest profiler in profiler.h, the Chrome-trace
// exporter in chrome_trace.h). Everything here is observability-only:
// nothing in the simulator reads telemetry state to make execution
// decisions, so disabling it at runtime cannot change guest-visible
// behaviour.
//
// Layering: TraceRing is a fixed-capacity ring of fixed-size TraceRecords
// owned by exactly one writer thread. Wrap-around overwrites oldest-first
// (the retained window is always the most recent `capacity` records, in
// emission order). Snapshots are taken at quiescence — after the writer
// thread joined, or between runs — matching how the exporters use them.
// Rings are registered globally on first use and outlive their threads, so
// a post-run export sees every thread that ever traced.
//
// Gating contract (DESIGN.md §11): the process-wide mode word gates every
// call site; there is no compile-time switch.
//   - With tracing off, an event call site costs one relaxed atomic load
//     and a predicted branch; no telemetry call site sits inside the
//     interpreter's per-instruction path (run/block boundaries only — the
//     sole per-instruction hook is the profiler's null-checked PC slot,
//     see src/cpu/cpu.h).
//   - KRX_TELEMETRY environment variable picks the initial mode: "off",
//     "metrics" (default), "trace"/"full" (metrics + event tracing).
#ifndef KRX_SRC_TELEMETRY_TELEMETRY_H_
#define KRX_SRC_TELEMETRY_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace krx {
namespace telemetry {

// Mode bits. Metrics and tracing gate independently; the profiler has no
// mode bit — it is armed by installing a PC slot on a Cpu.
inline constexpr uint32_t kModeMetrics = 1u << 0;
inline constexpr uint32_t kModeTrace = 1u << 1;

namespace internal {
extern std::atomic<uint32_t> g_mode;
}  // namespace internal

inline bool MetricsEnabled() {
  return (internal::g_mode.load(std::memory_order_relaxed) & kModeMetrics) != 0;
}
inline bool TraceEnabled() {
  return (internal::g_mode.load(std::memory_order_relaxed) & kModeTrace) != 0;
}

// Sets / reads the process-wide mode word (a bitmask of kMode*). The
// initial value comes from KRX_TELEMETRY ("off" = 0, "metrics" = metrics
// only, "trace"/"full" = metrics + tracing); unset or unparsable means
// "metrics".
void SetMode(uint32_t mode);
uint32_t Mode();
// "off" | "metrics" | "trace" | "full" -> mode bits; false on junk.
bool ParseModeName(const std::string& name, uint32_t* mode);

// Microseconds since the process trace origin (steady clock). All trace
// timestamps share this origin, so spans from different threads align.
uint64_t TraceNowUs();

// Typed records. `arg0`/`arg1` meanings per type are documented inline and
// mirrored by the Chrome exporter's args object.
enum class TraceEventType : uint16_t {
  kNone = 0,
  kSpanBegin,        // paired with kSpanEnd on the same thread; name = span
  kSpanEnd,
  kInstant,          // generic point event
  kCpuTrap,          // arg0 = ExceptionKind, arg1 = fault address
  kKrxViolation,     // arg0 = %rip inside krx_handler (0: harness-observed)
  kCheckOutcome,     // per-run aggregate: arg0 = bndcu retired, arg1 = loads
  kBlockCacheFlush,  // arg0 = new text generation
  kQuiesceWait,      // arg0 = wait in us, arg1 = 1 writer / 0 reader
  kRerandStep,       // arg0 = RerandStep ordinal, arg1 = step wall us
  kFaultInject,      // arg0 = FaultClass ordinal, arg1 = trigger step
  kModuleLoad,       // arg0 = handle, arg1 = text bytes
  kModuleUnload,     // arg0 = handle
  kCompilePhase,     // arg0 = phase wall us
  kWatchdogLockup,   // arg0 = 1 hard / 0 soft, arg1 = stalled ticks
  kHealthTransition, // arg0 = HealthAspect ordinal, arg1 = new HealthLevel
  kRetryBackoff,     // arg0 = attempt (1-based), arg1 = backoff us
  kCheckpoint,       // arg0 = 1 restore / 0 capture, arg1 = bytes or us
  kSpecWindow,       // arg0 = windows this run, arg1 = wrong-path insts
  kSuperblockBuild,  // arg0 = entry rip, arg1 = chained instruction count
  kSuperblockFlush,  // arg0 = new text generation
};

const char* TraceEventTypeName(TraceEventType type);

struct TraceRecord {
  uint64_t ts_us = 0;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
  uint32_t tid = 0;  // ring ordinal, stable for the thread's lifetime
  TraceEventType type = TraceEventType::kNone;
  uint16_t reserved = 0;
  char name[40] = {};  // NUL-terminated, truncated copy
};

inline constexpr size_t kDefaultRingCapacity = 8192;

// Capacity used for rings created after the call (a live thread's ring is
// never resized — call this before the first emission on the threads you
// care about). Tools whose whole run must fit in the retained window (the
// traced security_eval attack suite) raise it; zero is clamped to 1.
void SetDefaultRingCapacity(size_t capacity);
size_t DefaultRingCapacity();

// Single-writer event ring. The owning thread emits; any thread may read
// the atomic counters; Snapshot() must run at writer quiescence (records
// are plain memory — a snapshot racing the writer would tear).
class TraceRing {
 public:
  explicit TraceRing(uint32_t tid, size_t capacity = kDefaultRingCapacity);

  void Emit(TraceEventType type, const char* name, uint64_t arg0 = 0, uint64_t arg1 = 0);
  void Emit(TraceEventType type, const std::string& name, uint64_t arg0 = 0,
            uint64_t arg1 = 0) {
    Emit(type, name.c_str(), arg0, arg1);
  }

  // The retained window, oldest-first. Writer-quiescent callers only.
  std::vector<TraceRecord> Snapshot() const;

  // Drops every retained record (counters restart); writer-quiescent only.
  void Clear();

  uint64_t emitted() const { return head_.load(std::memory_order_acquire); }
  uint64_t dropped() const {
    const uint64_t h = emitted();
    return h > slots_.size() ? h - slots_.size() : 0;
  }
  size_t capacity() const { return slots_.size(); }
  uint32_t tid() const { return tid_; }

  const std::string& thread_name() const { return thread_name_; }
  void set_thread_name(std::string name) { thread_name_ = std::move(name); }

 private:
  std::vector<TraceRecord> slots_;
  std::atomic<uint64_t> head_{0};
  uint32_t tid_;
  std::string thread_name_;
};

// The calling thread's ring: created, registered globally and pinned for
// the process lifetime on first use.
TraceRing& ThreadRing();

// Labels the calling thread's ring in exported traces ("worker-3", ...).
void SetThreadName(const std::string& name);

// Every ring ever registered (includes rings of exited threads).
std::vector<std::shared_ptr<TraceRing>> AllRings();

// Clears the retained records of every registered ring (rings and thread
// bindings survive — unlike dropping the registry, this cannot dangle a
// live thread's cached ring). Tests and tools use it between scenarios.
void ClearAllRings();

// Emission helpers — the macro bodies. The disabled fast path is the
// TraceEnabled() load.
inline void EmitEvent(TraceEventType type, const char* name, uint64_t arg0 = 0,
                      uint64_t arg1 = 0) {
  if (!TraceEnabled()) {
    return;
  }
  ThreadRing().Emit(type, name, arg0, arg1);
}
inline void EmitEvent(TraceEventType type, const std::string& name, uint64_t arg0 = 0,
                      uint64_t arg1 = 0) {
  if (!TraceEnabled()) {
    return;
  }
  ThreadRing().Emit(type, name, arg0, arg1);
}

// RAII span. Captures the enabled decision at construction so a span that
// began is always closed (mode flips mid-span cannot unbalance the trace).
class SpanScope {
 public:
  explicit SpanScope(const char* name) {
    if (TraceEnabled()) {
      ring_ = &ThreadRing();
      std::strncpy(name_, name, sizeof(name_) - 1);
      ring_->Emit(TraceEventType::kSpanBegin, name_);
    }
  }
  explicit SpanScope(const std::string& name) : SpanScope(name.c_str()) {}
  ~SpanScope() {
    if (ring_ != nullptr) {
      ring_->Emit(TraceEventType::kSpanEnd, name_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  TraceRing* ring_ = nullptr;
  char name_[40] = {};
};

}  // namespace telemetry
}  // namespace krx

// Call-site macros: the runtime-gated helpers above.
#define KRX_TELE_CAT2(a, b) a##b
#define KRX_TELE_CAT(a, b) KRX_TELE_CAT2(a, b)

// Statement form: span covers the rest of the enclosing scope.
#define KRX_TRACE_SPAN_SCOPED(name) \
  ::krx::telemetry::SpanScope KRX_TELE_CAT(krx_tele_span_, __LINE__)(name)
#define KRX_TRACE_EVENT(type, name, arg0, arg1) \
  ::krx::telemetry::EmitEvent(::krx::telemetry::TraceEventType::type, (name), (arg0), (arg1))

#endif  // KRX_SRC_TELEMETRY_TELEMETRY_H_
