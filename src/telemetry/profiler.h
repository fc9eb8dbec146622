// Sampling guest profiler.
//
// A host thread periodically reads per-Cpu "last guest PC" slots (installed
// via Cpu::set_sample_pc_slot — the Cpu publishes its %rip with one relaxed
// store per retired instruction while a slot is installed, and pays only a
// null-pointer test when none is) and attributes each sample to a guest
// function via a caller-provided extent table. Layering: this library sits
// below src/cpu and src/kernel, so it takes plain FunctionExtent data — the
// caller flattens its SymbolTable (see MakeExtentsFromSymbols in
// tools/krx_trace.cc for the idiom).
//
// Cost attribution: combined with the interpreter's CostModel, the profiler
// also reports a static census of protection-check sites per function
// (kBndcu instructions for kR^X-MPX; conditional branches into the
// krx_handler extent for kR^X-SFI, plus their feeding cmp/lea) and the
// deci-cycle price of one execution of each site. Sample share times check
// density yields the per-function share of total check cost — an estimate
// documented as such, not an exact count (sampling is statistical and the
// census assumes straight-line execution of each site).
#ifndef KRX_SRC_TELEMETRY_PROFILER_H_
#define KRX_SRC_TELEMETRY_PROFILER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/cpu/cost_model.h"

namespace krx {
namespace telemetry {

struct FunctionExtent {
  std::string name;
  uint64_t addr = 0;
  uint64_t size = 0;
  std::vector<uint8_t> bytes;  // function body, for the check census; may be empty
};

struct CheckCensus {
  uint64_t sfi_checks = 0;   // conditional branches into krx_handler
  uint64_t mpx_checks = 0;   // bndcu instructions
  uint64_t check_decicycles = 0;  // one execution of every counted site
  uint64_t total_decicycles = 0;  // one execution of every instruction
};

// Counts check sites in a function body and prices every instruction with
// `cost.CostOf`, the interpreter's own price. `handler_lo/hi` bound the
// krx_handler extent ([lo, hi)); zero range disables SFI counting.
CheckCensus CensusOf(const FunctionExtent& fn, uint64_t handler_lo, uint64_t handler_hi,
                     const CostModel& cost);

struct FunctionProfile {
  std::string name;
  uint64_t samples = 0;
  double sample_pct = 0;       // share of non-idle samples
  CheckCensus census;
  double check_cost_pct = 0;   // static check share of the function's cycles
  double est_check_share = 0;  // sample_pct * check_cost_pct / 100
};

// Per-target (per-worker) attribution: how busy each sampled execution
// context was over the profiling window.
struct TargetProfile {
  std::string label;
  uint64_t samples = 0;  // sampler ticks taken while this slot existed
  uint64_t idle = 0;     // of those, ticks where the slot read 0
};

struct ProfileReport {
  uint64_t total_samples = 0;   // every sampler tick across all targets
  uint64_t idle_samples = 0;    // slot was 0 (no guest code running)
  uint64_t unattributed = 0;    // PC outside every known extent
  std::vector<FunctionProfile> functions;  // sorted by samples, descending
  std::vector<TargetProfile> targets;      // registration order
};

class GuestProfiler {
 public:
  GuestProfiler() = default;
  ~GuestProfiler();
  GuestProfiler(const GuestProfiler&) = delete;
  GuestProfiler& operator=(const GuestProfiler&) = delete;

  // Installs the attribution table. Call before Start(); extents must not
  // overlap (sorted internally).
  void SetFunctions(std::vector<FunctionExtent> extents, uint64_t handler_lo,
                    uint64_t handler_hi);

  // Registers a sampled execution context (one per Cpu). The returned slot
  // stays valid for the profiler's lifetime; install it with
  // Cpu::set_sample_pc_slot and clear it (set_sample_pc_slot(nullptr))
  // before the profiler is destroyed. Re-registering an existing label
  // returns that label's slot (workers in a pool keep one slot per worker
  // across bench iterations).
  std::atomic<uint64_t>* AddTarget(const std::string& label);

  void Start(std::chrono::microseconds period);
  void Stop();
  bool running() const { return running_.load(std::memory_order_relaxed); }

  // Safe after Stop() or while running (sampling pauses for the report).
  ProfileReport MakeReport(const CostModel& cost) const;

 private:
  struct Target {
    std::string label;
    std::atomic<uint64_t> pc{0};
    uint64_t samples = 0;  // guarded by mu_
    uint64_t idle = 0;     // guarded by mu_
  };

  void SamplerLoop(std::chrono::microseconds period);
  // Index into extents_ for pc, or -1.
  int AttributePc(uint64_t pc) const;

  mutable std::mutex mu_;  // guards counts below and extents_
  std::vector<FunctionExtent> extents_;  // sorted by addr
  uint64_t handler_lo_ = 0, handler_hi_ = 0;
  std::vector<std::unique_ptr<Target>> targets_;
  std::vector<uint64_t> samples_per_fn_;
  uint64_t total_samples_ = 0;
  uint64_t idle_samples_ = 0;
  uint64_t unattributed_ = 0;

  std::atomic<bool> running_{false};
  std::thread sampler_;
};

}  // namespace telemetry
}  // namespace krx

#endif  // KRX_SRC_TELEMETRY_PROFILER_H_
