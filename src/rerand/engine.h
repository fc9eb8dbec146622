// RerandEngine: epoch-based live re-randomization of a compiled kernel.
//
// Each epoch — triggered manually, by a timer tick, by an oops, or by a
// disclosure-detector signal — runs entirely under the quiescence gate:
//
//   quiesce -> relayout -> patch text -> rotate xkeys -> rewrite stacks
//           -> patch data pointers -> patch module relocs -> verify
//
// On any failure the epoch rolls back atomically (byte-level write journal
// replayed in reverse, symbol addresses and layout bookkeeping restored),
// reusing the module loader's transactional discipline; set_failpoint()
// lets the fault campaign interpose a failure before any step. A completed
// epoch bumps the image's text generation (every predecoded block cache
// drops its entries), refreshes the registered Cpus' cached krx_handler
// range, and — unless disabled — re-proves the full src/verify check matrix
// on the post-epoch bytes before execution resumes.
//
// Threading contract: RunEpoch may be called from any thread that is NOT
// currently inside a run on a gate-registered Cpu (self-deadlock otherwise);
// concurrent RunEpoch calls serialize. Safe points are run boundaries only —
// a suspended RunAt continuation across an epoch is unsupported.
#ifndef KRX_SRC_RERAND_ENGINE_H_
#define KRX_SRC_RERAND_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/kernel/module_loader.h"
#include "src/plugin/pipeline.h"
#include "src/rerand/quiesce.h"
#include "src/rerand/rerand_map.h"
#include "src/supervise/clock.h"
#include "src/supervise/retry.h"

namespace krx {

class Cpu;

enum class RerandTrigger : uint8_t { kManual = 0, kTimer, kOops, kDisclosure };
const char* RerandTriggerName(RerandTrigger trigger);

// The interposable steps of an epoch, in execution order. A failpoint set to
// one of these makes the next epoch fail *before* that step runs (sticky
// until clear_failpoint), mirroring ModuleLoadStep.
enum class RerandStep : uint8_t {
  kQuiesce = 0,     // drain all gated Cpus to their run boundaries
  kRelayout,        // draw the new function permutation + front gap
  kPatchText,       // rebuild .text from pristine bytes at the new layout
  kRotateKeys,      // overwrite every xkey slot with a fresh key
  kRewriteStacks,   // re-encrypt in-flight return addresses, move code ptrs
  kPatchPointers,   // retained PtrInit sites in kernel data objects
  kPatchModules,    // retained module text/data relocations
  kVerify,          // re-prove the src/verify matrix on the new image
  kNumSteps,
};
const char* RerandStepName(RerandStep step);

struct RerandOptions {
  uint64_t seed = 0x43A0C4;
  bool permute = true;        // re-permute function layout
  bool rotate_xkeys = true;   // rotate return-address keys
  bool verify_after = true;   // run src/verify on the post-epoch image
  // Bound on the kQuiesce drain, in milliseconds; 0 = wait indefinitely.
  // A timed-out quiesce aborts the epoch (counted in epoch_failures(),
  // nothing journaled yet so nothing to roll back) instead of wedging the
  // epoch thread behind a stuck reader.
  uint64_t quiesce_timeout_ms = 0;
};

// What one completed epoch did (the bench and tests read these).
struct EpochReport {
  uint64_t epoch = 0;  // 1-based ordinal of this completed epoch
  RerandTrigger trigger = RerandTrigger::kManual;
  uint64_t functions_moved = 0;
  uint64_t front_gap = 0;            // random int3 gap before the first function
  uint64_t keys_rotated = 0;
  uint64_t stack_words_scanned = 0;
  uint64_t stack_words_rewritten = 0;
  uint64_t ptr_sites_patched = 0;
  uint64_t ptr_sites_skipped = 0;    // guest overwrote the slot; left alone
  uint64_t module_sites_patched = 0;
  double quiesce_wait_ms = 0;        // time draining in-flight runs
  double stw_ms = 0;                 // total stop-the-world time
  bool verified = false;
};

class RerandEngine {
 public:
  // `kernel` must outlive the engine and carry a finalized RerandMap
  // (CompileKernel attaches one to every build).
  RerandEngine(CompiledKernel* kernel, RerandOptions options = RerandOptions());
  ~RerandEngine();

  // The gate Cpus must run under to participate in quiescence. RegisterCpu
  // wires a Cpu to it and records it for post-epoch cache refreshes.
  QuiesceGate& gate() { return gate_; }
  void RegisterCpu(Cpu* cpu);

  // Live stack ranges to walk during kRewriteStacks, each [lo, hi) in bytes.
  // The provider is consulted at epoch time (workloads report their
  // suspended-task stacks, e.g. SchedLiveStackRanges).
  using StackRangeProvider =
      std::function<Result<std::vector<std::pair<uint64_t, uint64_t>>>(const KernelImage&)>;
  void set_stack_range_provider(StackRangeProvider provider) {
    stack_ranges_provider_ = std::move(provider);
  }

  // Modules whose retained relocations are re-patched each epoch.
  void set_module_loader(ModuleLoader* loader) { module_loader_ = loader; }

  // Fault injection: the next epochs fail just before `step` (sticky).
  void set_failpoint(RerandStep step) { failpoint_ = static_cast<int>(step); }
  void clear_failpoint() { failpoint_ = -1; }

  // Runs one epoch to completion (or full rollback). Thread-safe.
  Result<EpochReport> RunEpoch(RerandTrigger trigger = RerandTrigger::kManual);

  // Retry wrapper around epoch commits: re-attempts per the configured
  // policy (set_retry_policy; without one this is plain RunEpoch). Each
  // failed attempt still rolls back fully and counts in epoch_failures().
  Result<EpochReport> RunEpochWithRetry(RerandTrigger trigger = RerandTrigger::kManual);
  void set_retry_policy(RetryPolicy policy) {
    retry_policy_ = std::move(policy);
    has_retry_policy_ = true;
  }

  // Periodic epochs from a background thread. StopTimer (and the
  // destructor) joins the thread; a tick whose epoch fails only counts
  // epoch_failures() — the timer keeps running. Ticks go through the
  // retry policy when one is set. `clock` (null = RealClock()) is the tick
  // time source; tests inject a FakeClock and Advance() it, making
  // timer-trigger tests deterministic instead of sleep-based.
  void StartTimer(std::chrono::milliseconds period, Clock* clock = nullptr);
  void StopTimer();

  uint64_t epochs_completed() const { return epochs_completed_.load(std::memory_order_acquire); }
  uint64_t epoch_failures() const { return epoch_failures_.load(std::memory_order_acquire); }
  // Only stable when no epoch can be in flight (timer stopped / same thread).
  const EpochReport& last_report() const { return last_report_; }
  const RerandMap& map() const { return *map_; }

 private:
  struct Journal;
  struct Layout;
  struct Epoch;

  // Runs the steps in RerandStep order from one table; a failed step (or
  // a failpoint before it) rolls the epoch back.
  Status DoEpoch(EpochReport* report);
  Status CheckFailpoint(RerandStep step);
  // The steps, one per RerandStep, sharing the epoch's state.
  Status Quiesce(Epoch& e);
  Status Relayout(Epoch& e);
  Status PatchText(Epoch& e);
  Status RotateKeys(Epoch& e);
  Status RewriteStacks(Epoch& e);
  Status PatchPointers(Epoch& e);
  Status PatchModules(Epoch& e);
  Status Verify(Epoch& e);
  void Rollback(const Epoch& e);

  CompiledKernel* kernel_;
  RerandMap* map_;
  RerandOptions options_;
  Rng rng_;
  QuiesceGate gate_;
  std::vector<Cpu*> cpus_;
  ModuleLoader* module_loader_ = nullptr;
  StackRangeProvider stack_ranges_provider_;

  std::mutex epoch_mu_;  // serializes epochs (timer tick vs manual call)
  RetryPolicy retry_policy_;
  bool has_retry_policy_ = false;
  int failpoint_ = -1;
  std::atomic<uint64_t> epochs_completed_{0};
  std::atomic<uint64_t> epoch_failures_{0};
  EpochReport last_report_;

  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::thread timer_thread_;
  bool timer_stop_ = false;
};

}  // namespace krx

#endif  // KRX_SRC_RERAND_ENGINE_H_
