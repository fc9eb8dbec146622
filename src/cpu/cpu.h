// The krx64 interpreter.
//
// Executes code out of a KernelImage through the MMU: instruction fetches
// are Exec accesses, data accesses are Read/Write accesses, so page
// permissions (with x86 semantics) apply exactly as they would on hardware.
// The CPU carries the MPX %bnd0 bounds register; bndcu raises #BR, int3
// raises a breakpoint exception (the tripwire mechanism), and translation
// failures surface as page faults. Cycle accounting follows CostModel.
//
// Instruction semantics are written once, as one opcode switch templated
// over a machine policy (src/cpu/semantics.h). Three execution engines
// retire through it (see ExecEngine): single-step, the predecoded block
// cache (the default) and the superblock engine. With the speculation
// window enabled (CpuOptions::spec) a mispredicted conditional branch also
// runs the wrong path through it, against shadow state. A step observer,
// XnR or destructive code reads force single-step.
//
// Each Cpu owns its own Mmu view (fault record, SMEP/SMAP switches) over
// the image's shared page table and physical memory, so many Cpus can
// execute concurrently on one immutable image (the parallel bench driver)
// without sharing mutable per-run state.
#ifndef KRX_SRC_CPU_CPU_H_
#define KRX_SRC_CPU_CPU_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/cpu/block_cache.h"
#include "src/cpu/cost_model.h"
#include "src/cpu/superblock/superblock.h"
#include "src/kernel/image.h"
#include "src/spec/spec.h"

namespace krx {

class QuiesceGate;

struct RFlags {
  bool zf = false;
  bool sf = false;
  bool cf = false;
  bool of = false;
  bool df = false;

  uint64_t ToBits() const {
    return (zf ? 1ULL << 6 : 0) | (sf ? 1ULL << 7 : 0) | (cf ? 1ULL << 0 : 0) |
           (of ? 1ULL << 11 : 0) | (df ? 1ULL << 10 : 0) | 0x2;  // bit1 always set
  }
  void FromBits(uint64_t v) {
    cf = v & (1ULL << 0);
    zf = v & (1ULL << 6);
    sf = v & (1ULL << 7);
    df = v & (1ULL << 10);
    of = v & (1ULL << 11);
  }
};

enum class ExceptionKind : uint8_t {
  kNone = 0,
  kPageFault,        // #PF
  kBoundRange,       // #BR (bndcu failure)
  kBreakpoint,       // int3 (tripwire)
  kInvalidOpcode,    // #UD / undecodable bytes
  kGeneralProtection,
};

const char* ExceptionKindName(ExceptionKind kind);

enum class StopReason : uint8_t {
  kReturned = 0,   // popped the harness sentinel return address
  kHalted,         // hlt
  kException,      // see exception field
  kStepLimit,
  kHostError,      // the harness could not start the run; see host_error
  kDeadlineExceeded,  // preempted: RunOptions deadline or RequestPreempt
};

const char* StopReasonName(StopReason reason);

// Dynamic instruction mix of a run — the telemetry the overhead-breakdown
// bench uses to attribute cycles to instrumentation classes.
struct InstMix {
  uint64_t loads = 0;        // explicit data loads (incl. rmw reads)
  uint64_t stores = 0;
  uint64_t alu = 0;
  uint64_t lea = 0;
  uint64_t branches = 0;     // conditional
  uint64_t jumps = 0;        // unconditional + indirect
  uint64_t calls = 0;
  uint64_t rets = 0;
  uint64_t pushpop = 0;
  uint64_t pushfq = 0;
  uint64_t popfq = 0;
  uint64_t bndcu = 0;
  uint64_t string_ops = 0;
  uint64_t other = 0;

  bool operator==(const InstMix&) const = default;
};

struct RunResult {
  StopReason reason = StopReason::kReturned;
  ExceptionKind exception = ExceptionKind::kNone;
  uint64_t fault_addr = 0;   // faulting rip or data address
  uint64_t rax = 0;          // return value when kReturned
  uint64_t instructions = 0;
  uint64_t deci_cycles = 0;  // includes mode-switch cost for CallFunction
  InstMix mix;
  // True when execution ended inside krx_handler: the SFI instrumentation
  // detected an R^X violation and stopped the machine.
  bool krx_violation = false;
  // True when the XnR baseline defense detected a data access to a
  // non-resident code page (see src/kernel/baseline_defenses.h).
  bool xnr_violation = false;
  // Populated when reason == kHostError: why the harness could not run the
  // call (bad symbol, too many arguments, unmapped stack, ...). Host-side
  // failures degrade into an error result instead of aborting the process.
  std::string host_error;

  double cycles() const { return static_cast<double>(deci_cycles) / 10.0; }
};

// Pages of each Cpu's kernel stack: 16KB, like THREAD_SIZE.
inline constexpr uint64_t kKernelStackPages = 4;

struct CpuOptions {
  bool mpx_enabled = false;  // kernel reserves %bnd0 = [_krx_edata]
  // Transient-execution window (src/spec/spec.h). Off by default; enabling
  // it makes every mispredicted conditional branch simulate a bounded wrong
  // path against shadow state, under whichever engine the run uses.
  SpecConfig spec;
};

// Default per-run retired-instruction budget (was a duplicated 2'000'000
// literal at every call site).
inline constexpr uint64_t kDefaultMaxSteps = 2'000'000;

// Which execution engine a run uses. All three retire instructions through
// the same semantics and produce bit-identical RunResults (the
// fuzz-differential engine axis pins this down); they differ only in how
// much decode/dispatch work is amortized:
//   - kSingleStep: fetch + decode + execute every retired instruction;
//   - kBlockCache (the default): predecode straight-line blocks once,
//     replay them;
//   - kSuperblock: chain predecoded blocks across static and well-predicted
//     transfers, dispatch through per-instruction handler pointers, and
//     serve in-page data accesses from an inline translation cache
//     (src/cpu/superblock/superblock.h).
// Runs that are ineligible for cached execution (step observer, XnR,
// destructive code reads) fall back to single-step regardless.
enum class ExecEngine : uint8_t { kSingleStep, kBlockCache, kSuperblock };

// Per-run knobs, shared by CallFunction and RunAt.
struct RunOptions {
  uint64_t max_steps = kDefaultMaxSteps;
  // Wall-clock budget for the run in microseconds; 0 = unbounded. A run
  // past its deadline is preempted at the next block boundary (cached) or
  // within 1024 instructions (single-step) into a kDeadlineExceeded result
  // — the supervision layer's answer to runaway-but-progressing guests.
  uint64_t deadline_us = 0;
  ExecEngine engine = ExecEngine::kBlockCache;
};

class Cpu {
 public:
  Cpu(KernelImage* image, CostModel cost = CostModel(), CpuOptions options = CpuOptions());
  // Returns the kernel stack to the image, so a Cpu must die before it.
  ~Cpu();
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  uint64_t reg(Reg r) const { return regs_[RegIndex(r)]; }
  void set_reg(Reg r, uint64_t v) { regs_[RegIndex(r)] = v; }
  RFlags& rflags() { return rflags_; }
  uint64_t rip() const { return rip_; }
  uint64_t stack_base() const { return stack_base_; }
  uint64_t stack_top() const { return stack_top_; }
  uint64_t bnd0_ub() const { return bnd0_ub_; }
  KernelImage* image() { return image_; }
  const KernelImage* image() const { return image_; }

  // This CPU's private translation context (fault record, SMEP/SMAP
  // switches) over the image's shared page table.
  Mmu& mmu() { return mmu_; }
  const Mmu& mmu() const { return mmu_; }

  // This CPU's predecoded-block cache (hit/decode telemetry for the bench
  // driver; entries are invalidated by the image's text generation).
  const BlockCache& block_cache() const { return cache_; }

  // This CPU's superblock cache (chain/fastpath/inline-TLB telemetry and
  // the per-superblock usage counters the per-function tables aggregate).
  const SuperblockCache& superblock_cache() const { return sb_cache_; }

  // Non-empty when construction failed to allocate a kernel stack; every
  // CallFunction on such a CPU returns a kHostError result.
  const std::string& init_error() const { return init_error_; }

  // Simulates a user->kernel mode switch and a call of the function at
  // `entry` with up to 6 arguments (SysV order: rdi, rsi, rdx, rcx, r8,
  // r9). Returns when the function returns to the harness sentinel.
  RunResult CallFunction(uint64_t entry, const std::vector<uint64_t>& args,
                         const RunOptions& options = RunOptions());

  RunResult CallFunction(const std::string& symbol, const std::vector<uint64_t>& args,
                         const RunOptions& options = RunOptions());

  // Raw execution starting at `rip` with current register state — the
  // primitive a hijacked control transfer gives an attacker. No mode-switch
  // cost is added and the stack is left wherever %rsp points.
  RunResult RunAt(uint64_t rip, const RunOptions& options = RunOptions());

  // Sentinel return address that terminates a CallFunction run.
  static constexpr uint64_t kReturnSentinel = 0xFFFF5E17DEAD7A80ULL;

  // Invoked after every retired instruction (when set). Used by the §5.3
  // race-hazard measurement: an arbitrarily fast attacker inspecting the
  // machine between any two instructions. Installing an observer forces
  // single-step (uncached) execution so the observer sees state at every
  // instruction boundary, exactly as without the block cache.
  void set_step_observer(std::function<void(const Cpu&)> observer) {
    step_observer_ = std::move(observer);
  }

  // Quiescence gate (src/rerand/quiesce.h): when set, every CallFunction /
  // RunAt runs inside the gate, making run boundaries the safe points the
  // re-randomization engine quiesces to. Null (the default) = ungated.
  void set_quiesce_gate(QuiesceGate* gate) { quiesce_gate_ = gate; }

  // Re-resolves the cached krx_handler extent from the symbol table. The
  // re-randomization engine calls this after an epoch moves the handler.
  void RefreshKrxHandlerRange();

  // Sampling-profiler hook (src/telemetry/profiler.h): while a slot is
  // installed the Cpu publishes its %rip with one relaxed store per retired
  // instruction; the slot is zeroed at the end of each run (idle marker).
  // The default (null) costs only this pointer test per instruction —
  // telemetry's sole per-instruction hook, see DESIGN.md §11.
  void set_sample_pc_slot(std::atomic<uint64_t>* slot) { sample_pc_slot_ = slot; }

  // Watchdog heartbeat hook (src/supervise/watchdog.h): while a slot is
  // installed the Cpu publishes its retired-instruction count with one
  // relaxed store per instruction and zeroes the slot at run end (idle
  // marker) — the same discipline and cost as the profiler slot above. A
  // nonzero, frozen heartbeat across watchdog ticks means the run's host
  // thread is wedged (lockup); an advancing one is the deadline's problem.
  void set_heartbeat_slot(std::atomic<uint64_t>* slot) { heartbeat_slot_ = slot; }

  // Cross-thread preemption: the in-flight run (the request is cleared at
  // the start of each run) stops at its next boundary with
  // StopReason::kDeadlineExceeded. Safe from any thread — this is how a
  // watchdog's hard-lockup callback unwedges a stuck Cpu.
  void RequestPreempt() { preempt_.store(true, std::memory_order_release); }

  // Side-channel observer (src/spec/spec.h): when set, physical cache
  // lines touched by wrong-path data accesses are recorded there and
  // survive window rollback — the transient adversary's evidence. The
  // observer is only consulted while options.spec.enabled.
  void set_side_channel_observer(SideChannelObserver* observer) {
    side_channel_ = observer;
  }

  // Cumulative speculation counters (never reset; deltas are published to
  // the metrics registry at run end as spec.*).
  const SpecStats& spec_stats() const { return spec_stats_; }

  // The trainable branch predictor persists across runs on this Cpu —
  // that persistence is what lets an attacker train a victim's branch with
  // benign calls and then steer the mispredicted path.
  BranchPredictor& predictor() { return predictor_; }

  // Architectural state snapshot for checkpoint/restore
  // (src/supervise/checkpoint.h). Memory lives in the image; this is only
  // the per-Cpu register file.
  struct ArchState {
    uint64_t regs[kNumGpRegs] = {};
    uint64_t rip = 0;
    uint64_t rflags = 0;
    uint64_t bnd0_ub = 0;
  };
  ArchState SaveArch() const {
    ArchState s;
    for (int i = 0; i < kNumGpRegs; ++i) s.regs[i] = regs_[i];
    s.rip = rip_;
    s.rflags = rflags_.ToBits();
    s.bnd0_ub = bnd0_ub_;
    return s;
  }
  void RestoreArch(const ArchState& s) {
    for (int i = 0; i < kNumGpRegs; ++i) regs_[i] = s.regs[i];
    rip_ = s.rip;
    rflags_.FromBits(s.rflags);
    bnd0_ub_ = s.bnd0_ub;
  }

 private:
  // Machine policies of the shared opcode switch (src/cpu/semantics.h),
  // nested so they reach the Cpu's private execution state: the
  // architectural machine, the speculation window's shadow machine, and
  // the superblock handlers (src/cpu/superblock/sb_exec.cc).
  struct ArchMachine;
  struct TransientMachine;
  struct SbOps;

  RunResult CallFunctionImpl(uint64_t entry, const std::vector<uint64_t>& args,
                             const RunOptions& options);
  RunResult Run(const RunOptions& options, bool entered_via_call);
  RunResult RunInner(const RunOptions& options, bool entered_via_call);
  RunResult RunCached();
  // Superblock engine: chained dispatch loop and chain construction
  // (src/cpu/superblock/sb_exec.cc).
  RunResult RunSuperblocked();
  Superblock BuildSuperblock(uint64_t entry);
  // Run-end metrics/events: run + trap counters, block-cache stat deltas.
  void PublishRunTelemetry(const RunResult& result);
  // Executes one instruction the canonical way (fetch + decode + execute);
  // returns false if execution must stop (fills pending_).
  bool Step();
  // The fetch+decode half of Step (XnR-fault-servicing included).
  bool FetchDecode(Instruction* inst, uint8_t* inst_size);
  // The execute half: retires one decoded instruction at the current %rip.
  bool ExecuteInst(const Instruction& in, uint8_t inst_size);
  // Predecodes the straight-line block starting at `start` (may be empty).
  DecodedBlock BuildBlock(uint64_t start);

  bool DataRead64(uint64_t vaddr, uint64_t* value);
  bool DataWrite64(uint64_t vaddr, uint64_t value);
  void RaiseException(ExceptionKind kind, uint64_t addr);
  // Preempt request pending, or (when armed, sampled every 1024th step) the
  // run's wall-clock deadline passed.
  bool PreemptDue(uint64_t step);

  // The speculation hook of a retiring conditional branch (spec enabled):
  // predict, open a window on a misprediction, train the predictor.
  void PredictBranch(uint64_t rip, bool taken, uint64_t taken_rip, uint64_t fallthrough_rip);
  // Transient execution: simulates the wrong path starting at `wrong_rip`
  // against shadow register/memory state for up to spec.window_depth
  // instructions, recording touched data lines into the observer, then
  // discards everything. Architectural state is untouched by construction.
  void SpeculateWrongPath(uint64_t wrong_rip);

  KernelImage* image_;
  Mmu mmu_;
  CostModel cost_;
  CpuOptions options_;

  uint64_t regs_[kNumGpRegs] = {};
  uint64_t rip_ = 0;
  RFlags rflags_;
  uint64_t bnd0_ub_ = ~0ULL;

  uint64_t stack_base_ = 0;  // lowest address
  uint64_t stack_top_ = 0;   // initial %rsp

  // Run bookkeeping.
  RunResult pending_;
  bool stopped_ = false;
  uint64_t max_steps_ = 0;  // current run's budget; also bounds rep iterations
  std::string init_error_;
  uint64_t krx_handler_lo_ = 0;
  uint64_t krx_handler_hi_ = 0;
  std::function<void(const Cpu&)> step_observer_;
  QuiesceGate* quiesce_gate_ = nullptr;
  std::atomic<uint64_t>* sample_pc_slot_ = nullptr;
  std::atomic<uint64_t>* heartbeat_slot_ = nullptr;
  std::atomic<bool> preempt_{false};
  bool deadline_armed_ = false;  // current run only
  std::chrono::steady_clock::time_point deadline_{};
  BlockCache cache_;
  // Block-cache stats already published to the metrics registry; the
  // per-run delta is what gets added (stats are cumulative per Cpu).
  BlockCacheStats published_cache_stats_;
  SuperblockCache sb_cache_;
  // The superblock the dispatch loop is currently walking — the handlers'
  // route to its inline TLB. Null outside RunSuperblocked.
  Superblock* sb_current_ = nullptr;
  // Same published-delta discipline as the block-cache stats above.
  SuperblockStats published_sb_stats_;

  // Transient-execution engine state (src/spec). The predictor and stats
  // are cumulative per Cpu; the observer is externally owned.
  BranchPredictor predictor_;
  SideChannelObserver* side_channel_ = nullptr;
  SpecStats spec_stats_;
  SpecStats published_spec_stats_;
};

}  // namespace krx

#endif  // KRX_SRC_CPU_CPU_H_
