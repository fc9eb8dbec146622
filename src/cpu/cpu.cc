#include "src/cpu/cpu.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "src/cpu/semantics.h"
#include "src/isa/encoding.h"
#include "src/kernel/baseline_defenses.h"
#include "src/rerand/quiesce.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace krx {

namespace {
// Cap on predecoded-block length. Straight-line runs longer than this are
// split into consecutive blocks; correctness is unaffected.
constexpr size_t kMaxBlockInsts = 64;
}  // namespace

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kReturned: return "returned";
    case StopReason::kHalted: return "halted";
    case StopReason::kException: return "exception";
    case StopReason::kStepLimit: return "step-limit";
    case StopReason::kHostError: return "host-error";
    case StopReason::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "??";
}

const char* ExceptionKindName(ExceptionKind kind) {
  switch (kind) {
    case ExceptionKind::kNone: return "none";
    case ExceptionKind::kPageFault: return "#PF";
    case ExceptionKind::kBoundRange: return "#BR";
    case ExceptionKind::kBreakpoint: return "#BP(int3)";
    case ExceptionKind::kInvalidOpcode: return "#UD";
    case ExceptionKind::kGeneralProtection: return "#GP";
  }
  return "??";
}

Cpu::Cpu(KernelImage* image, CostModel cost, CpuOptions options)
    : image_(image),
      mmu_(&image->phys(), &image->page_table()),
      cost_(cost),
      options_(options) {
  auto stack = image_->AllocDataPages(kKernelStackPages);
  if (!stack.ok()) {
    // Degrade instead of aborting the host: the failure surfaces as a
    // kHostError result on the first CallFunction.
    init_error_ = "kernel stack allocation failed: " + stack.status().ToString();
  } else {
    stack_base_ = *stack;
    stack_top_ = stack_base_ + kKernelStackPages * kPageSize;
  }

  RefreshKrxHandlerRange();
}

Cpu::~Cpu() {
  if (stack_base_ != 0) {
    image_->FreeDataPages(stack_base_, kKernelStackPages);
  }
}

void Cpu::RefreshKrxHandlerRange() {
  int32_t h = image_->symbols().Find(kKrxHandlerName);
  if (h >= 0 && image_->symbols().at(h).defined) {
    krx_handler_lo_ = image_->symbols().at(h).address;
    krx_handler_hi_ = krx_handler_lo_ + std::max<uint64_t>(image_->symbols().at(h).size, 1);
  }
}

bool Cpu::DataRead64(uint64_t vaddr, uint64_t* value) {
  auto v = mmu_.Read64(vaddr);
  if (v.ok() && image_->destructive_code_reads()) {
    // Heisenbyte baseline (§8): a successful data read of executable bytes
    // destroys them in place, so disclosed gadgets crash when reused. Every
    // present, non-NX byte is smashed in its instruction frame, whatever
    // SMEP says.
    for (uint64_t i = 0; i < 8; ++i) {
      const Translation t = mmu_.Walk(vaddr + i, Access::kExec);
      if (t.ok() || t.fault == FaultKind::kSmepViolation) {
        image_->phys().Write8(t.paddr, 0xD7);
      }
    }
  }
  if (!v.ok()) {
    // XnR baseline: a data access faulting on a protected code page is a
    // detected disclosure attempt — the #PF handler terminates.
    if (image_->xnr() != nullptr && image_->xnr()->IsDisclosureAttempt(vaddr)) {
      pending_.xnr_violation = true;
    }
    RaiseException(ExceptionKind::kPageFault, vaddr);
    return false;
  }
  *value = *v;
  return true;
}

bool Cpu::DataWrite64(uint64_t vaddr, uint64_t value) {
  const Result<StoreFrames> wrote = mmu_.Write64(vaddr, value);
  if (!wrote.ok()) {
    RaiseException(ExceptionKind::kPageFault, vaddr);
    return false;
  }
  // Self-modifying code: a guest store that wrote a frame backing
  // executable pages (e.g. through a writable physmap synonym under the
  // vanilla layout) invalidates any predecode of those bytes — in this CPU
  // and in every other CPU sharing the image.
  if (image_->FrameIsCode(wrote->first) ||
      (wrote->last != wrote->first && image_->FrameIsCode(wrote->last))) {
    image_->BumpTextGeneration();
  }
  return true;
}

void Cpu::RaiseException(ExceptionKind kind, uint64_t addr) {
  pending_.reason = StopReason::kException;
  pending_.exception = kind;
  pending_.fault_addr = addr;
  stopped_ = true;
}

bool Cpu::FetchDecode(Instruction* inst, uint8_t* inst_size) {
  // Fetch + decode, servicing XnR instruction-fetch faults: both for the
  // page at %rip and for the next page when an instruction straddles the
  // boundary (a partial fetch that truncates the decode).
  uint8_t buf[16];
  for (int attempt = 0;; ++attempt) {
    if (attempt > 2) {
      RaiseException(ExceptionKind::kPageFault, rip_);
      return false;
    }
    auto fetched = mmu_.FetchCode(rip_, buf, sizeof(buf));
    if (!fetched.ok()) {
      if (image_->xnr() != nullptr && image_->xnr()->HandleFetchFault(rip_)) {
        continue;  // serviced; retry
      }
      RaiseException(ExceptionKind::kPageFault, rip_);
      return false;
    }
    auto dec = DecodeInstruction(buf, *fetched, 0);
    if (!dec.ok()) {
      if (dec.status().code() == StatusCode::kOutOfRange && *fetched < sizeof(buf)) {
        // Truncated by an unmapped boundary: the fetch of the *next* page
        // is what faults.
        uint64_t next_page = rip_ + *fetched;
        if (image_->xnr() != nullptr && image_->xnr()->HandleFetchFault(next_page)) {
          continue;
        }
        RaiseException(ExceptionKind::kPageFault, next_page);
        return false;
      }
      RaiseException(ExceptionKind::kInvalidOpcode, rip_);
      return false;
    }
    *inst = dec->inst;
    *inst_size = dec->size;
    return true;
  }
}

bool Cpu::ExecuteInst(const Instruction& in, uint8_t inst_size) {
  ArchMachine m{*this};
  m.Account(in.op, cost_.CostOf(in));
  ExecuteOp(m, in.op, in, rip_, rip_ + inst_size);
  if (!m.Retire()) {
    return false;
  }
  if (step_observer_) {
    step_observer_(*this);
  }
  return true;
}

void Cpu::PredictBranch(uint64_t rip, bool taken, uint64_t taken_rip,
                        uint64_t fallthrough_rip) {
  ++spec_stats_.predictions;
  const bool predicted = predictor_.PredictTaken(rip);
  if (predicted != taken) {
    // Misprediction: the frontend already steered down the wrong path.
    // Simulate it against shadow state up to the window depth, then
    // discard everything but the cache footprint.
    ++spec_stats_.mispredictions;
    SpeculateWrongPath(predicted ? taken_rip : fallthrough_rip);
  }
  predictor_.Update(rip, taken);
}

// The speculation window's machine. Wrong-path execution sees the
// architectural state at the branch, copied into shadow registers, flags
// and %bnd0, plus its own stores through an overlay (a model of the store
// buffer, never drained to memory). Semantics that differ from the
// architectural machine:
//  - data accesses go through Mmu::Walk and read physical memory
//    directly, bypassing Mmu::Read64 (no fault record, no
//    destructive-code-read byte-smashing, no XnR disclosure handling);
//    every touched data line goes to the observer;
//  - faults (unmapped or forbidden translations) end the window silently;
//  - nested conditional branches follow the predictor (the machine is
//    already speculating, so it speculates again) and consume window depth
//    without rollback;
//  - a failing bndcu defers its #BR past the window instead of trapping —
//    the dependent load still issues (the MPX transient bypass).
struct Cpu::TransientMachine {
  Cpu& c;
  uint64_t regs[kNumGpRegs] = {};
  RFlags flags;
  uint64_t bnd0;
  std::unordered_map<uint64_t, uint64_t> overlay;
  uint64_t next = 0;
  bool ended = false;  // the current instruction ended the window

  explicit TransientMachine(Cpu& cpu) : c(cpu), flags(cpu.rflags_), bnd0(cpu.bnd0_ub_) {
    for (int i = 0; i < kNumGpRegs; ++i) regs[i] = cpu.regs_[i];
  }

  uint64_t& R(Reg r) { return regs[RegIndex(r)]; }
  RFlags& Flags() { return flags; }
  uint64_t& Bnd0() { return bnd0; }

  bool Read(uint64_t vaddr, uint64_t* value) {
    const Translation lo = c.mmu_.Walk(vaddr, Access::kRead);
    if (!lo.ok()) {
      return Fault();
    }
    // The first `n` bytes sit on lo's page; only a load that crosses into
    // the next page walks it, for its last byte's address.
    const uint64_t n = kPageSize - PageOffset(vaddr);
    uint64_t last = lo.paddr + 7;
    if (n < 8) {
      const Translation hi = c.mmu_.Walk(vaddr + 7, Access::kRead);
      if (!hi.ok()) {
        return Fault();
      }
      last = hi.paddr;
    }
    Touch(lo.paddr);
    Touch(last);
    if (auto it = overlay.find(vaddr); it != overlay.end()) {
      *value = it->second;
      return true;
    }
    const PhysMem& phys = c.image_->phys();
    if (n >= 8) {
      *value = phys.Read64(lo.paddr);
      return true;
    }
    uint64_t v = 0;
    for (uint64_t i = 0; i < 8; ++i) {
      const uint64_t p = i < n ? lo.paddr + i : last - (7 - i);
      v |= static_cast<uint64_t>(phys.Read8(p)) << (8 * i);
    }
    *value = v;
    return true;
  }

  // Wrong-path stores go to the store buffer, never to memory, so they take
  // the read walk (present, SMAP) and no write-protect check.
  bool Write(uint64_t vaddr, uint64_t value) {
    const Translation t = c.mmu_.Walk(vaddr, Access::kRead);
    if (!t.ok()) {
      return Fault();
    }
    Touch(t.paddr);
    overlay[vaddr] = value;
    return true;
  }

  void Jump(uint64_t target) { next = target; }

  bool Branch(Cond, uint64_t rip, uint64_t, uint64_t) {
    ++c.spec_stats_.nested_branches;
    return c.predictor_.PredictTaken(rip);
  }

  // The #BR is deferred to retirement — which never comes for a wrong-path
  // instruction.
  void BoundRange(uint64_t) { ++c.spec_stats_.transient_br_deferred; }

  // The window ends before serializing and string ops (EndsWindow), so
  // these only guard against an opcode slipping past that filter.
  void Trap(ExceptionKind, uint64_t) { ended = true; }
  void Halt() { ended = true; }
  bool StringIter(uint64_t) {
    ended = true;
    return false;
  }

  // Wrong-path instruction fetch of up to 16 bytes, a page at a time:
  // present, executable, SMEP-permitted pages only, from the instruction
  // frame (not the HideM data frame), leaving no I-cache record — the
  // observer models the D-side channel only.
  size_t Fetch(uint64_t vaddr, uint8_t* buf) const {
    uint64_t n = 0;
    while (n < 16) {
      const Translation t = c.mmu_.Walk(vaddr + n, Access::kExec);
      if (!t.ok()) {
        break;
      }
      const uint64_t len = std::min<uint64_t>(16 - n, kPageSize - PageOffset(vaddr + n));
      c.image_->phys().ReadBytes(t.paddr, buf + n, len);
      n += len;
    }
    return n;
  }

 private:
  void Touch(uint64_t paddr) {
    if (c.side_channel_ != nullptr) {
      c.side_channel_->Touch(paddr);
    }
    ++c.spec_stats_.lines_touched;
  }

  bool Fault() {
    ++c.spec_stats_.transient_faults;
    ended = true;
    return false;
  }
};

namespace {

// Serializing, privileged and microcoded ops end a speculation window
// before they execute.
bool EndsWindow(Opcode op) {
  const OpcodeInfo& info = OpcodeInfoOf(op);
  return info.flow == Flow::kTrap || info.flow == Flow::kHalt ||
         info.Has(OpcodeInfo::kPrivileged | OpcodeInfo::kString);
}

}  // namespace

// Simulates the wrong path of a mispredicted conditional branch through the
// shared semantics on a TransientMachine. The only effects that survive
// are the SideChannelObserver's cache-line records and the spec.* counters.
// Accounting deliberately never touches pending_: a run with the window
// enabled must produce a RunResult bit-identical to the same run with it
// disabled (the fuzz-differential spec axis pins this down).
void Cpu::SpeculateWrongPath(uint64_t wrong_rip) {
  ++spec_stats_.windows_opened;
  TransientMachine m(*this);
  uint64_t rip = wrong_rip;
  for (uint32_t depth = 0; depth < options_.spec.window_depth; ++depth) {
    if (rip == kReturnSentinel) {
      break;  // the wrong path speculated out of the kernel
    }
    uint8_t buf[16] = {};
    const size_t fetched = m.Fetch(rip, buf);
    auto dec = DecodeInstruction(buf, fetched, 0);
    if (fetched == 0 || !dec.ok()) {
      ++spec_stats_.transient_faults;  // undecodable bytes end it silently
      break;
    }
    const Instruction& in = dec->inst;
    ++spec_stats_.wrong_path_insts;
    if (in.op == Opcode::kSpecFence) {
      ++spec_stats_.fence_kills;  // that IS the spec-barrier mitigation
      break;
    }
    if (EndsWindow(in.op)) {
      break;
    }
    ExecuteOp(m, in.op, in, rip, rip + dec->size);
    if (m.ended) {
      break;
    }
    rip = m.next;
  }
  // Rollback: the shadow machine and its store overlay are simply dropped.
}

bool Cpu::Step() {
  if (krx_handler_lo_ != 0 && rip_ >= krx_handler_lo_ && rip_ < krx_handler_hi_) {
    pending_.krx_violation = true;
  }
  Instruction in;
  uint8_t inst_size = 0;
  if (!FetchDecode(&in, &inst_size)) {
    return false;
  }
  return ExecuteInst(in, inst_size);
}

DecodedBlock Cpu::BuildBlock(uint64_t start) {
  DecodedBlock block;
  block.start = start;
  uint64_t rip = start;
  uint8_t buf[16];
  while (block.insts.size() < kMaxBlockInsts) {
    auto fetched = mmu_.FetchCode(rip, buf, sizeof(buf));
    if (!fetched.ok()) {
      break;
    }
    auto dec = DecodeInstruction(buf, *fetched, 0);
    if (!dec.ok()) {
      // Undecodable (or truncated-at-unmapped-boundary) bytes terminate the
      // block; execution reaching this %rip falls back to the canonical
      // single-step path, which raises the identical exception.
      break;
    }
    block.insts.push_back(PredecodedInst{dec->inst, dec->size});
    if (EndsBlock(dec->inst.op)) {
      break;
    }
    rip += dec->size;
  }
  return block;
}

bool Cpu::PreemptDue(uint64_t step) {
  if (preempt_.load(std::memory_order_acquire)) {
    return true;
  }
  return deadline_armed_ && (step & 1023) == 0 &&
         std::chrono::steady_clock::now() >= deadline_;
}

RunResult Cpu::RunCached() {
  uint64_t steps = 0;
  while (steps < max_steps_) {
    if (PreemptDue(0)) {  // block boundary: preempt + deadline check
      pending_.reason = StopReason::kDeadlineExceeded;
      return pending_;
    }
    const uint64_t generation = image_->text_generation();
    const DecodedBlock* block = cache_.Lookup(rip_, generation);
    const bool replaying = block != nullptr;
    if (block == nullptr) {
      DecodedBlock built = BuildBlock(rip_);
      if (built.insts.empty()) {
        // Unfetchable or undecodable bytes at %rip: take the canonical
        // single-step path so the fault surfaces exactly as uncached.
        if (!Step()) {
          return pending_;
        }
        ++steps;
        continue;
      }
      block = cache_.Insert(std::move(built));
    }
    uint64_t executed = 0;
    bool stop = false;
    for (const PredecodedInst& pi : block->insts) {
      if (steps >= max_steps_) {
        break;
      }
      if (krx_handler_lo_ != 0 && rip_ >= krx_handler_lo_ && rip_ < krx_handler_hi_) {
        pending_.krx_violation = true;
      }
      ++steps;
      ++executed;
      if (!ExecuteInst(pi.inst, pi.size)) {
        stop = true;
        break;
      }
      // A store into the code region (self-modifying code through a synonym,
      // a module load triggered by the run, ...) bumped the image's text
      // generation: the rest of this predecode is stale, re-decode at %rip.
      if (image_->text_generation() != generation) {
        break;
      }
    }
    if (replaying) {
      cache_.CountReplayed(executed);
    }
    if (stop) {
      return pending_;
    }
  }
  pending_.reason = StopReason::kStepLimit;
  return pending_;
}

RunResult Cpu::Run(const RunOptions& options, bool entered_via_call) {
  KRX_TRACE_SPAN_SCOPED("cpu.run");
  RunResult result = RunInner(options, entered_via_call);
  if (sample_pc_slot_ != nullptr) {
    // Idle marker: between runs the profiler must not re-attribute the last
    // guest %rip of a finished run.
    sample_pc_slot_->store(0, std::memory_order_relaxed);
  }
  if (heartbeat_slot_ != nullptr) {
    // Idle marker: the watchdog must not report a lockup between runs.
    heartbeat_slot_->store(0, std::memory_order_relaxed);
  }
  PublishRunTelemetry(result);
  return result;
}

void Cpu::PublishRunTelemetry(const RunResult& result) {
  // Per-run speculation deltas (stats are cumulative per Cpu, like the
  // block-cache counters). Computed up front: both the metrics and trace
  // branches consume them.
  const uint64_t spec_windows_delta =
      spec_stats_.windows_opened - published_spec_stats_.windows_opened;
  const uint64_t spec_wrong_delta =
      spec_stats_.wrong_path_insts - published_spec_stats_.wrong_path_insts;
  if (telemetry::MetricsEnabled()) {
    KRX_COUNTER_ADD("cpu.runs", 1);
    KRX_COUNTER_ADD("cpu.instructions", result.instructions);
    KRX_COUNTER_ADD("cpu.checks.bndcu", result.mix.bndcu);
    if (result.reason == StopReason::kException) {
      telemetry::MetricsRegistry::Global()
          .GetCounter(std::string("cpu.trap.") + ExceptionKindName(result.exception))
          .Increment();
    }
    if (result.krx_violation) {
      KRX_COUNTER_ADD("cpu.krx_violations", 1);
    }
    if (result.xnr_violation) {
      KRX_COUNTER_ADD("cpu.xnr_violations", 1);
    }
    if (result.reason == StopReason::kDeadlineExceeded) {
      KRX_COUNTER_ADD("cpu.deadline_exceeded", 1);
    }
    const BlockCacheStats& s = cache_.stats();
    KRX_COUNTER_ADD("cpu.block_cache.hits", s.hits - published_cache_stats_.hits);
    KRX_COUNTER_ADD("cpu.block_cache.misses", s.misses - published_cache_stats_.misses);
    KRX_COUNTER_ADD("cpu.block_cache.flushes", s.flushes - published_cache_stats_.flushes);
    KRX_COUNTER_ADD("cpu.block_cache.decoded_insts",
                    s.decoded_insts - published_cache_stats_.decoded_insts);
    KRX_COUNTER_ADD("cpu.block_cache.replayed_insts",
                    s.replayed_insts - published_cache_stats_.replayed_insts);
    published_cache_stats_ = s;
    const SuperblockStats& sb = sb_cache_.stats();
    KRX_COUNTER_ADD("sb.chains_built", sb.chains_built - published_sb_stats_.chains_built);
    KRX_COUNTER_ADD("sb.blocks_chained",
                    sb.blocks_chained - published_sb_stats_.blocks_chained);
    KRX_COUNTER_ADD("sb.predecoded_insts",
                    sb.predecoded_insts - published_sb_stats_.predecoded_insts);
    KRX_COUNTER_ADD("sb.entries", sb.entries - published_sb_stats_.entries);
    KRX_COUNTER_ADD("sb.chain_breaks", sb.chain_breaks - published_sb_stats_.chain_breaks);
    KRX_COUNTER_ADD("sb.flushes", sb.flushes - published_sb_stats_.flushes);
    KRX_COUNTER_ADD("sb.executed_insts",
                    sb.executed_insts - published_sb_stats_.executed_insts);
    KRX_COUNTER_ADD("sb.fastpath_insts",
                    sb.fastpath_insts - published_sb_stats_.fastpath_insts);
    KRX_COUNTER_ADD("sb.tlb_hits", sb.tlb_hits - published_sb_stats_.tlb_hits);
    KRX_COUNTER_ADD("sb.tlb_misses", sb.tlb_misses - published_sb_stats_.tlb_misses);
    published_sb_stats_ = sb;
    if (options_.spec.enabled) {
      const SpecStats& sp = spec_stats_;
      KRX_COUNTER_ADD("spec.predictions",
                      sp.predictions - published_spec_stats_.predictions);
      KRX_COUNTER_ADD("spec.mispredictions",
                      sp.mispredictions - published_spec_stats_.mispredictions);
      KRX_COUNTER_ADD("spec.windows", spec_windows_delta);
      KRX_COUNTER_ADD("spec.wrong_path_insts", spec_wrong_delta);
      KRX_COUNTER_ADD("spec.nested_branches",
                      sp.nested_branches - published_spec_stats_.nested_branches);
      KRX_COUNTER_ADD("spec.fence_kills",
                      sp.fence_kills - published_spec_stats_.fence_kills);
      KRX_COUNTER_ADD("spec.transient_br_deferred",
                      sp.transient_br_deferred - published_spec_stats_.transient_br_deferred);
      KRX_COUNTER_ADD("spec.transient_faults",
                      sp.transient_faults - published_spec_stats_.transient_faults);
      KRX_COUNTER_ADD("spec.lines_touched",
                      sp.lines_touched - published_spec_stats_.lines_touched);
      published_spec_stats_ = sp;
    }
  }
  if (telemetry::TraceEnabled()) {
    if (options_.spec.enabled && spec_windows_delta > 0) {
      // One aggregated misspeculation span per run — the per-instruction
      // discipline (DESIGN.md §11) rules out per-window events.
      telemetry::EmitEvent(telemetry::TraceEventType::kSpecWindow, "spec_windows",
                           spec_windows_delta, spec_wrong_delta);
    }
    if (result.reason == StopReason::kException) {
      telemetry::EmitEvent(telemetry::TraceEventType::kCpuTrap,
                           ExceptionKindName(result.exception),
                           static_cast<uint64_t>(result.exception), result.fault_addr);
    }
    if (result.krx_violation) {
      telemetry::EmitEvent(telemetry::TraceEventType::kKrxViolation, "krx_violation",
                           result.fault_addr, 0);
    }
    telemetry::EmitEvent(telemetry::TraceEventType::kCheckOutcome, "run_checks",
                         result.mix.bndcu, result.mix.loads);
  }
}

RunResult Cpu::RunInner(const RunOptions& options, bool entered_via_call) {
  pending_ = RunResult();
  stopped_ = false;
  max_steps_ = options.max_steps;
  // A preempt request targets the in-flight run; one landing between runs
  // must not kill the next run before it starts.
  preempt_.store(false, std::memory_order_release);
  deadline_armed_ = options.deadline_us > 0;
  if (deadline_armed_) {
    deadline_ = std::chrono::steady_clock::now() + std::chrono::microseconds(options.deadline_us);
  }
  // CallFunction is a simulated syscall entry and pays the user->kernel
  // mode switch; RunAt is a hijacked raw control transfer and does not.
  if (entered_via_call) {
    pending_.deci_cycles += cost_.mode_switch;
    if (options_.mpx_enabled) {
      pending_.deci_cycles += cost_.mpx_mode_switch_extra;
    }
  }
  // The step observer must fire at every single-stepped instruction
  // boundary; XnR turns fetch faults into the defense mechanism itself; and
  // destructive code reads mutate text bytes without a paging event. All
  // three force the canonical fetch-decode-execute path, whichever engine
  // the run asked for.
  const bool cacheable = step_observer_ == nullptr && image_->xnr() == nullptr &&
                         !image_->destructive_code_reads();
  const ExecEngine engine = cacheable ? options.engine : ExecEngine::kSingleStep;
  if (engine == ExecEngine::kSuperblock) {
    return RunSuperblocked();
  }
  if (engine == ExecEngine::kBlockCache) {
    return RunCached();
  }
  for (uint64_t i = 0; i < max_steps_; ++i) {
    if (PreemptDue(i)) {
      pending_.reason = StopReason::kDeadlineExceeded;
      return pending_;
    }
    if (!Step()) {
      return pending_;
    }
  }
  pending_.reason = StopReason::kStepLimit;
  return pending_;
}

RunResult Cpu::CallFunctionImpl(uint64_t entry, const std::vector<uint64_t>& args,
                                const RunOptions& options) {
  static constexpr Reg kArgRegs[6] = {Reg::kRdi, Reg::kRsi, Reg::kRdx,
                                      Reg::kRcx, Reg::kR8,  Reg::kR9};
  auto host_error = [](std::string message) {
    RunResult r;
    r.reason = StopReason::kHostError;
    r.host_error = std::move(message);
    return r;
  };
  if (!init_error_.empty()) {
    return host_error(init_error_);
  }
  if (args.size() > 6) {
    return host_error("CallFunction supports at most 6 register arguments, got " +
                      std::to_string(args.size()));
  }
  for (size_t i = 0; i < args.size(); ++i) {
    set_reg(kArgRegs[i], args[i]);
  }
  // Kernel entry: fresh stack top, sentinel return address. %r11 carries a
  // harness pseudo-tripwire so decoy-instrumented callees have a value to
  // store (the real syscall entry stub is itself instrumented).
  set_reg(Reg::kRsp, stack_top_ - 24);
  const Result<StoreFrames> sentinel = mmu_.Write64(reg(Reg::kRsp), kReturnSentinel);
  if (!sentinel.ok()) {
    return host_error("sentinel push failed: " + sentinel.status().ToString());
  }
  set_reg(Reg::kR11, kReturnSentinel);
  bnd0_ub_ = options_.mpx_enabled ? image_->krx_edata() : ~0ULL;
  rip_ = entry;
  return Run(options, /*entered_via_call=*/true);
}

// The public entry points below are the quiescence safe points: each one
// holds the gate for the whole run and acquires it exactly once (nested
// acquisition would deadlock against a waiting epoch, which has writer
// priority). Symbol resolution happens inside the gated scope so a name
// resolves against the layout the run will actually execute — resolving
// before the gate could race a concurrent epoch and hand back a stale
// address.

RunResult Cpu::CallFunction(uint64_t entry, const std::vector<uint64_t>& args,
                            const RunOptions& options) {
  QuiesceRunScope scope(quiesce_gate_);
  return CallFunctionImpl(entry, args, options);
}

RunResult Cpu::CallFunction(const std::string& symbol, const std::vector<uint64_t>& args,
                            const RunOptions& options) {
  QuiesceRunScope scope(quiesce_gate_);
  auto addr = image_->symbols().AddressOf(symbol);
  if (!addr.ok()) {
    RunResult r;
    r.reason = StopReason::kHostError;
    r.host_error = "unresolvable entry symbol '" + symbol + "': " + addr.status().ToString();
    return r;
  }
  return CallFunctionImpl(*addr, args, options);
}

RunResult Cpu::RunAt(uint64_t rip, const RunOptions& options) {
  QuiesceRunScope scope(quiesce_gate_);
  rip_ = rip;
  return Run(options, /*entered_via_call=*/false);
}

}  // namespace krx
