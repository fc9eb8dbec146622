#include "src/fault/injector.h"

#include <cinttypes>
#include <cstdio>

#include "src/ir/builder.h"
#include "src/kernel/assembler.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/corpus.h"
#include "src/workload/ops.h"

namespace krx {
namespace {

// Undecodable opcode byte: the decoder rejects any opcode >= kNumOpcodes,
// so 0xFF always raises #UD.
constexpr uint8_t kUndecodableByte = 0xFF;

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%" PRIx64, v);
  return buf;
}

}  // namespace

const char* FaultClassName(FaultClass cls) {
  switch (cls) {
    case FaultClass::kDataBitFlip: return "data-bit-flip";
    case FaultClass::kXkeyBitFlip: return "xkey-bit-flip";
    case FaultClass::kPtePresentClear: return "pte-present-clear";
    case FaultClass::kPteWxSet: return "pte-wx-set";
    case FaultClass::kTextInt3: return "text-int3";
    case FaultClass::kTextUndecodable: return "text-undecodable";
    case FaultClass::kDisclosureRead: return "disclosure-read";
    case FaultClass::kModuleLoadFault: return "module-load-fault";
    case FaultClass::kNumFaultClasses: break;
  }
  return "??";
}

const char* DetectionName(Detection detection) {
  switch (detection) {
    case Detection::kSilent: return "SILENT";
    case Detection::kTrap: return "trap";
    case Detection::kAudit: return "audit";
    case Detection::kLoadError: return "load-error";
    case Detection::kBenign: return "benign";
  }
  return "??";
}

FaultInjector::FaultInjector(CompiledKernel* kernel, uint64_t buffer_seed)
    : kernel_(kernel),
      buffer_seed_(buffer_seed),
      loader_(kernel->image.get(), /*key_seed=*/buffer_seed ^ 0xFA017) {
  CpuOptions options;
  options.mpx_enabled = kernel_->config.mpx;
  cpu_ = std::make_unique<Cpu>(kernel_->image.get(), CostModel(), options);
  if (!cpu_->init_error().empty()) {
    setup_error_ = InternalError(cpu_->init_error());
    return;
  }
  auto buf = SetUpOpBuffer(*kernel_->image, buffer_seed_);
  if (!buf.ok()) {
    setup_error_ = buf.status();
    return;
  }
  buffer_vaddr_ = *buf;
}

std::vector<FaultClass> FaultInjector::EligibleClasses() const {
  std::vector<FaultClass> classes = {
      FaultClass::kDataBitFlip,    FaultClass::kPtePresentClear,
      FaultClass::kPteWxSet,       FaultClass::kTextInt3,
      FaultClass::kTextUndecodable, FaultClass::kModuleLoadFault,
  };
  if (kernel_->config.ra == RaScheme::kEncrypt) {
    classes.push_back(FaultClass::kXkeyBitFlip);
  }
  if (kernel_->config.HasRangeChecks() || kernel_->config.mpx) {
    classes.push_back(FaultClass::kDisclosureRead);
  }
  return classes;
}

Status FaultInjector::ResetForRun() {
  for (int i = 0; i < kNumGpRegs; ++i) {
    cpu_->set_reg(static_cast<Reg>(i), 0);
  }
  cpu_->rflags() = RFlags();
  return FillOpBuffer(*kernel_->image, buffer_vaddr_, buffer_seed_);
}

Result<RunResult> FaultInjector::RunObserved(const std::string& op,
                                             std::function<void(const Cpu&)> observer) {
  KRX_RETURN_IF_ERROR(ResetForRun());
  cpu_->set_step_observer(std::move(observer));
  RunResult r = cpu_->CallFunction(op, {buffer_vaddr_});
  cpu_->set_step_observer(nullptr);
  return r;
}

Result<RunResult> FaultInjector::RunArmed(const std::string& op, uint64_t trigger,
                                          const std::function<void()>& fire) {
  uint64_t retired = 0;
  return RunObserved(op, [&](const Cpu&) {
    if (++retired == trigger) {
      fire();
    }
  });
}

void FaultInjector::RecordStop(const RunResult& r, bool trapped, InjectionOutcome* out) {
  out->exception = r.exception;
  out->krx_violation = r.krx_violation;
  out->detect_step = r.instructions;
  if (trapped) {
    out->detection = Detection::kTrap;
    out->correct = true;
    out->latency = r.instructions > out->trigger_step ? r.instructions - out->trigger_step : 0;
  }
}

Result<const GoldenRun*> FaultInjector::Golden(const std::string& op_symbol) {
  if (!setup_error_.ok()) {
    return setup_error_;
  }
  auto it = golden_.find(op_symbol);
  if (it != golden_.end()) {
    return &it->second;
  }
  auto entry = kernel_->image->symbols().AddressOf(op_symbol);
  if (!entry.ok()) {
    return entry.status();
  }

  GoldenRun g;
  g.rip_trace.push_back(*entry);
  // The harness sentinel sits at stack_top - 24 (see Cpu::CallFunction);
  // under return-address encryption the entry's prologue XORs it in place,
  // so watching the slot exposes the encryption window.
  const uint64_t sentinel_slot = cpu_->stack_top() - 24;
  const KernelImage* image = kernel_->image.get();
  uint64_t retired = 0;
  auto run = RunObserved(op_symbol, [&](const Cpu& c) {
    ++retired;
    g.rip_trace.push_back(c.rip());
    auto slot = image->Peek64(sentinel_slot);
    if (slot.ok() && *slot != Cpu::kReturnSentinel) {
      if (!g.has_enc_window) {
        g.has_enc_window = true;
        g.enc_first = retired;
      }
      g.enc_last = retired;
    }
  });
  KRX_RETURN_IF_ERROR(run.status());
  const RunResult& r = *run;
  if (r.reason != StopReason::kReturned) {
    return InternalError("golden run of " + op_symbol + " did not return cleanly: " +
                         StopReasonName(r.reason));
  }
  g.rax = r.rax;
  g.instructions = r.instructions;
  // The observer does not fire for the final (stopping) ret, so the trace
  // holds exactly the addresses of instructions 0 .. N-1.
  if (g.rip_trace.size() > g.instructions) {
    g.rip_trace.resize(g.instructions);
  }
  auto [pos, inserted] = golden_.emplace(op_symbol, std::move(g));
  (void)inserted;
  return &pos->second;
}

Result<InjectionOutcome> FaultInjector::Inject(FaultClass cls, const std::string& op_symbol,
                                               Rng& rng) {
  Result<InjectionOutcome> outcome = InjectDispatch(cls, op_symbol, rng);
  if (telemetry::MetricsEnabled()) {
    telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::Global();
    reg.GetCounter("fault.injections").Increment();
    reg.GetCounter(std::string("fault.class.") + FaultClassName(cls)).Increment();
    if (outcome.ok()) {
      reg.GetCounter(std::string("fault.detection.") + DetectionName(outcome->detection))
          .Increment();
      if (!outcome->correct) {
        reg.GetCounter("fault.contract_misses").Increment();
      }
    } else {
      reg.GetCounter("fault.inject_errors").Increment();
    }
  }
  if (outcome.ok()) {
    telemetry::EmitEvent(telemetry::TraceEventType::kFaultInject, FaultClassName(cls),
                         static_cast<uint64_t>(cls), outcome->trigger_step);
  }
  return outcome;
}

Result<InjectionOutcome> FaultInjector::InjectDispatch(FaultClass cls,
                                                       const std::string& op_symbol, Rng& rng) {
  if (!setup_error_.ok()) {
    return setup_error_;
  }
  switch (cls) {
    case FaultClass::kDataBitFlip:
      return InjectDataBitFlip(op_symbol, rng);
    case FaultClass::kXkeyBitFlip:
      return InjectXkeyBitFlip(op_symbol, rng);
    case FaultClass::kPtePresentClear:
      return InjectPtePresentClear(op_symbol, rng);
    case FaultClass::kPteWxSet:
      return InjectPteWxSet(op_symbol, rng);
    case FaultClass::kTextInt3:
      return InjectTextCorruption(op_symbol, rng, /*int3=*/true);
    case FaultClass::kTextUndecodable:
      return InjectTextCorruption(op_symbol, rng, /*int3=*/false);
    case FaultClass::kDisclosureRead:
      return InjectDisclosureRead(rng);
    case FaultClass::kModuleLoadFault:
      return InjectModuleLoadFault(rng);
    case FaultClass::kNumFaultClasses:
      break;
  }
  return InvalidArgumentError("unknown fault class");
}

Result<InjectionOutcome> FaultInjector::InjectDataBitFlip(const std::string& op, Rng& rng) {
  auto golden = Golden(op);
  if (!golden.ok()) {
    return golden.status();
  }
  const GoldenRun& g = **golden;
  InjectionOutcome out;
  out.cls = FaultClass::kDataBitFlip;

  const uint64_t byte_off = rng.NextBelow(kOpBufferBytes);
  const int bit = static_cast<int>(rng.NextBelow(8));
  const uint64_t trigger =
      g.instructions > 2 ? static_cast<uint64_t>(rng.NextInRange(
                               1, static_cast<int64_t>(g.instructions) - 1))
                         : 1;
  out.trigger_step = trigger;
  out.detail = op + ": flip bit " + std::to_string(bit) + " of buffer+" + Hex(byte_off) +
               " at step " + std::to_string(trigger);

  KernelImage* image = kernel_->image.get();
  const uint64_t target = buffer_vaddr_ + byte_off;
  auto r = RunArmed(op, trigger, [&] {
    uint8_t b = 0;
    if (image->PeekBytes(target, &b, 1).ok()) {
      b = static_cast<uint8_t>(b ^ (1u << bit));
      (void)image->PokeBytes(target, &b, 1);
    }
  });
  KRX_RETURN_IF_ERROR(r.status());

  // Contained: the poisoned value escaped the data domain and was caught
  // (#PF on a wild pointer, range check, #BR, tripwire...).
  const bool trapped = r->reason == StopReason::kException ||
                       (r->reason == StopReason::kHalted && r->krx_violation);
  RecordStop(*r, trapped, &out);
  if (r->reason == StopReason::kReturned) {
    // Data faults are outside the R^X guarantee: a clean return is benign
    // for the protection invariants; a changed result is recorded as SDC.
    out.detection = Detection::kBenign;
    out.result_changed = r->rax != g.rax;
    out.correct = true;
  }
  return out;
}

Result<InjectionOutcome> FaultInjector::InjectXkeyBitFlip(const std::string& op, Rng& rng) {
  auto golden = Golden(op);
  if (!golden.ok()) {
    return golden.status();
  }
  const GoldenRun& g = **golden;
  InjectionOutcome out;
  out.cls = FaultClass::kXkeyBitFlip;

  auto key_addr = kernel_->image->symbols().AddressOf("xkey$" + op);
  if (!key_addr.ok()) {
    return key_addr.status();
  }
  if (!g.has_enc_window || g.enc_last <= g.enc_first) {
    return FailedPreconditionError("no usable RA-encryption window for " + op);
  }
  // Flip a high bit ([32, 62]) strictly inside the window: the epilogue
  // decrypt then produces sentinel ^ bit — an address far from every mapped
  // region, so the return lands on an unmapped page and fetch-faults.
  const int bit = static_cast<int>(rng.NextInRange(32, 62));
  const uint64_t trigger = static_cast<uint64_t>(
      rng.NextInRange(static_cast<int64_t>(g.enc_first), static_cast<int64_t>(g.enc_last)));
  out.trigger_step = trigger;
  out.detail = op + ": flip bit " + std::to_string(bit) + " of xkey$" + op + " at step " +
               std::to_string(trigger) + " (enc window [" + std::to_string(g.enc_first) +
               ", " + std::to_string(g.enc_last) + "])";

  KernelImage* image = kernel_->image.get();
  auto orig_key = image->Peek64(*key_addr);
  if (!orig_key.ok()) {
    return orig_key.status();
  }
  auto r = RunArmed(op, trigger,
                    [&] { (void)image->Poke64(*key_addr, *orig_key ^ (1ULL << bit)); });
  KRX_RETURN_IF_ERROR(r.status());
  KRX_RETURN_IF_ERROR(image->Poke64(*key_addr, *orig_key));

  const bool trapped = r->reason == StopReason::kException &&
                       (r->exception == ExceptionKind::kPageFault ||
                        r->exception == ExceptionKind::kGeneralProtection);
  RecordStop(*r, trapped, &out);
  return out;
}

Result<InjectionOutcome> FaultInjector::InjectPtePresentClear(const std::string& op, Rng& rng) {
  auto golden = Golden(op);
  if (!golden.ok()) {
    return golden.status();
  }
  const GoldenRun& g = **golden;
  InjectionOutcome out;
  out.cls = FaultClass::kPtePresentClear;

  const uint64_t page = rng.NextBelow(kOpBufferBytes >> kPageShift);
  const uint64_t page_vaddr = buffer_vaddr_ + (page << kPageShift);
  const uint64_t trigger =
      g.instructions > 2 ? static_cast<uint64_t>(rng.NextInRange(
                               1, static_cast<int64_t>(g.instructions) - 1))
                         : 1;
  out.trigger_step = trigger;
  out.detail = op + ": clear PTE present bit of buffer page " + std::to_string(page) +
               " at step " + std::to_string(trigger);

  KernelImage* image = kernel_->image.get();
  Pte* pte = image->page_table().LookupMutable(page_vaddr);
  if (pte == nullptr) {
    return NotFoundError("buffer page not mapped: " + Hex(page_vaddr));
  }
  const PteFlags saved = pte->flags;
  auto r = RunArmed(op, trigger, [&] {
    pte->flags.present = false;
    image->page_table().BumpGeneration();
  });
  pte->flags = saved;
  image->page_table().BumpGeneration();
  KRX_RETURN_IF_ERROR(r.status());

  const bool trapped = r->reason == StopReason::kException &&
                       r->exception == ExceptionKind::kPageFault &&
                       r->fault_addr >= buffer_vaddr_ &&
                       r->fault_addr < buffer_vaddr_ + kOpBufferBytes;
  RecordStop(*r, trapped, &out);
  if (r->reason == StopReason::kReturned && r->rax == g.rax) {
    // The op no longer touched that page after the trigger: proven benign
    // by reproducing the golden result.
    out.detection = Detection::kBenign;
    out.correct = true;
  }
  return out;
}

Result<InjectionOutcome> FaultInjector::InjectPteWxSet(const std::string& op, Rng& rng) {
  auto golden = Golden(op);
  if (!golden.ok()) {
    return golden.status();
  }
  const GoldenRun& g = **golden;
  InjectionOutcome out;
  out.cls = FaultClass::kPteWxSet;

  // Corrupt the PTE of a page the op is known to execute from.
  const uint64_t victim_rip = g.rip_trace[rng.NextBelow(g.rip_trace.size())];
  const uint64_t trigger =
      g.instructions > 2 ? static_cast<uint64_t>(rng.NextInRange(
                               1, static_cast<int64_t>(g.instructions) - 1))
                         : 1;
  out.trigger_step = trigger;
  out.detail = op + ": set writable on text page of " + Hex(victim_rip) + " at step " +
               std::to_string(trigger);

  KernelImage* image = kernel_->image.get();
  Pte* pte = image->page_table().LookupMutable(victim_rip);
  if (pte == nullptr) {
    return NotFoundError("text page not mapped: " + Hex(victim_rip));
  }
  const PteFlags saved = pte->flags;
  auto r = RunArmed(op, trigger, [&] {
    pte->flags.writable = true;
    image->page_table().BumpGeneration();
  });

  // Execution must be unaffected; only the W^X page-table audit can see
  // this fault. Run the audit before restoring the bit.
  const bool audit_caught = !image->page_table().FindWxViolations().empty();
  pte->flags = saved;
  image->page_table().BumpGeneration();
  KRX_RETURN_IF_ERROR(r.status());

  RecordStop(*r, /*trapped=*/false, &out);
  if (audit_caught && r->reason == StopReason::kReturned && r->rax == g.rax) {
    out.detection = Detection::kAudit;
    out.correct = true;
  }
  return out;
}

Result<InjectionOutcome> FaultInjector::InjectTextCorruption(const std::string& op, Rng& rng,
                                                             bool int3) {
  auto golden = Golden(op);
  if (!golden.ok()) {
    return golden.status();
  }
  const GoldenRun& g = **golden;
  InjectionOutcome out;
  out.cls = int3 ? FaultClass::kTextInt3 : FaultClass::kTextUndecodable;
  if (g.instructions < 4) {
    return FailedPreconditionError("op too short for runtime text corruption: " + op);
  }

  // Trigger at step c, victim = an instruction the golden trace proves will
  // execute at some step >= c, so the trap is guaranteed.
  const uint64_t trigger = static_cast<uint64_t>(
      rng.NextInRange(1, static_cast<int64_t>(g.instructions) - 2));
  const uint64_t victim_idx = static_cast<uint64_t>(rng.NextInRange(
      static_cast<int64_t>(trigger), static_cast<int64_t>(g.instructions) - 1));
  const uint64_t victim = g.rip_trace[victim_idx];
  const uint8_t evil = int3 ? kTextPadByte : kUndecodableByte;
  out.trigger_step = trigger;
  out.detail = op + ": poke " + (int3 ? std::string("int3") : std::string("0xFF")) + " at " +
               Hex(victim) + " (instruction " + std::to_string(victim_idx) + ") at step " +
               std::to_string(trigger);

  KernelImage* image = kernel_->image.get();
  uint8_t orig = 0;
  KRX_RETURN_IF_ERROR(image->PeekBytes(victim, &orig, 1));
  auto r = RunArmed(op, trigger, [&] { (void)image->PokeBytes(victim, &evil, 1); });
  KRX_RETURN_IF_ERROR(r.status());
  KRX_RETURN_IF_ERROR(image->PokeBytes(victim, &orig, 1));

  const ExceptionKind expected =
      int3 ? ExceptionKind::kBreakpoint : ExceptionKind::kInvalidOpcode;
  RecordStop(*r, r->reason == StopReason::kException && r->exception == expected, &out);
  return out;
}

Result<InjectionOutcome> FaultInjector::InjectDisclosureRead(Rng& rng) {
  InjectionOutcome out;
  out.cls = FaultClass::kDisclosureRead;

  // Aim the leak primitive at a random defined function's code.
  const SymbolTable& symbols = kernel_->image->symbols();
  std::vector<uint64_t> targets;
  for (size_t i = 0; i < symbols.size(); ++i) {
    const Symbol& sym = symbols.at(static_cast<int32_t>(i));
    if (sym.kind == SymbolKind::kFunction && sym.defined &&
        kernel_->image->InCodeRegion(sym.address)) {
      targets.push_back(sym.address);
    }
  }
  if (targets.empty()) {
    return FailedPreconditionError("no code-region functions to probe");
  }
  const uint64_t target = targets[rng.NextBelow(targets.size())];
  out.detail = "debugfs_leak_read(" + Hex(target) + ")";

  KRX_RETURN_IF_ERROR(ResetForRun());
  RunResult r = cpu_->CallFunction("debugfs_leak_read", {target});

  // Nothing is armed: the leak is the fault, so its latency is the whole run.
  const bool trapped = kernel_->config.mpx ? r.reason == StopReason::kException &&
                                                 r.exception == ExceptionKind::kBoundRange
                                           : r.reason == StopReason::kHalted && r.krx_violation;
  RecordStop(r, trapped, &out);
  return out;
}

Result<InjectionOutcome> FaultInjector::InjectModuleLoadFault(Rng& rng) {
  InjectionOutcome out;
  out.cls = FaultClass::kModuleLoadFault;

  KernelImage* image = kernel_->image.get();
  const std::string name = "fltmod" + std::to_string(module_counter_++);

  // A small module with one exported function (instrumented with the
  // kernel's own config, so it carries xkeys under RA encryption) and one
  // data object, so the data-section load steps and their rollback are
  // exercised too.
  FunctionBuilder b(name + "_probe");
  b.Emit(Instruction::MovRI(Reg::kRax, 0x7e57));
  b.Emit(Instruction::AddRI(Reg::kRax, static_cast<int64_t>(module_counter_)));
  b.Emit(Instruction::Ret());
  std::vector<Function> fns;
  fns.push_back(b.Build());
  DataObject state;
  state.name = name + "_state";
  state.kind = SectionKind::kData;
  state.bytes.assign(16, 0x5a);
  std::vector<DataObject> data;
  data.push_back(std::move(state));
  auto module =
      CompileModule(name, std::move(fns), std::move(data), image->symbols(), kernel_->config);
  if (!module.ok()) {
    return module.status();
  }

  // Pick a failpoint among the steps this module actually reaches: the
  // xkey-replenish step only exists when the module carries RA keys.
  std::vector<ModuleLoadStep> steps = {
      ModuleLoadStep::kAllocText, ModuleLoadStep::kAllocData,
      ModuleLoadStep::kBindSymbols, ModuleLoadStep::kRelocate,
      ModuleLoadStep::kPlaceText, ModuleLoadStep::kPlaceData,
  };
  if (module->xkey_bytes > 0) {
    steps.push_back(ModuleLoadStep::kReplenishXkeys);
  }
  if (image->layout() == LayoutKind::kKrx) {
    steps.push_back(ModuleLoadStep::kUnmapSynonyms);
  }
  const ModuleLoadStep step = steps[rng.NextBelow(steps.size())];
  out.detail = "module " + name + ": fail before " + ModuleLoadStepName(step);

  const size_t pages_before = image->page_table().MappedPageCount();
  const auto cursors_before = image->module_cursors();
  const size_t modules_before = loader_.module_count();

  loader_.set_failpoint(step);
  auto failed = loader_.Load(*module);
  loader_.clear_failpoint();
  if (failed.ok()) {
    out.detail += " — load unexpectedly succeeded";
    return out;  // kSilent
  }

  // Rollback must be total: address space, page tables, symbol namespace.
  const bool rolled_back =
      image->page_table().MappedPageCount() == pages_before &&
      image->module_cursors().text == cursors_before.text &&
      image->module_cursors().data == cursors_before.data &&
      loader_.module_count() == modules_before &&
      image->symbols().AddressOf(name + "_probe").ok() == false &&
      image->symbols().AddressOf(name + "_state").ok() == false;
  if (!rolled_back) {
    out.detail += " — rollback incomplete";
    return out;  // kSilent: the fault was reported but state leaked
  }

  // And the failure must be transient: the same module loads cleanly now,
  // its function runs, and it unloads.
  auto handle = loader_.Load(*module);
  if (!handle.ok()) {
    out.detail += " — clean reload failed: " + handle.status().message();
    return out;
  }
  KRX_RETURN_IF_ERROR(ResetForRun());
  RunResult r = cpu_->CallFunction(name + "_probe", {});
  const bool ran = r.reason == StopReason::kReturned &&
                   r.rax == 0x7e57 + static_cast<uint64_t>(module_counter_);
  Status unloaded = loader_.Unload(*handle);
  if (!ran || !unloaded.ok()) {
    out.detail += " — post-reload run/unload failed";
    return out;
  }
  out.detection = Detection::kLoadError;
  out.correct = true;
  return out;
}

}  // namespace krx
