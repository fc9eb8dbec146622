#include "src/plugin/pipeline.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/base/math_util.h"
#include "src/kernel/assembler.h"
#include "src/kernel/layout.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/verify/verifier.h"

namespace krx {
namespace {

// Times one named compile phase: a kCompilePhase trace event plus a
// per-phase wall-time histogram ("compile.phase_us.<name>", timing-tagged
// so deterministic snapshots omit it). Clock reads only when telemetry is
// live.
class CompilePhaseScope {
 public:
  explicit CompilePhaseScope(const char* name) : name_(name) {
    if (telemetry::Mode() != 0) {
      t0_ = telemetry::TraceNowUs();
      live_ = true;
    }
  }
  ~CompilePhaseScope() {
    if (!live_) {
      return;
    }
    const uint64_t us = telemetry::TraceNowUs() - t0_;
    telemetry::EmitEvent(telemetry::TraceEventType::kCompilePhase, name_, us, 0);
    if (telemetry::MetricsEnabled()) {
      telemetry::MetricsRegistry::Global()
          .GetHistogram(std::string("compile.phase_us.") + name_,
                        telemetry::LatencyBucketsUs(), /*timing=*/true)
          .Observe(us);
    }
  }
  CompilePhaseScope(const CompilePhaseScope&) = delete;
  CompilePhaseScope& operator=(const CompilePhaseScope&) = delete;

 private:
  const char* name_;
  uint64_t t0_ = 0;
  bool live_ = false;
};

// Check counts and elision rates of a finished build, published through the
// registry (krx_objdump --stats and every bench JSON read them from here).
void PublishCompileMetrics(const PipelineStats& s) {
  if (!telemetry::MetricsEnabled()) {
    return;
  }
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::Global();
  reg.GetCounter("compile.builds").Increment();
  reg.GetCounter("compile.verify_retries").Add(s.verify_retries);
  reg.GetCounter("compile.functions").Add(s.functions);
  reg.GetCounter("compile.instrumented_functions").Add(s.instrumented_functions);
  reg.GetCounter("compile.xkeys").Add(s.xkeys);
  reg.GetCounter("compile.sfi.read_sites").Add(s.sfi.read_sites);
  reg.GetCounter("compile.sfi.safe_reads").Add(s.sfi.safe_reads);
  reg.GetCounter("compile.sfi.rsp_reads").Add(s.sfi.rsp_reads);
  reg.GetCounter("compile.sfi.string_checks").Add(s.sfi.string_checks);
  reg.GetCounter("compile.sfi.checks_emitted").Add(s.sfi.checks_emitted);
  reg.GetCounter("compile.sfi.checks_coalesced").Add(s.sfi.checks_coalesced);
  reg.GetCounter("compile.sfi.checks_hoisted").Add(s.sfi.checks_hoisted);
  reg.GetCounter("compile.sfi.wrappers_kept").Add(s.sfi.wrappers_kept);
  reg.GetCounter("compile.sfi.wrappers_eliminated").Add(s.sfi.wrappers_eliminated);
  reg.GetCounter("compile.sfi.lea_kept").Add(s.sfi.lea_kept);
  reg.GetCounter("compile.sfi.lea_eliminated").Add(s.sfi.lea_eliminated);
  reg.GetCounter("compile.sfi.spec_barriers").Add(s.sfi.spec_barriers);
  reg.GetCounter("compile.sfi.spec_masks").Add(s.sfi.spec_masks);
}

// -1: consult the environment on first use; 0/1: explicit override.
int g_post_link_verify = -1;

// Test-only mutation applied to the linked image before verification.
std::function<void(KernelImage&, int)> g_post_link_mutator;

// Guard sizing: the .krx_phantom section must be larger than the maximum
// displacement of any uninstrumented %rsp-relative read (§5.1.2).
uint64_t GuardSizeFor(const std::vector<Function>& functions) {
  int64_t max_disp = 0;
  for (const Function& fn : functions) {
    for (const BasicBlock& b : fn.blocks()) {
      for (const Instruction& inst : b.insts) {
        if (inst.ReadsMemory() && !inst.IsString() && inst.mem.IsPlainRspAccess()) {
          max_disp = std::max(max_disp, inst.mem.disp);
        }
      }
    }
  }
  uint64_t need = static_cast<uint64_t>(std::max<int64_t>(max_disp, 0)) + 16;
  return AlignUp(std::max(need, kDefaultPhantomGuardSize), kPageSize);
}

// The default violation handler "appends a warning message to the kernel
// log and halts the system" (§5.1.2): it bumps krx_violation_count, stores
// a marker in the kernel log slot, and halts.
Function MakeDefaultKrxHandler(SymbolTable& symbols) {
  int32_t count_sym = symbols.Intern("krx_violation_count", SymbolKind::kData);
  int32_t log_sym = symbols.Intern("kernel_log", SymbolKind::kData);
  Function fn(kKrxHandlerName);
  int32_t b = fn.AddBlock();
  auto& insts = fn.block_by_id(b).insts;
  insts.push_back(Instruction::Load(Reg::kR11, MemOperand::RipRelSym(count_sym)));
  insts.push_back(Instruction::AddRI(Reg::kR11, 1));
  insts.push_back(Instruction::Store(MemOperand::RipRelSym(count_sym), Reg::kR11));
  insts.push_back(Instruction::MovRI(Reg::kR11, 0x6b52585f42554721));  // "BUG: kR^X" marker
  insts.push_back(Instruction::Store(MemOperand::RipRelSym(log_sym), Reg::kR11));
  insts.push_back(Instruction::Hlt());
  return fn;
}

// Adds the handler's data objects if the source does not already carry them.
void EnsureHandlerData(KernelSource& source) {
  auto have = [&](const char* name) {
    for (const DataObject& obj : source.data_objects) {
      if (obj.name == name) {
        return true;
      }
    }
    return false;
  };
  if (!have("krx_violation_count")) {
    DataObject count;
    count.name = "krx_violation_count";
    count.kind = SectionKind::kData;
    count.bytes.assign(8, 0);
    source.data_objects.push_back(std::move(count));
  }
  if (!have("kernel_log")) {
    DataObject log;
    log.name = "kernel_log";
    log.kind = SectionKind::kData;
    log.bytes.assign(64, 0);
    source.data_objects.push_back(std::move(log));
  }
}

}  // namespace

bool PostLinkVerifyEnabled() {
  if (g_post_link_verify < 0) {
    const char* env = std::getenv("KRX_POST_LINK_VERIFY");
    g_post_link_verify = (env != nullptr && env[0] == '1') ? 1 : 0;
  }
  return g_post_link_verify == 1;
}

void SetPostLinkVerify(bool enabled) { g_post_link_verify = enabled ? 1 : 0; }

void SetPostLinkMutatorForTest(std::function<void(KernelImage&, int attempt)> mutator) {
  g_post_link_mutator = std::move(mutator);
}

int64_t ComputeEdata(uint64_t phantom_guard_size) {
  return static_cast<int64_t>(kKrxCodeBase - phantom_guard_size);
}

uint64_t LinkArtifacts::ApproxBytes() const {
  uint64_t total = 0;
  if (pristine != nullptr) {
    total += pristine->bytes.size();
    total += pristine->relocs.size() * sizeof(Reloc);
    for (const AssembledFunction& fn : pristine->functions) {
      total += sizeof(AssembledFunction) + fn.name.size();
    }
    for (const std::vector<uint64_t>& sites : pristine->return_sites) {
      total += sites.size() * sizeof(uint64_t);
    }
  }
  total += xkeys.size() + xkey_symbols.size() * sizeof(xkey_symbols[0]);
  for (const DataObject& obj : data_objects) {
    total += sizeof(DataObject) + obj.name.size() + obj.bytes.size() +
             obj.pointer_slots.size() * sizeof(DataObject::PtrInit);
  }
  total += pending_ptr_sites.size() * sizeof(RerandMap::PendingPtrSite);
  for (size_t i = 0; i < symbols.size(); ++i) {
    total += sizeof(Symbol) + symbols.at(static_cast<int32_t>(i)).name.size();
  }
  return total;
}

BuildOptions BuildOptions::Resolved() const {
  BuildOptions resolved = *this;
  if (seed != 0) {
    resolved.config.seed = seed;
    resolved.seed = 0;
  }
  return resolved;
}

Status ApplyProtection(std::vector<Function>& functions, SymbolTable& symbols,
                       const ProtectionConfig& config, int64_t edata_imm, XkeyLayout* xkeys,
                       PipelineStats* stats, Rng& rng) {
  int32_t handler_sym = symbols.Intern(kKrxHandlerName, SymbolKind::kFunction);
  // O4 callee-clobber summaries, computed over the pristine IR before any
  // function is mutated. Only armed when no later pass can invalidate them:
  // register randomization renames the registers the summaries speak about,
  // RA protection and diversification insert extra register traffic into
  // callees, and spec hardening rewrites the checks themselves — under any
  // of those ApplySfiPass keeps the conservative kill-everything-at-calls
  // rule. The post-link verifier independently recomputes the masks from
  // the final bytes (src/verify/confinement.cc), so this is never trusted.
  CalleeClobberSummary callee_clobbers;
  const bool use_clobbers = config.sfi == SfiLevel::kO4 && config.ra == RaScheme::kNone &&
                            !config.randomize_registers && !config.diversify &&
                            config.spec == SpecMitigation::kNone;
  if (use_clobbers) {
    callee_clobbers = ComputeCalleeClobbers(functions, [&symbols](const std::string& name) {
      return symbols.Intern(name, SymbolKind::kFunction);
    });
  }
  for (Function& fn : functions) {
    ++stats->functions;
    if (fn.name() == kKrxHandlerName) {
      continue;  // The violation handler stays pristine.
    }
    // Exempt functions model hand-written assembly: the plugins operate on
    // RTL and "cannot handle assembly code" (§6), so exempt routines skip
    // *every* pass — range checks, return-address protection and
    // diversification alike (the ftrace/kprobes clones, context-switch
    // stubs, ...).
    const bool exempt = config.exempt_functions.count(fn.name()) > 0;
    if (exempt) {
      continue;
    }
    if (config.HasRangeChecks() || config.mpx) {
      SfiStats fn_stats;
      KRX_RETURN_IF_ERROR(ApplySfiPass(fn, config, handler_sym, edata_imm, &fn_stats,
                                       use_clobbers ? &callee_clobbers : nullptr));
      stats->sfi.Accumulate(fn_stats);
      stats->per_function.emplace_back(fn.name(), fn_stats);
      ++stats->instrumented_functions;
    }
    switch (config.ra) {
      case RaScheme::kNone:
        break;
      case RaScheme::kEncrypt:
        KRX_RETURN_IF_ERROR(ApplyRaEncryptPass(fn, symbols, xkeys));
        break;
      case RaScheme::kDecoy:
        KRX_RETURN_IF_ERROR(ApplyRaDecoyPass(fn, rng, &stats->decoy));
        break;
    }
    if (config.randomize_registers) {
      KRX_RETURN_IF_ERROR(ApplyRegRandPass(fn, rng, &stats->reg_rand));
    }
    if (config.diversify) {
      KRX_RETURN_IF_ERROR(ApplyKaslrPass(fn, config.entropy_bits_k, rng, &stats->kaslr));
    }
  }
  stats->xkeys = xkeys->symbol_offsets.size();
  return Status::Ok();
}

Status LinkFromArtifacts(CompiledKernel* out, uint64_t phys_bytes, Rng& rng) {
  const LinkArtifacts& artifacts = *out->artifacts;
  KernelLinkInput link;
  link.text = *artifacts.pristine;  // LinkKernel relocates its own working copy
  link.xkeys = artifacts.xkeys;
  link.xkey_symbols = artifacts.xkey_symbols;
  link.data_objects = artifacts.data_objects;
  link.phantom_guard_size = artifacts.phantom_guard_size;
  link.phys_bytes = phys_bytes != 0 ? phys_bytes : artifacts.phys_bytes;
  if (out->config.coarse_kaslr) {
    // Up to 64MB of page-aligned slide, as coarse KASLR provides.
    link.kaslr_slide = rng.NextBelow(1ULL << 14) << kPageShift;
  }
  auto image = [&] {
    CompilePhaseScope phase("link");
    return LinkKernel(out->layout, std::move(link), artifacts.symbols);
  }();
  if (!image.ok()) {
    return image.status();
  }
  out->image = std::move(*image);
  if (out->layout == LayoutKind::kKrx) {
    KRX_CHECK(out->image->krx_edata() ==
              static_cast<uint64_t>(ComputeEdata(artifacts.phantom_guard_size)));
  }

  CompilePhaseScope phase("finalize");
  out->rerand = std::make_shared<RerandMap>();
  out->rerand->pristine = artifacts.pristine;  // alias the shared blob, never copy
  out->rerand->pending_ptr_sites = artifacts.pending_ptr_sites;
  Rng key_rng = rng.Fork();
  KRX_RETURN_IF_ERROR(out->image->ReplenishXkeys(key_rng));
  return out->rerand->Finalize(*out->image);
}

namespace {

// Prefix of the status message a post-link verification failure carries;
// the retry loop in CompileKernel keys off it (only verify failures are
// retryable — assembler/linker errors are deterministic and final).
constexpr const char* kVerifyFailurePrefix = "post-link verification failed";

Result<CompiledKernel> CompileKernelAttempt(KernelSource source, const ProtectionConfig& config,
                                            LayoutKind layout, bool verify, int attempt) {
  if ((config.HasRangeChecks() || config.mpx) && layout != LayoutKind::kKrx) {
    return InvalidArgumentError(
        "R^X enforcement requires the kR^X-KAS layout (disjoint code/data regions)");
  }

  Rng rng(config.seed);
  CompiledKernel out;
  out.config = config;
  out.layout = layout;

  KRX_TRACE_SPAN_SCOPED("compile");

  uint64_t guard = 0;
  XkeyLayout xkeys;
  {
    CompilePhaseScope phase("protect");

    // Ensure a violation handler exists.
    bool has_handler = false;
    for (const Function& fn : source.functions) {
      if (fn.name() == kKrxHandlerName) {
        has_handler = true;
      }
    }
    if (!has_handler) {
      EnsureHandlerData(source);
      source.functions.push_back(MakeDefaultKrxHandler(source.symbols));
    }

    guard = GuardSizeFor(source.functions);
    out.stats.phantom_guard_size = guard;

    KRX_RETURN_IF_ERROR(ApplyProtection(source.functions, source.symbols, config,
                                        ComputeEdata(guard), &xkeys, &out.stats, rng));

    // Function permutation (section-level fine-grained KASLR).
    if (config.diversify) {
      rng.Shuffle(source.functions);
    }
  }

  TextBlob text;
  {
    CompilePhaseScope phase("assemble");
    Assembler assembler;
    for (const Function& fn : source.functions) {
      KRX_RETURN_IF_ERROR(assembler.Assemble(fn, &text));
    }
  }

  // The pre-link inputs, captured once: this build and every tenant
  // materialized from it (src/fleet) link their own copy of them, and every
  // RerandMap among them aliases the one pristine blob.
  auto pristine = CapturePristineText(std::move(text));
  if (!pristine.ok()) {
    return pristine.status();
  }
  auto artifacts = std::make_shared<LinkArtifacts>();
  artifacts->pristine = std::move(*pristine);
  artifacts->xkeys.assign(xkeys.size_bytes, 0);
  artifacts->xkey_symbols = std::move(xkeys.symbol_offsets);
  for (const DataObject& obj : source.data_objects) {
    for (const DataObject::PtrInit& p : obj.pointer_slots) {
      artifacts->pending_ptr_sites.push_back({obj.name, p.offset, p.symbol, p.addend});
    }
  }
  artifacts->data_objects = std::move(source.data_objects);
  artifacts->symbols = std::move(source.symbols);
  artifacts->phantom_guard_size = guard;
  artifacts->phys_bytes = source.phys_bytes;
  out.artifacts = std::move(artifacts);

  KRX_RETURN_IF_ERROR(LinkFromArtifacts(&out, /*phys_bytes=*/0, rng));

  if (g_post_link_mutator) {
    g_post_link_mutator(*out.image, attempt);
  }

  // Independent post-link check of the just-built artifact: the verifier
  // re-proves from the assembled bytes what the passes claim by
  // construction (SFI-verifier discipline — see src/verify/).
  if (verify) {
    CompilePhaseScope phase("verify");
    VerifyOptions vopts = VerifyOptions::ForConfig(config);
    if (vopts.AnyChecks()) {
      VerifyReport report = VerifyImage(*out.image, vopts);
      if (!report.ok()) {
        return InternalError(std::string(kVerifyFailurePrefix) + ":\n" + report.Summary(8));
      }
    }
  }
  return out;
}

}  // namespace

Result<CompiledKernel> CompileKernel(KernelSource source, const BuildOptions& options) {
  const ProtectionConfig base_config = options.Resolved().config;
  const bool verify = options.verify == BuildOptions::Verify::kDefault
                          ? PostLinkVerifyEnabled()
                          : options.verify == BuildOptions::Verify::kOn;
  // Retry with the next diversification seed: for randomized builds a
  // verify failure is a bad draw, not a dead end. Only verify failures are
  // transient — pass/link/layout errors surface immediately.
  const auto seed_of = [&](int attempt) {
    return base_config.seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(attempt);
  };
  for (int attempt = 0;; ++attempt) {
    ProtectionConfig attempt_config = base_config;
    attempt_config.seed = seed_of(attempt);
    auto built = CompileKernelAttempt(source, attempt_config, options.layout, verify, attempt);
    if (built.ok()) {
      built->stats.verify_retries = static_cast<uint64_t>(attempt);
      PublishCompileMetrics(built->stats);
      return built;
    }
    if (attempt == kMaxVerifyRetries ||
        !built.status().message().starts_with(kVerifyFailurePrefix)) {
      return built;
    }
    std::fprintf(stderr,
                 "[krx] post-link verify failed (attempt %d, seed 0x%llx); "
                 "retrying with seed 0x%llx\n",
                 attempt, static_cast<unsigned long long>(seed_of(attempt)),
                 static_cast<unsigned long long>(seed_of(attempt + 1)));
  }
}

Result<ModuleObject> CompileModule(const std::string& name, std::vector<Function> functions,
                                   std::vector<DataObject> data_objects, SymbolTable& symbols,
                                   const ProtectionConfig& config) {
  Rng rng(config.seed ^ 0x6d6f64);  // per-module stream
  PipelineStats stats;
  XkeyLayout xkeys;
  const int64_t edata = ComputeEdata(kDefaultPhantomGuardSize);
  KRX_RETURN_IF_ERROR(
      ApplyProtection(functions, symbols, config, edata, &xkeys, &stats, rng));
  if (config.diversify) {
    rng.Shuffle(functions);
  }
  ModuleObject mod;
  mod.name = name;
  Assembler assembler;
  for (const Function& fn : functions) {
    KRX_RETURN_IF_ERROR(assembler.Assemble(fn, &mod.text));
  }
  // Module-local xkeys ride at the tail of the module's .text: they must
  // live in the execute-only region, and a module owns no other memory
  // there. The loader fills them with random values at load time.
  if (xkeys.size_bytes > 0) {
    while (!IsAligned(mod.text.bytes.size(), 16)) {
      mod.text.bytes.push_back(kTextPadByte);
    }
    uint64_t base = mod.text.bytes.size();
    mod.text.bytes.resize(base + xkeys.size_bytes, 0);
    for (auto [sym, off] : xkeys.symbol_offsets) {
      mod.text_symbol_offsets.emplace_back(sym, base + off);
    }
    mod.xkey_bytes = xkeys.size_bytes;
  }
  mod.data_objects = std::move(data_objects);
  return mod;
}

}  // namespace krx
