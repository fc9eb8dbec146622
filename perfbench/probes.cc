// Layer probes of a traced run. Each probe times calls into one layer's
// public functions, from here, on state it builds itself, and records a
// span per call plus the samples the per-layer metrics are computed from.
//
//   plugin/ir  the Apply*Pass functions and ComputeCalleeClobbers, called in
//              ApplyProtection's order on a copy of the bench source; the
//              resulting PipelineStats must equal ApplyProtection's own.
//   kernel     Assembler::Assemble over the protected functions, LinkKernel
//              and KernelImage::ReplenishXkeys on a build's link artifacts.
//   mem        the PhysMem constructor at the image's size; frame growth of
//              a shared image across repeated execution.
//   verify     VerifyImage on a fresh link.
//   rerand     RerandMap::Finalize on a fresh link.
//   fleet      KernelCache::Acquire hits and MaterializeTenant.
//   cpu        Cpu construction, and one exec-matrix slice run under each
//              ExecEngine plus a spec-mask slice with the speculation window.
//   workload   SetUpWorkloadBuffers.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "src/bench_runner/bench_runner.h"
#include "src/fleet/fleet.h"
#include "src/ir/analysis.h"
#include "src/kernel/assembler.h"
#include "src/kernel/layout.h"
#include "src/verify/verifier.h"
#include "src/workload/harness.h"

namespace perfbench {
namespace {

using namespace krx;

constexpr int kRounds = 3;

// Times `fn` under a span named `span` and returns the elapsed microseconds.
template <typename Fn>
double TimeUs(const char* span, Fn&& fn) {
  SpanScope scope(span);
  const Clock::time_point t0 = Clock::now();
  fn();
  return UsBetween(t0, Clock::now());
}

std::string StatsKey(const PipelineStats& s) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "fn=%llu instr=%llu xkeys=%llu sfi=%llu/%llu/%llu/%llu/%llu/%llu "
                "decoy=%llu/%llu kaslr=%llu/%llu/%llu reg=%llu/%llu",
                (unsigned long long)s.functions, (unsigned long long)s.instrumented_functions,
                (unsigned long long)s.xkeys, (unsigned long long)s.sfi.read_sites,
                (unsigned long long)s.sfi.checks_emitted,
                (unsigned long long)s.sfi.checks_coalesced,
                (unsigned long long)s.sfi.checks_hoisted, (unsigned long long)s.sfi.wrappers_kept,
                (unsigned long long)s.sfi.lea_kept, (unsigned long long)s.decoy.call_sites,
                (unsigned long long)s.decoy.phantom_insts, (unsigned long long)s.kaslr.functions,
                (unsigned long long)s.kaslr.total_chunks,
                (unsigned long long)s.kaslr.phantom_blocks,
                (unsigned long long)s.reg_rand.functions_renamed,
                (unsigned long long)s.reg_rand.operands_rewritten);
  return buf;
}

// Per-pass time of one protection run, in microseconds.
struct PassTimes {
  double sfi = 0, ra_encrypt = 0, ra_decoy = 0, reg_rand = 0, kaslr = 0, callee_clobbers = 0;
  double assemble = 0;
  uint64_t ir_insts = 0, text_bytes = 0, checks_emitted = 0;
};

// ApplyProtection's pass sequence, one public call at a time, followed by
// the function shuffle and assembly CompileKernel performs.
Status ProtectByPass(const KernelSource& source, const ProtectionConfig& config,
                     PassTimes* times, std::string* stats_key) {
  std::vector<Function> functions = source.functions;
  SymbolTable symbols = source.symbols;
  const int64_t edata = ComputeEdata(kDefaultPhantomGuardSize);
  PipelineStats stats;
  XkeyLayout xkeys;
  Rng rng(config.seed);
  const int32_t handler_sym = symbols.Intern(kKrxHandlerName, SymbolKind::kFunction);
  CalleeClobberSummary clobbers;
  const bool use_clobbers = config.sfi == SfiLevel::kO4 && config.ra == RaScheme::kNone &&
                            !config.randomize_registers && !config.diversify &&
                            config.spec == SpecMitigation::kNone;
  if (use_clobbers) {
    times->callee_clobbers += TimeUs("ir.callee_clobbers", [&] {
      clobbers = ComputeCalleeClobbers(functions, [&symbols](const std::string& name) {
        return symbols.Intern(name, SymbolKind::kFunction);
      });
    });
  }
  Status st;
  for (Function& fn : functions) {
    ++stats.functions;
    if (fn.name() == kKrxHandlerName || config.exempt_functions.count(fn.name()) > 0) continue;
    if (config.HasRangeChecks() || config.mpx) {
      SfiStats fn_stats;
      times->sfi += TimeUs("plugin.sfi", [&] {
        st = ApplySfiPass(fn, config, handler_sym, edata, &fn_stats,
                          use_clobbers ? &clobbers : nullptr);
      });
      KRX_RETURN_IF_ERROR(st);
      stats.sfi.Accumulate(fn_stats);
      ++stats.instrumented_functions;
    }
    if (config.ra == RaScheme::kEncrypt) {
      times->ra_encrypt +=
          TimeUs("plugin.ra_encrypt", [&] { st = ApplyRaEncryptPass(fn, symbols, &xkeys); });
      KRX_RETURN_IF_ERROR(st);
    } else if (config.ra == RaScheme::kDecoy) {
      times->ra_decoy +=
          TimeUs("plugin.ra_decoy", [&] { st = ApplyRaDecoyPass(fn, rng, &stats.decoy); });
      KRX_RETURN_IF_ERROR(st);
    }
    if (config.randomize_registers) {
      times->reg_rand +=
          TimeUs("plugin.reg_rand", [&] { st = ApplyRegRandPass(fn, rng, &stats.reg_rand); });
      KRX_RETURN_IF_ERROR(st);
    }
    if (config.diversify) {
      times->kaslr += TimeUs("plugin.kaslr", [&] {
        st = ApplyKaslrPass(fn, config.entropy_bits_k, rng, &stats.kaslr);
      });
      KRX_RETURN_IF_ERROR(st);
    }
  }
  stats.xkeys = xkeys.symbol_offsets.size();
  *stats_key = StatsKey(stats);
  times->checks_emitted += stats.sfi.checks_emitted;

  if (config.diversify) rng.Shuffle(functions);
  Assembler assembler;
  TextBlob blob;
  for (const Function& fn : functions) {
    for (const BasicBlock& b : fn.blocks()) times->ir_insts += b.insts.size();
    times->assemble += TimeUs("kernel.assemble", [&] { st = assembler.Assemble(fn, &blob); });
    KRX_RETURN_IF_ERROR(st);
  }
  times->text_bytes += blob.bytes.size();
  return Status::Ok();
}

// The same source and config through ApplyProtection itself.
Result<std::string> ProtectReference(const KernelSource& source, const ProtectionConfig& config) {
  std::vector<Function> functions = source.functions;
  SymbolTable symbols = source.symbols;
  PipelineStats stats;
  XkeyLayout xkeys;
  Rng rng(config.seed);
  KRX_RETURN_IF_ERROR(ApplyProtection(functions, symbols, config,
                                      ComputeEdata(kDefaultPhantomGuardSize), &xkeys, &stats,
                                      rng));
  return StatsKey(stats);
}

bool ProbePlugin(uint64_t seed, const KernelSource& source, std::string* error) {
  struct ProbeConfig {
    const char* name;
    bool randomize_registers;
  };
  // Together these run every pass: SFI with O4 callee-clobber summaries,
  // encryption with register randomization, decoys, and KASLR slicing.
  const ProbeConfig probes[] = {{"sfi-o4", false}, {"sfi+x", true}, {"sfi+d", false}};
  for (int round = 0; round < kRounds; ++round) {
    PassTimes times;
    for (const ProbeConfig& p : probes) {
      ProtectionConfig config;
      LayoutKind layout;
      if (!ParseConfigName(p.name, seed | 1, &config, &layout)) {
        *error = std::string("unknown config ") + p.name;
        return false;
      }
      config.seed = seed | 1;
      config.randomize_registers = p.randomize_registers;
      std::string by_pass;
      Status st = ProtectByPass(source, config, &times, &by_pass);
      if (!st.ok()) {
        *error = std::string(p.name) + ": " + st.message();
        return false;
      }
      auto reference = ProtectReference(source, config);
      if (!reference.ok() || *reference != by_pass) {
        *error = std::string(p.name) + ": pass-by-pass PipelineStats differ from ApplyProtection";
        return false;
      }
    }
    TraceSample("plugin.sfi_us", times.sfi);
    TraceSample("plugin.ra_encrypt_us", times.ra_encrypt);
    TraceSample("plugin.ra_decoy_us", times.ra_decoy);
    TraceSample("plugin.reg_rand_us", times.reg_rand);
    TraceSample("plugin.kaslr_us", times.kaslr);
    TraceSample("ir.callee_clobbers_us", times.callee_clobbers);
    TraceSample("kernel.assemble_us", times.assemble);
    TraceSample("plugin.ir_insts", static_cast<double>(times.ir_insts));
    TraceSample("plugin.sfi.checks_emitted", static_cast<double>(times.checks_emitted));
    TraceSample("kernel.text_bytes", static_cast<double>(times.text_bytes));
  }
  return true;
}

// LinkKernel, key replenishment, map finalization, verification and the
// PhysMem constructor, on the link artifacts of one sfi+x build.
bool ProbeLink(uint64_t seed, const KernelSource& source, std::string* error) {
  TenantSpec spec;
  spec.config_name = "sfi+x";
  auto options = spec.ResolveBuildOptions(seed | 1);
  if (!options.ok()) {
    *error = options.status().message();
    return false;
  }
  options->verify = BuildOptions::Verify::kOn;
  auto built = CompileKernel(source, *options);
  if (!built.ok()) {
    *error = "probe build: " + built.status().message();
    return false;
  }
  const LinkArtifacts& artifacts = *built->artifacts;
  const VerifyOptions vopts = VerifyOptions::ForConfig(built->config);
  for (int round = 0; round < kRounds; ++round) {
    KernelLinkInput link;
    link.text = *artifacts.pristine;
    link.xkeys = artifacts.xkeys;
    link.xkey_symbols = artifacts.xkey_symbols;
    link.data_objects = artifacts.data_objects;
    link.phantom_guard_size = artifacts.phantom_guard_size;
    link.phys_bytes = artifacts.phys_bytes;
    Result<std::unique_ptr<KernelImage>> image = InternalError("not linked");
    TraceSample("kernel.link_us", TimeUs("kernel.link", [&] {
                  image = LinkKernel(built->layout, std::move(link), artifacts.symbols);
                }));
    if (!image.ok()) {
      *error = "link: " + image.status().message();
      return false;
    }
    Rng key_rng(seed + static_cast<uint64_t>(round));
    Status st;
    TraceSample("kernel.replenish_xkeys_us", TimeUs("kernel.replenish_xkeys", [&] {
                  st = (*image)->ReplenishXkeys(key_rng);
                }));
    RerandMap map;
    map.pristine = artifacts.pristine;
    map.pending_ptr_sites = artifacts.pending_ptr_sites;
    Status finalized;
    TraceSample("rerand.map_finalize_us",
                TimeUs("rerand.map_finalize", [&] { finalized = map.Finalize(**image); }));
    VerifyReport report;
    TraceSample("verify.image_us",
                TimeUs("verify.image", [&] { report = VerifyImage(**image, vopts); }));
    if (!st.ok() || !finalized.ok() || !report.ok()) {
      *error = "relinked image failed replenish, finalize or verification";
      return false;
    }
    TraceSample("mem.physmem_ctor_us", TimeUs("mem.physmem_ctor", [&] {
                  PhysMem mem(artifacts.phys_bytes);
                  if (mem.size() != artifacts.phys_bytes) st = InternalError("short PhysMem");
                }));
    if (!st.ok()) {
      *error = st.message();
      return false;
    }
  }
  return true;
}

// KernelCache hits and CoW materialization from a shared base build.
bool ProbeFleet(uint64_t seed, std::string* error) {
  KernelCache cache(MakeBenchSourceFactory(seed));
  TenantSpec spec;
  spec.config_name = "x";
  auto options = spec.ResolveBuildOptions(seed);
  if (!options.ok() || !cache.Acquire(*options, Sharing::kShared).ok()) {
    *error = "fleet probe: base build failed";
    return false;
  }
  for (int round = 0; round < kRounds; ++round) {
    Result<std::shared_ptr<CompiledKernel>> hit = InternalError("not acquired");
    TraceSample("fleet.acquire_hit_us", TimeUs("fleet.acquire", [&] {
                  hit = cache.Acquire(*options, Sharing::kShared);
                }));
    TenantSpec tenant = spec;
    tenant.seed = seed + 0x5EED + static_cast<uint64_t>(round);
    auto tenant_options = tenant.ResolveBuildOptions(seed);
    if (!hit.ok() || !tenant_options.ok()) {
      *error = "fleet probe: acquire failed";
      return false;
    }
    Result<CompiledKernel> kernel = InternalError("not materialized");
    TraceSample("fleet.materialize_us", TimeUs("fleet.materialize", [&] {
                  kernel = MaterializeTenant(**hit, *tenant_options, 32ULL << 20);
                }));
    if (!kernel.ok()) {
      *error = "fleet probe: " + kernel.status().message();
      return false;
    }
  }
  return true;
}

// One config's read-only exec-matrix tasks (LMBench rows and Phoronix
// mixes) on one shared image.
struct Slice {
  std::vector<TenantSpec> specs;
  std::vector<std::unique_ptr<Cpu>> cpus;
  std::vector<WorkloadBuffers> buffers;
};

Status BuildSlice(CompiledKernel& kernel, uint64_t seed, const CpuOptions& copts, Slice* slice) {
  for (const BenchTask& task : MakeBenchMatrix({"sfi-o3"}, 0, 1, true)) {
    if (WorkloadIsStateful(task.spec.workload)) continue;
    slice->specs.push_back(task.spec);
    std::unique_ptr<Cpu> cpu;
    TraceSample("cpu.init_us", TimeUs("cpu.init", [&] {
                  cpu = std::make_unique<Cpu>(kernel.image.get(), CostModel(), copts);
                }));
    if (!cpu->init_error().empty()) return InternalError(cpu->init_error());
    Result<WorkloadBuffers> buffers = InternalError("no buffers");
    TraceSample("workload.setup_buffers_us", TimeUs("workload.setup_buffers", [&] {
                  buffers = SetUpWorkloadBuffers(*kernel.image, task.spec.workload, seed);
                }));
    if (!buffers.ok()) return buffers.status();
    slice->cpus.push_back(std::move(cpu));
    slice->buffers.push_back(*buffers);
  }
  return Status::Ok();
}

// Runs the slice `passes` times; returns host ns per retired guest
// instruction and stores each task's first-pass counters in `results`.
Result<double> RunSlice(Slice& slice, ExecEngine engine, int passes, const char* span,
                        std::vector<WorkloadCounters>* results) {
  RunOptions run;
  run.engine = engine;
  run.max_steps = 50'000'000;
  uint64_t insts = 0;
  results->assign(slice.specs.size(), WorkloadCounters{});
  const Clock::time_point t0 = Clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < slice.specs.size(); ++i) {
      WorkloadCounters c;
      Status st;
      {
        SpanScope scope(span);
        st = RunWorkloadOnce(*slice.cpus[i], slice.specs[i], slice.buffers[i], run, &c);
      }
      if (!st.ok()) return st;
      insts += c.instructions;
      if (pass == 0) (*results)[i] = c;
    }
  }
  const double ns = UsBetween(t0, Clock::now()) * 1000.0;
  return insts == 0 ? 0.0 : ns / static_cast<double>(insts);
}

bool SameResults(const std::vector<WorkloadCounters>& a, const std::vector<WorkloadCounters>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].rax_checksum != b[i].rax_checksum || a[i].instructions != b[i].instructions ||
        a[i].deci_cycles != b[i].deci_cycles) {
      return false;
    }
  }
  return true;
}

bool ProbeCpu(uint64_t seed, const KernelSource& source, std::string* error) {
  constexpr int kPasses = 8;
  TenantSpec spec;
  spec.config_name = "sfi-o3";
  auto options = spec.ResolveBuildOptions(seed);
  if (!options.ok()) {
    *error = options.status().message();
    return false;
  }
  auto kernel = CompileKernel(source, *options);
  if (!kernel.ok()) {
    *error = "cpu probe build: " + kernel.status().message();
    return false;
  }
  struct Leg {
    ExecEngine engine;
    const char* span;
    const char* metric;
  };
  const Leg legs[] = {
      {ExecEngine::kSingleStep, "cpu.run_single_step", "cpu.single_step_ns_per_inst"},
      {ExecEngine::kBlockCache, "cpu.run_block_cache", "cpu.block_cache_ns_per_inst"},
      {ExecEngine::kSuperblock, "cpu.run_superblock", "cpu.superblock_ns_per_inst"},
  };
  std::vector<WorkloadCounters> reference;
  for (const Leg& leg : legs) {
    Slice slice;
    Status st = BuildSlice(*kernel, seed, CpuOptions(), &slice);
    if (!st.ok()) {
      *error = "cpu probe: " + st.message();
      return false;
    }
    const uint64_t frames = kernel->image->phys().frames_allocated();
    std::vector<WorkloadCounters> results;
    auto ns = RunSlice(slice, leg.engine, kPasses, leg.span, &results);
    if (!ns.ok()) {
      *error = std::string(leg.metric) + ": " + ns.status().message();
      return false;
    }
    if (reference.empty()) {
      reference = results;
    } else if (!SameResults(reference, results)) {
      *error = std::string(leg.metric) + ": engine diverged from single-step";
      return false;
    }
    TraceSample(leg.metric, *ns);
    TraceSample("mem.frames_allocated_delta",
                static_cast<double>(kernel->image->phys().frames_allocated() - frames));
    uint64_t hits = 0, misses = 0;
    SuperblockStats sb;
    for (const auto& cpu : slice.cpus) {
      hits += cpu->block_cache().stats().hits;
      misses += cpu->block_cache().stats().misses;
      const SuperblockStats& s = cpu->superblock_cache().stats();
      sb.entries += s.entries;
      sb.chain_breaks += s.chain_breaks;
      sb.executed_insts += s.executed_insts;
      sb.fastpath_insts += s.fastpath_insts;
      sb.tlb_hits += s.tlb_hits;
      sb.tlb_misses += s.tlb_misses;
    }
    if (leg.engine == ExecEngine::kBlockCache && hits + misses > 0) {
      TraceSample("cpu.block_cache.hit_rate",
                  static_cast<double>(hits) / static_cast<double>(hits + misses));
    }
    if (leg.engine == ExecEngine::kSuperblock && sb.entries > 0) {
      TraceSample("cpu.superblock.chain_break_ratio",
                  static_cast<double>(sb.chain_breaks) / static_cast<double>(sb.entries));
      TraceSample("cpu.superblock.fastpath_share", sb.fastpath_share());
      TraceSample("cpu.superblock.tlb_hit_rate", sb.tlb_hit_rate());
    }
  }

  // The speculation window forces single-step; spec-mask is the hardened
  // config it is meant to run against.
  TenantSpec spec_mask;
  spec_mask.config_name = "spec-mask";
  auto mask_options = spec_mask.ResolveBuildOptions(seed);
  auto mask_kernel = mask_options.ok() ? CompileKernel(source, *mask_options)
                                       : Result<CompiledKernel>(mask_options.status());
  if (!mask_kernel.ok()) {
    *error = "spec-mask build: " + mask_kernel.status().message();
    return false;
  }
  CpuOptions spec_opts;
  spec_opts.spec.enabled = true;
  Slice slice;
  Status st = BuildSlice(*mask_kernel, seed, spec_opts, &slice);
  std::vector<WorkloadCounters> results;
  auto ns = st.ok() ? RunSlice(slice, ExecEngine::kSingleStep, 2, "cpu.run_spec_window", &results)
                    : Result<double>(st);
  if (!ns.ok()) {
    *error = "spec window: " + ns.status().message();
    return false;
  }
  TraceSample("cpu.spec_window_ns_per_inst", *ns);
  return true;
}

}  // namespace

bool RunLayerProbes(uint64_t seed, std::string* error) {
  const KernelSource source = MakeBenchSourceFactory(seed)();
  return ProbePlugin(seed, source, error) && ProbeLink(seed, source, error) &&
         ProbeFleet(seed, error) && ProbeCpu(seed, source, error);
}

}  // namespace perfbench
