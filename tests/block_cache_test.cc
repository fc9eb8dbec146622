// Predecoded-block-cache equivalence and invalidation.
//
// The contract under test (DESIGN.md §9): cached execution is an
// *optimization only* — every guest-visible field of a RunResult must be
// bit-identical to the single-step interpreter, across protection columns,
// step-limit boundaries, and every text-mutation event (host pokes, module
// load/unload, guest self-modification through physmap synonyms).
#include <gtest/gtest.h>

#include "src/cpu/cpu.h"
#include "src/ir/builder.h"
#include "src/plugin/pipeline.h"
#include "src/workload/corpus.h"
#include "src/workload/harness.h"

namespace krx {
namespace {

RunOptions Cached(uint64_t max_steps = kDefaultMaxSteps) {
  return RunOptions{.max_steps = max_steps, .engine = ExecEngine::kBlockCache};
}

RunOptions Uncached(uint64_t max_steps = kDefaultMaxSteps) {
  return RunOptions{.max_steps = max_steps, .engine = ExecEngine::kSingleStep};
}

// Every guest-visible field must match; wall time is the only thing the
// cache is allowed to change.
void ExpectSameResult(const RunResult& cached, const RunResult& uncached,
                      const std::string& context) {
  EXPECT_EQ(cached.reason, uncached.reason) << context;
  EXPECT_EQ(cached.exception, uncached.exception) << context;
  EXPECT_EQ(cached.fault_addr, uncached.fault_addr) << context;
  EXPECT_EQ(cached.rax, uncached.rax) << context;
  EXPECT_EQ(cached.instructions, uncached.instructions) << context;
  EXPECT_EQ(cached.deci_cycles, uncached.deci_cycles) << context;
  EXPECT_TRUE(cached.mix == uncached.mix) << context;
  EXPECT_EQ(cached.krx_violation, uncached.krx_violation) << context;
  EXPECT_EQ(cached.xnr_violation, uncached.xnr_violation) << context;
}

void AddFunction(KernelSource* src, FunctionBuilder& b, const std::string& name) {
  src->functions.push_back(b.Build());
  src->symbols.Intern(name);
}

// smc_store(dst, val): a guest store primitive — the vehicle for
// self-modification through a physmap synonym.
void AddSmcHelpers(KernelSource* src) {
  {
    FunctionBuilder b("smc_store");
    b.Emit(Instruction::Store(MemOperand::Base(Reg::kRdi, 0), Reg::kRsi));
    b.Emit(Instruction::Ret());
    AddFunction(src, b, "smc_store");
  }
  {
    FunctionBuilder b("smc_target");
    b.Emit(Instruction::MovRI(Reg::kRax, 42));
    b.Emit(Instruction::Ret());
    AddFunction(src, b, "smc_target");
  }
}

TEST(BlockCacheDifferential, LmbenchOpsIdenticalAcrossEngines) {
  for (const char* config_name : {"vanilla", "sfi-o3"}) {
    ProtectionConfig config;
    LayoutKind layout = LayoutKind::kKrx;
    ASSERT_TRUE(ParseConfigName(config_name, 0x51, &config, &layout));
    auto kernel = CompileKernel(MakeBenchSource(0x51), {config, layout});
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    CpuOptions opts;
    opts.mpx_enabled = config.mpx;
    Cpu cached_cpu(kernel->image.get(), CostModel(), opts);
    Cpu uncached_cpu(kernel->image.get(), CostModel(), opts);
    auto buf = SetUpOpBuffer(*kernel->image, 0x51);
    ASSERT_TRUE(buf.ok());
    for (const char* op : {"sys_read_write", "sys_open_close", "sys_fstat", "sys_file_io_bw"}) {
      RunResult u = uncached_cpu.CallFunction(op, {*buf}, Uncached());
      RunResult c = cached_cpu.CallFunction(op, {*buf}, Cached());
      ASSERT_EQ(u.reason, StopReason::kReturned) << op;
      ExpectSameResult(c, u, std::string(config_name) + "/" + op);
    }
    // The cached engine really ran through the cache.
    const BlockCacheStats& stats = cached_cpu.block_cache().stats();
    EXPECT_GT(stats.decoded_insts, 0u);
    EXPECT_GT(stats.hits, 0u) << "ops share blocks; rerunning them must hit";
    EXPECT_EQ(uncached_cpu.block_cache().stats().decoded_insts, 0u);
  }
}

// The step budget must bite at exactly the same retired-instruction count:
// a block must never be replayed past the limit.
TEST(BlockCacheDifferential, StepLimitSweepIdentical) {
  auto kernel =
      CompileKernel(MakeBenchSource(0x52), {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok());
  Cpu cached_cpu(kernel->image.get());
  Cpu uncached_cpu(kernel->image.get());
  auto buf = SetUpOpBuffer(*kernel->image, 0x52);
  ASSERT_TRUE(buf.ok());
  for (uint64_t limit = 1; limit <= 40; ++limit) {
    RunResult u = uncached_cpu.CallFunction("sys_read_write", {*buf}, Uncached(limit));
    RunResult c = cached_cpu.CallFunction("sys_read_write", {*buf}, Cached(limit));
    ExpectSameResult(c, u, "limit=" + std::to_string(limit));
  }
}

TEST(BlockCacheInvalidation, HostPokeTripsImmediately) {
  auto kernel = CompileKernel(MakeBaseSource(), {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok());
  KernelImage& image = *kernel->image;
  Cpu cached_cpu(&image);
  Cpu uncached_cpu(&image);
  auto buf = image.AllocDataPages(1);
  ASSERT_TRUE(buf.ok());

  auto entry = image.symbols().AddressOf("commit_creds");
  ASSERT_TRUE(entry.ok());
  RunResult warm = cached_cpu.CallFunction(*entry, {1}, Cached());
  ASSERT_EQ(warm.reason, StopReason::kReturned);

  // A byte smashed over the cached entry must change behavior on the very
  // next call (0xCC does not decode in this ISA, so both engines trap).
  uint8_t orig = 0;
  ASSERT_TRUE(image.PeekBytes(*entry, &orig, 1).ok());
  const uint8_t evil = 0xCC;
  ASSERT_TRUE(image.PokeBytes(*entry, &evil, 1).ok());
  RunResult u = uncached_cpu.CallFunction(*entry, {1}, Uncached());
  RunResult c = cached_cpu.CallFunction(*entry, {1}, Cached());
  EXPECT_EQ(c.reason, StopReason::kException);
  EXPECT_NE(c.exception, ExceptionKind::kNone);
  ExpectSameResult(c, u, "poked entry");
  EXPECT_GT(cached_cpu.block_cache().stats().flushes, 0u);

  // Restoring the byte (another poke) invalidates the trapping block in turn.
  ASSERT_TRUE(image.PokeBytes(*entry, &orig, 1).ok());
  RunResult again = cached_cpu.CallFunction(*entry, {1}, Cached());
  EXPECT_EQ(again.reason, StopReason::kReturned);
  EXPECT_EQ(again.rax, warm.rax);
}

TEST(BlockCacheInvalidation, ModuleLoadUnloadInvalidates) {
  auto kernel = CompileKernel(MakeBaseSource(), {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok());
  KernelImage& image = *kernel->image;
  ModuleLoader loader(&image);
  Cpu cached_cpu(&image);
  Cpu uncached_cpu(&image);

  std::vector<Function> fns;
  {
    FunctionBuilder b("bc_mod_fn");
    b.Emit(Instruction::MovRI(Reg::kRax, 7));
    b.Emit(Instruction::AddRI(Reg::kRax, 4));
    b.Emit(Instruction::Ret());
    fns.push_back(b.Build());
    image.symbols().Intern("bc_mod_fn");
  }
  auto mod = CompileModule("bc_mod", fns, {}, image.symbols(), ProtectionConfig::SfiOnly(SfiLevel::kO3));
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  auto handle = loader.Load(*mod);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto entry = image.symbols().AddressOf("bc_mod_fn");
  ASSERT_TRUE(entry.ok());

  RunResult warm = cached_cpu.CallFunction(*entry, {}, Cached());
  ASSERT_EQ(warm.reason, StopReason::kReturned);
  EXPECT_EQ(warm.rax, 11u);

  // Unload zaps and unmaps the module text; a stale predecoded block would
  // happily keep returning 11. Both engines must fault identically instead.
  ASSERT_TRUE(loader.Unload(*handle).ok());
  RunResult u = uncached_cpu.CallFunction(*entry, {}, Uncached());
  RunResult c = cached_cpu.CallFunction(*entry, {}, Cached());
  EXPECT_NE(c.reason, StopReason::kReturned);
  ExpectSameResult(c, u, "unloaded module entry");
}

// Guest self-modification through a physmap synonym (vanilla layout keeps
// the synonyms): the write lands via DataWrite64, which must bump the text
// generation and kill the stale block mid-everything.
TEST(BlockCacheInvalidation, GuestStoreThroughPhysmapSynonym) {
  KernelSource src = MakeBaseSource();
  AddSmcHelpers(&src);
  auto kernel = CompileKernel(std::move(src), {ProtectionConfig::Vanilla(), LayoutKind::kVanilla});
  ASSERT_TRUE(kernel.ok());
  KernelImage& image = *kernel->image;
  Cpu cached_cpu(&image);
  Cpu uncached_cpu(&image);

  auto entry = image.symbols().AddressOf("smc_target");
  ASSERT_TRUE(entry.ok());
  const PlacedSection* text = image.FindSection(".text");
  ASSERT_NE(text, nullptr);
  ASSERT_GE(*entry, text->vaddr);
  const uint64_t frame = text->first_frame + ((*entry - text->vaddr) >> kPageShift);
  const uint64_t synonym = image.PhysmapVaddr(frame) + (*entry & (kPageSize - 1));
  ASSERT_TRUE(image.FrameIsCode(frame));

  RunResult warm = cached_cpu.CallFunction("smc_target", {}, Cached());
  ASSERT_EQ(warm.reason, StopReason::kReturned);
  ASSERT_EQ(warm.rax, 42u);

  auto orig = image.Peek64(*entry);
  ASSERT_TRUE(orig.ok());
  // Guest store of eight undecodable bytes over smc_target's entry, via the
  // writable synonym. No host-side poke is involved.
  RunResult store = cached_cpu.CallFunction("smc_store", {synonym, 0xCCCCCCCCCCCCCCCCULL}, Cached());
  ASSERT_EQ(store.reason, StopReason::kReturned);

  RunResult u = uncached_cpu.CallFunction("smc_target", {}, Uncached());
  RunResult c = cached_cpu.CallFunction("smc_target", {}, Cached());
  EXPECT_EQ(c.reason, StopReason::kException);
  EXPECT_NE(c.exception, ExceptionKind::kNone);
  ExpectSameResult(c, u, "after guest SMC");

  // And the guest can restore the bytes the same way.
  RunResult fix = cached_cpu.CallFunction("smc_store", {synonym, *orig}, Cached());
  ASSERT_EQ(fix.reason, StopReason::kReturned);
  RunResult again = cached_cpu.CallFunction("smc_target", {}, Cached());
  EXPECT_EQ(again.reason, StopReason::kReturned);
  EXPECT_EQ(again.rax, 42u);
}

// A step observer must see every single retired instruction, which forces
// the uncached engine even when the caller asked for the cache.
TEST(BlockCacheObserver, ObserverForcesUncachedExecution) {
  auto kernel = CompileKernel(MakeBaseSource(), {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok());
  Cpu cpu(kernel->image.get());
  uint64_t observed = 0;
  cpu.set_step_observer([&observed](const Cpu&) { ++observed; });
  RunResult r = cpu.CallFunction("commit_creds", {1}, Cached());
  ASSERT_EQ(r.reason, StopReason::kReturned);
  // The final ret (sentinel pop) stops the run before the observer fires —
  // the seed interpreter's historical contract.
  EXPECT_EQ(observed + 1, r.instructions);
  const BlockCacheStats& stats = cpu.block_cache().stats();
  EXPECT_EQ(stats.hits + stats.misses, 0u) << "observer runs must bypass the cache entirely";

  // Dropping the observer re-enables the cache on the same Cpu.
  cpu.set_step_observer(nullptr);
  RunResult r2 = cpu.CallFunction("commit_creds", {1}, Cached());
  ASSERT_EQ(r2.reason, StopReason::kReturned);
  EXPECT_GT(cpu.block_cache().stats().decoded_insts, 0u);
}

TEST(TextGeneration, BumpsOnCodeEventsOnly) {
  auto kernel = CompileKernel(MakeBaseSource(), {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok());
  KernelImage& image = *kernel->image;

  // Data pokes leave the generation alone (a bump per scratch-buffer write
  // would flush block caches constantly for no reason).
  auto buf = image.AllocDataPages(1);
  ASSERT_TRUE(buf.ok());
  const uint64_t before = image.text_generation();
  ASSERT_TRUE(image.Poke64(*buf, 0xDEAD).ok());
  EXPECT_EQ(image.text_generation(), before);

  // Code pokes bump.
  auto entry = image.symbols().AddressOf("commit_creds");
  ASSERT_TRUE(entry.ok());
  uint8_t byte = 0;
  ASSERT_TRUE(image.PeekBytes(*entry, &byte, 1).ok());
  ASSERT_TRUE(image.PokeBytes(*entry, &byte, 1).ok());
  EXPECT_GT(image.text_generation(), before);

  // New executable mappings bump (they create fetchable bytes).
  const uint64_t after_poke = image.text_generation();
  ASSERT_TRUE(image.MapUserPages(0x400000, 1).ok());
  EXPECT_GT(image.text_generation(), after_poke);
}

}  // namespace
}  // namespace krx
