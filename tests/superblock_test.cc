// Superblock translate-and-chain engine: equivalence, invalidation, and the
// inline MMU translation cache.
//
// The contract under test (DESIGN.md §16): superblocked execution is an
// *optimization only* — every guest-visible field of a RunResult must be
// bit-identical to both the single-step interpreter and the predecoded
// block cache, across protection columns, step-limit boundaries, every
// text-mutation event (host pokes, module load/unload, guest SMC through
// physmap synonyms) and every page-table mutation (the inline TLB
// revalidates against the PageTable's page-generation counter).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/cpu/cpu.h"
#include "src/ir/builder.h"
#include "src/kernel/baseline_defenses.h"
#include "src/plugin/pipeline.h"
#include "src/rerand/quiesce.h"
#include "src/workload/corpus.h"
#include "src/workload/harness.h"

namespace krx {
namespace {

RunOptions Superblocked(uint64_t max_steps = kDefaultMaxSteps) {
  return RunOptions{.max_steps = max_steps, .engine = ExecEngine::kSuperblock};
}

RunOptions Cached(uint64_t max_steps = kDefaultMaxSteps) {
  return RunOptions{.max_steps = max_steps, .engine = ExecEngine::kBlockCache};
}

RunOptions SingleStep(uint64_t max_steps = kDefaultMaxSteps) {
  return RunOptions{.max_steps = max_steps, .engine = ExecEngine::kSingleStep};
}

// Every guest-visible field must match; wall time is the only thing the
// engines are allowed to change.
void ExpectSameResult(const RunResult& a, const RunResult& b, const std::string& context) {
  EXPECT_EQ(a.reason, b.reason) << context;
  EXPECT_EQ(a.exception, b.exception) << context;
  EXPECT_EQ(a.fault_addr, b.fault_addr) << context;
  EXPECT_EQ(a.rax, b.rax) << context;
  EXPECT_EQ(a.instructions, b.instructions) << context;
  EXPECT_EQ(a.deci_cycles, b.deci_cycles) << context;
  EXPECT_TRUE(a.mix == b.mix) << context;
  EXPECT_EQ(a.krx_violation, b.krx_violation) << context;
  EXPECT_EQ(a.xnr_violation, b.xnr_violation) << context;
}

void AddFunction(KernelSource* src, FunctionBuilder& b, const std::string& name) {
  src->functions.push_back(b.Build());
  src->symbols.Intern(name);
}

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

// sb_reader(buf): loops four loads of [buf] — a chained inner loop whose
// data accesses exercise the inline TLB on every iteration.
void AddReader(KernelSource* src) {
  FunctionBuilder b("sb_reader");
  int32_t loop = b.ReserveBlock();
  b.Emit(Instruction::MovRI(Reg::kRcx, 4));
  b.Bind(loop);
  b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 0)));
  b.Emit(Instruction::SubRI(Reg::kRcx, 1));
  b.Emit(Instruction::JccBlock(Cond::kNe, loop));
  b.Emit(Instruction::Ret());
  AddFunction(src, b, "sb_reader");
}

TEST(SuperblockDifferential, LmbenchOpsIdenticalAcrossThreeEngines) {
  for (const char* config_name : {"vanilla", "sfi-o3", "sfi-o4"}) {
    ProtectionConfig config;
    LayoutKind layout = LayoutKind::kKrx;
    ASSERT_TRUE(ParseConfigName(config_name, 0x51, &config, &layout));
    auto kernel = CompileKernel(MakeBenchSource(0x51), {config, layout});
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    CpuOptions opts;
    opts.mpx_enabled = config.mpx;
    Cpu sb_cpu(kernel->image.get(), CostModel(), opts);
    Cpu cached_cpu(kernel->image.get(), CostModel(), opts);
    Cpu step_cpu(kernel->image.get(), CostModel(), opts);
    auto buf = SetUpOpBuffer(*kernel->image, 0x51);
    ASSERT_TRUE(buf.ok());
    for (int pass = 0; pass < 2; ++pass) {  // pass 1 re-enters warm chains
      for (const char* op : {"sys_read_write", "sys_open_close", "sys_fstat", "sys_file_io_bw"}) {
        RunResult u = step_cpu.CallFunction(op, {*buf}, SingleStep());
        RunResult c = cached_cpu.CallFunction(op, {*buf}, Cached());
        RunResult s = sb_cpu.CallFunction(op, {*buf}, Superblocked());
        ASSERT_EQ(u.reason, StopReason::kReturned) << op;
        const std::string ctx = std::string(config_name) + "/" + op;
        ExpectSameResult(s, u, ctx + " (sb vs step)");
        ExpectSameResult(s, c, ctx + " (sb vs cached)");
      }
    }
    // The superblocked engine really chained and really took its fast paths.
    const SuperblockStats& stats = sb_cpu.superblock_cache().stats();
    EXPECT_GT(stats.chains_built, 0u) << config_name;
    EXPECT_GT(stats.blocks_chained, stats.chains_built)
        << config_name << ": no superblock chained more than one block";
    EXPECT_GT(stats.entries, 0u) << config_name;
    EXPECT_GT(stats.executed_insts, 0u) << config_name;
    EXPECT_GT(stats.fastpath_insts, 0u) << config_name;
    EXPECT_GT(stats.tlb_hits, 0u) << config_name;
    // And the other engines never touched the superblock machinery.
    EXPECT_EQ(step_cpu.superblock_cache().stats().entries, 0u);
    EXPECT_EQ(cached_cpu.superblock_cache().stats().entries, 0u);
  }
}

// The step budget must bite at exactly the same retired-instruction count:
// a chain must never replay past the limit.
TEST(SuperblockDifferential, StepLimitSweepIdentical) {
  auto kernel = CompileKernel(MakeBenchSource(0x52),
                              {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok());
  Cpu sb_cpu(kernel->image.get());
  Cpu step_cpu(kernel->image.get());
  auto buf = SetUpOpBuffer(*kernel->image, 0x52);
  ASSERT_TRUE(buf.ok());
  for (uint64_t limit = 1; limit <= 40; ++limit) {
    RunResult u = step_cpu.CallFunction("sys_read_write", {*buf}, SingleStep(limit));
    RunResult s = sb_cpu.CallFunction("sys_read_write", {*buf}, Superblocked(limit));
    ExpectSameResult(s, u, "limit=" + std::to_string(limit));
  }
}

TEST(SuperblockInvalidation, HostPokeTripsImmediately) {
  auto kernel =
      CompileKernel(MakeBaseSource(), {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok());
  KernelImage& image = *kernel->image;
  Cpu sb_cpu(&image);
  Cpu step_cpu(&image);

  auto entry = image.symbols().AddressOf("commit_creds");
  ASSERT_TRUE(entry.ok());
  RunResult warm = sb_cpu.CallFunction(*entry, {1}, Superblocked());
  ASSERT_EQ(warm.reason, StopReason::kReturned);

  // A byte smashed over the chained entry must change behavior on the very
  // next call (0xCC does not decode in this ISA, so both engines trap).
  uint8_t orig = 0;
  ASSERT_TRUE(image.PeekBytes(*entry, &orig, 1).ok());
  const uint8_t evil = 0xCC;
  ASSERT_TRUE(image.PokeBytes(*entry, &evil, 1).ok());
  RunResult u = step_cpu.CallFunction(*entry, {1}, SingleStep());
  RunResult s = sb_cpu.CallFunction(*entry, {1}, Superblocked());
  EXPECT_EQ(s.reason, StopReason::kException);
  EXPECT_NE(s.exception, ExceptionKind::kNone);
  ExpectSameResult(s, u, "poked entry");
  EXPECT_GT(sb_cpu.superblock_cache().stats().flushes, 0u);

  // Restoring the byte (another poke) invalidates the trapping chain in turn.
  ASSERT_TRUE(image.PokeBytes(*entry, &orig, 1).ok());
  RunResult again = sb_cpu.CallFunction(*entry, {1}, Superblocked());
  EXPECT_EQ(again.reason, StopReason::kReturned);
  EXPECT_EQ(again.rax, warm.rax);
}

TEST(SuperblockInvalidation, ModuleLoadUnloadInvalidates) {
  auto kernel =
      CompileKernel(MakeBaseSource(), {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok());
  KernelImage& image = *kernel->image;
  ModuleLoader loader(&image);
  Cpu sb_cpu(&image);
  Cpu step_cpu(&image);

  std::vector<Function> fns;
  {
    FunctionBuilder b("sb_mod_fn");
    b.Emit(Instruction::MovRI(Reg::kRax, 7));
    b.Emit(Instruction::AddRI(Reg::kRax, 4));
    b.Emit(Instruction::Ret());
    fns.push_back(b.Build());
    image.symbols().Intern("sb_mod_fn");
  }
  auto mod =
      CompileModule("sb_mod", fns, {}, image.symbols(), ProtectionConfig::SfiOnly(SfiLevel::kO3));
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  auto handle = loader.Load(*mod);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto entry = image.symbols().AddressOf("sb_mod_fn");
  ASSERT_TRUE(entry.ok());

  RunResult warm = sb_cpu.CallFunction(*entry, {}, Superblocked());
  ASSERT_EQ(warm.reason, StopReason::kReturned);
  EXPECT_EQ(warm.rax, 11u);

  // Unload zaps and unmaps the module text; a stale chain would happily
  // keep returning 11. Both engines must fault identically instead.
  ASSERT_TRUE(loader.Unload(*handle).ok());
  RunResult u = step_cpu.CallFunction(*entry, {}, SingleStep());
  RunResult s = sb_cpu.CallFunction(*entry, {}, Superblocked());
  EXPECT_NE(s.reason, StopReason::kReturned);
  ExpectSameResult(s, u, "unloaded module entry");
}

// Guest self-modification through a physmap synonym: the store retires
// inside a superblock (possibly through its inline TLB), must bump the text
// generation, and must kill the stale chain before its next dispatch.
TEST(SuperblockInvalidation, GuestStoreThroughPhysmapSynonym) {
  KernelSource src = MakeBaseSource();
  AddSmcHelpers(&src);
  auto kernel = CompileKernel(std::move(src), {ProtectionConfig::Vanilla(), LayoutKind::kVanilla});
  ASSERT_TRUE(kernel.ok());
  KernelImage& image = *kernel->image;
  Cpu sb_cpu(&image);
  Cpu step_cpu(&image);

  auto entry = image.symbols().AddressOf("smc_target");
  ASSERT_TRUE(entry.ok());
  const PlacedSection* text = image.FindSection(".text");
  ASSERT_NE(text, nullptr);
  ASSERT_GE(*entry, text->vaddr);
  const uint64_t frame = text->first_frame + ((*entry - text->vaddr) >> kPageShift);
  const uint64_t synonym = image.PhysmapVaddr(frame) + (*entry & (kPageSize - 1));
  ASSERT_TRUE(image.FrameIsCode(frame));

  RunResult warm = sb_cpu.CallFunction("smc_target", {}, Superblocked());
  ASSERT_EQ(warm.reason, StopReason::kReturned);
  ASSERT_EQ(warm.rax, 42u);

  auto orig = image.Peek64(*entry);
  ASSERT_TRUE(orig.ok());
  RunResult store =
      sb_cpu.CallFunction("smc_store", {synonym, 0xCCCCCCCCCCCCCCCCULL}, Superblocked());
  ASSERT_EQ(store.reason, StopReason::kReturned);

  RunResult u = step_cpu.CallFunction("smc_target", {}, SingleStep());
  RunResult s = sb_cpu.CallFunction("smc_target", {}, Superblocked());
  EXPECT_EQ(s.reason, StopReason::kException);
  EXPECT_NE(s.exception, ExceptionKind::kNone);
  ExpectSameResult(s, u, "after guest SMC");

  // And the guest can restore the bytes the same way.
  RunResult fix = sb_cpu.CallFunction("smc_store", {synonym, *orig}, Superblocked());
  ASSERT_EQ(fix.reason, StopReason::kReturned);
  RunResult again = sb_cpu.CallFunction("smc_target", {}, Superblocked());
  EXPECT_EQ(again.reason, StopReason::kReturned);
  EXPECT_EQ(again.rax, 42u);
}

// Invalidation follows the frames a guest store wrote, on every engine. A
// store to a plain data page leaves the text generation alone. A store whose
// first bytes land on a data page and whose last bytes cross into a physmap
// synonym of a code frame bumps it; it rewrites the bytes already there, so
// the code stays intact.
TEST(SuperblockInvalidation, StoresBumpTheTextGenerationOnlyWhenTheyWriteCode) {
  KernelSource src = MakeBaseSource();
  AddSmcHelpers(&src);
  auto kernel = CompileKernel(std::move(src), {ProtectionConfig::Vanilla(), LayoutKind::kVanilla});
  ASSERT_TRUE(kernel.ok());
  KernelImage& image = *kernel->image;
  const PlacedSection* text = image.FindSection(".text");
  ASSERT_NE(text, nullptr);
  ASSERT_TRUE(image.FrameIsCode(text->first_frame));
  ASSERT_FALSE(image.FrameIsCode(text->first_frame - 1));
  const uint64_t crossing = image.PhysmapVaddr(text->first_frame) - 4;
  auto same = image.Peek64(crossing);
  ASSERT_TRUE(same.ok());
  auto data = image.AllocDataPages(1);
  ASSERT_TRUE(data.ok());

  for (const RunOptions& engine : {SingleStep(), Cached(), Superblocked()}) {
    const std::string ctx = "engine " + std::to_string(static_cast<int>(engine.engine));
    Cpu cpu(&image);
    const uint64_t before = image.text_generation();
    RunResult plain = cpu.CallFunction("smc_store", {*data + 8, 0x5EED}, engine);
    ASSERT_EQ(plain.reason, StopReason::kReturned) << ctx;
    EXPECT_EQ(image.text_generation(), before) << ctx;

    RunResult code = cpu.CallFunction("smc_store", {crossing, *same}, engine);
    ASSERT_EQ(code.reason, StopReason::kReturned) << ctx;
    EXPECT_GT(image.text_generation(), before) << ctx;
  }
  EXPECT_EQ(*image.Peek64(crossing), *same);

  // A crossing store whose first page is a writable synonym of the last
  // text frame and whose second page is read-only raises write-protect
  // before it writes: no code byte changes, on any engine.
  const uint64_t after_text = text->first_frame + (text->mapped_size >> kPageShift);
  ASSERT_TRUE(image.FrameIsCode(after_text - 1));
  const uint64_t read_only = image.PhysmapVaddr(after_text);
  Pte* pte = image.page_table().LookupMutable(read_only);
  ASSERT_NE(pte, nullptr);
  const PteFlags saved = pte->flags;
  pte->flags.writable = false;
  image.page_table().BumpGeneration();
  const uint64_t blocked = read_only - 4;
  auto code_bytes = image.Peek64(blocked);
  ASSERT_TRUE(code_bytes.ok());
  for (const RunOptions& engine : {SingleStep(), Cached(), Superblocked()}) {
    const std::string ctx = "engine " + std::to_string(static_cast<int>(engine.engine));
    Cpu cpu(&image);
    RunResult r = cpu.CallFunction("smc_store", {blocked, ~*code_bytes}, engine);
    EXPECT_EQ(r.reason, StopReason::kException) << ctx;
    EXPECT_EQ(r.exception, ExceptionKind::kPageFault) << ctx;
    EXPECT_EQ(*image.Peek64(blocked), *code_bytes) << ctx;
  }
  image.page_table().LookupMutable(read_only)->flags = saved;
  image.page_table().BumpGeneration();
}

// The inline TLB revalidates against the page-generation counter: an unmap
// of a cached data page faults on the very next access (no stale
// translation survives), a remap heals it, and a bare generation bump
// forces a refill without changing behavior.
TEST(SuperblockTlb, PageGenerationInvalidatesStaleTranslations) {
  KernelSource src = MakeBaseSource();
  AddReader(&src);
  auto kernel =
      CompileKernel(std::move(src), {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok());
  KernelImage& image = *kernel->image;
  Cpu sb_cpu(&image);
  Cpu step_cpu(&image);
  auto buf = image.AllocDataPages(1);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(image.Poke64(*buf, 0xFEED).ok());

  RunResult warm = sb_cpu.CallFunction("sb_reader", {*buf}, Superblocked());
  ASSERT_EQ(warm.reason, StopReason::kReturned);
  EXPECT_EQ(warm.rax, 0xFEEDu);
  EXPECT_GT(sb_cpu.superblock_cache().stats().tlb_hits, 0u)
      << "the loop's loads never hit the inline TLB; the test proves nothing";

  // Unmap the page the TLB has cached. Map/Unmap bump the generation, so
  // the stale translation must not serve the next load: both engines take
  // the identical page fault.
  const std::optional<Pte> pte = image.page_table().Lookup(*buf);
  ASSERT_TRUE(pte.has_value());
  const Pte saved = *pte;
  image.page_table().Unmap(*buf);
  RunResult u = step_cpu.CallFunction("sb_reader", {*buf}, SingleStep());
  RunResult s = sb_cpu.CallFunction("sb_reader", {*buf}, Superblocked());
  EXPECT_NE(s.reason, StopReason::kReturned);
  ExpectSameResult(s, u, "unmapped data page");

  // Remapping heals it (another bump; the TLB refills).
  image.page_table().Map(*buf, saved.frame, saved.flags);
  RunResult healed = sb_cpu.CallFunction("sb_reader", {*buf}, Superblocked());
  EXPECT_EQ(healed.reason, StopReason::kReturned);
  EXPECT_EQ(healed.rax, 0xFEEDu);

  // A bare generation bump (the in-place-PTE-mutation contract: XnR
  // present-bit flips, fault injection) forces a refill but changes nothing
  // guest-visible.
  const uint64_t misses_before = sb_cpu.superblock_cache().stats().tlb_misses;
  image.page_table().BumpGeneration();
  RunResult after_bump = sb_cpu.CallFunction("sb_reader", {*buf}, Superblocked());
  EXPECT_EQ(after_bump.reason, StopReason::kReturned);
  EXPECT_EQ(after_bump.rax, 0xFEEDu);
  EXPECT_GT(sb_cpu.superblock_cache().stats().tlb_misses, misses_before)
      << "the bumped generation did not force a TLB refill";
}

// A step observer and an XnR image force the canonical single-step path
// even when the caller asked for superblocks. A speculation window does not:
// it is part of the shared Jcc semantics, so a spec-enabled run chains and
// matches single-step in its RunResult and its SpecStats.
TEST(SuperblockEligibility, ObserverAndXnrForceSingleStepSpecDoesNot) {
  {  // Step observer: must see every retired-instruction boundary.
    auto kernel = CompileKernel(MakeBaseSource(),
                                {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
    ASSERT_TRUE(kernel.ok());
    Cpu cpu(kernel->image.get());
    uint64_t observed = 0;
    cpu.set_step_observer([&observed](const Cpu&) { ++observed; });
    RunResult r = cpu.CallFunction("commit_creds", {1}, Superblocked());
    ASSERT_EQ(r.reason, StopReason::kReturned);
    // The final ret (sentinel pop) stops the run before the observer fires —
    // the seed interpreter's historical contract.
    EXPECT_EQ(observed + 1, r.instructions);
    EXPECT_EQ(cpu.superblock_cache().stats().entries, 0u);
    EXPECT_EQ(cpu.superblock_cache().stats().chains_built, 0u);

    // Dropping the observer re-enables chaining on the same Cpu.
    cpu.set_step_observer(nullptr);
    RunResult r2 = cpu.CallFunction("commit_creds", {1}, Superblocked());
    ASSERT_EQ(r2.reason, StopReason::kReturned);
    EXPECT_GT(cpu.superblock_cache().stats().chains_built, 0u);
  }
  {  // XnR: fetch faults are the defense; predecoded replay would skip them.
    auto kernel = CompileKernel(MakeBaseSource(),
                                {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
    ASSERT_TRUE(kernel.ok());
    ASSERT_NE(EnableXnr(*kernel->image, /*window_size=*/4), nullptr);
    Cpu cpu(kernel->image.get());
    RunResult r = cpu.CallFunction("commit_creds", {1}, Superblocked());
    ASSERT_EQ(r.reason, StopReason::kReturned);
    EXPECT_EQ(cpu.superblock_cache().stats().entries, 0u);
  }
  {  // Speculation window: sb_reader's loop branch mispredicts on a cold
     // predictor, so windows open inside chained execution.
    KernelSource src = MakeBaseSource();
    AddReader(&src);
    auto kernel = CompileKernel(std::move(src),
                                {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
    ASSERT_TRUE(kernel.ok());
    KernelImage& image = *kernel->image;
    auto buf = image.AllocDataPages(1);
    ASSERT_TRUE(buf.ok());
    ASSERT_TRUE(image.Poke64(*buf, 0xFEED).ok());
    CpuOptions opts;
    opts.spec.enabled = true;
    Cpu sb_cpu(&image, CostModel(), opts);
    Cpu step_cpu(&image, CostModel(), opts);
    for (int i = 0; i < 3; ++i) {
      RunResult s = sb_cpu.CallFunction("sb_reader", {*buf}, Superblocked());
      RunResult u = step_cpu.CallFunction("sb_reader", {*buf}, SingleStep());
      ASSERT_EQ(s.reason, StopReason::kReturned);
      ExpectSameResult(s, u, "spec window, call " + std::to_string(i));
    }
    EXPECT_GT(sb_cpu.superblock_cache().stats().chains_built, 0u);
    EXPECT_GT(sb_cpu.spec_stats().windows_opened, 0u);
    EXPECT_TRUE(sb_cpu.spec_stats() == step_cpu.spec_stats());
  }
}

// Cross-thread invalidation (the TSan target): reader Cpus run superblocked
// under the quiesce gate while a writer repeatedly takes the gate
// exclusively and pokes text (each poke bumps the text generation and
// flushes the chains). Every run must still return the right value; the
// atomics involved (text generation, page generation) must race-free-ly
// order against the predecode.
TEST(SuperblockConcurrency, ConcurrentInvalidationUnderQuiesceGate) {
  // sb_reader only *reads* shared guest state (each Cpu's stack is private
  // frames), so concurrent readers couple only through the text/page
  // generations — any cross-thread write the engine does on this workload
  // is a bug for TSan to catch, not test-induced noise.
  KernelSource src = MakeBaseSource();
  AddReader(&src);
  auto kernel =
      CompileKernel(std::move(src), {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok());
  KernelImage& image = *kernel->image;
  auto entry = image.symbols().AddressOf("sb_reader");
  ASSERT_TRUE(entry.ok());
  uint8_t byte = 0;
  ASSERT_TRUE(image.PeekBytes(*entry, &byte, 1).ok());

  QuiesceGate gate;
  constexpr int kReaders = 2;
  constexpr int kPokes = 25;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> runs{0};
  std::atomic<int> mismatches{0};

  // One private data page per reader, identical contents, mapped before any
  // thread starts.
  std::vector<uint64_t> bufs;
  for (int i = 0; i < kReaders + 1; ++i) {
    auto buf = image.AllocDataPages(1);
    ASSERT_TRUE(buf.ok());
    ASSERT_TRUE(image.Poke64(*buf, 0xFEED).ok());
    bufs.push_back(*buf);
  }

  // Baseline result from a private Cpu before any churn.
  Cpu baseline_cpu(&image);
  const RunResult baseline = baseline_cpu.CallFunction(*entry, {bufs.back()}, Superblocked());
  ASSERT_EQ(baseline.reason, StopReason::kReturned);
  ASSERT_EQ(baseline.rax, 0xFEEDu);

  std::atomic<uint64_t> reader_runs[kReaders] = {};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      Cpu cpu(&image);
      cpu.set_quiesce_gate(&gate);
      while (!stop.load(std::memory_order_relaxed)) {
        RunResult r = cpu.CallFunction(*entry, {bufs[static_cast<size_t>(i)]}, Superblocked());
        if (r.reason != StopReason::kReturned || r.rax != baseline.rax ||
            r.instructions != baseline.instructions) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        reader_runs[i].fetch_add(1, std::memory_order_relaxed);
        runs.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // The writer must interleave with live readers: it waits for every
  // reader's first completed run before the first poke, and for another
  // completed run between pokes. Without the waits a loaded host lets all
  // pokes land before any reader finishes a run. Both waits are bounded.
  auto wait_until = [](auto done) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  bool interleaved = wait_until([&] {
    for (const auto& n : reader_runs) {
      if (n.load(std::memory_order_relaxed) == 0) return false;
    }
    return true;
  });
  bool pokes_ok = true;
  for (int i = 0; i < kPokes && interleaved && pokes_ok; ++i) {
    gate.BeginExclusive();
    // Rewriting the same byte is semantically a no-op but bumps the text
    // generation — the pure-invalidation stressor.
    pokes_ok = image.PokeBytes(*entry, &byte, 1).ok();
    gate.EndExclusive();
    const uint64_t seen = runs.load(std::memory_order_relaxed);
    interleaved = wait_until([&] { return runs.load(std::memory_order_relaxed) > seen; });
  }
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_TRUE(pokes_ok) << "PokeBytes failed";
  EXPECT_TRUE(interleaved) << "timed out waiting for a reader run between pokes";
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(runs.load(), static_cast<uint64_t>(kPokes));
}

}  // namespace
}  // namespace krx
