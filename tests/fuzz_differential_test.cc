// Differential fuzzing: structured random kernel functions are compiled
// vanilla and under every protection column; all variants must compute the
// same result (%rax and the written memory region), return cleanly, and
// never fire a spurious R^X violation. This is the semantic-transparency
// invariant of DESIGN.md §5 exercised far beyond the hand-written ops.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>

#include "src/base/rng.h"
#include "src/isa/encoding.h"
#include "src/ir/builder.h"
#include "src/rerand/engine.h"
#include "src/workload/corpus.h"
#include "src/workload/harness.h"

namespace krx {
namespace {

// Registers the generator computes with. %rax is the fold target; %r9 is
// reserved for loop counters; %r10/%r11 belong to the instrumentation;
// argument/string registers are handled specially.
constexpr Reg kPool[] = {Reg::kRbx, Reg::kRcx, Reg::kRdx, Reg::kR8,
                         Reg::kR12, Reg::kR13, Reg::kR14, Reg::kR15};

class RandomProgram {
 public:
  RandomProgram(KernelSource* src, uint64_t seed) : src_(src), rng_(seed) {}

  // Emits `count` functions; later ones may call earlier ones.
  std::vector<std::string> EmitFunctions(int count) {
    std::vector<std::string> names;
    for (int i = 0; i < count; ++i) {
      std::string name = "fuzz" + std::to_string(seed_tag_) + "_" + std::to_string(i);
      EmitOne(name, names);
      names.push_back(name);
    }
    return names;
  }

  void set_seed_tag(uint64_t tag) { seed_tag_ = tag; }

 private:
  Reg PickReg() { return kPool[rng_.NextBelow(std::size(kPool))]; }
  int64_t ReadDisp() { return 8 * static_cast<int64_t>(rng_.NextBelow(512)); }
  int64_t WriteDisp() { return 4096 + 8 * static_cast<int64_t>(rng_.NextBelow(512)); }

  void EmitArith(FunctionBuilder& b) {
    Reg r = PickReg();
    switch (rng_.NextBelow(6)) {
      case 0: b.Emit(Instruction::AddRI(r, rng_.NextInRange(-1000, 1000))); break;
      case 1: b.Emit(Instruction::XorRI(r, static_cast<int64_t>(rng_.NextBelow(1 << 20)))); break;
      case 2: b.Emit(Instruction::AddRR(r, PickReg())); break;
      case 3: b.Emit(Instruction::SubRR(r, PickReg())); break;
      case 4: b.Emit(Instruction::ShlRI(r, static_cast<int64_t>(rng_.NextBelow(8)))); break;
      default: b.Emit(Instruction::OrRR(r, PickReg())); break;
    }
  }

  void EmitRead(FunctionBuilder& b) {
    Reg r = PickReg();
    switch (rng_.NextBelow(4)) {
      case 0:  // same-base read: coalescible
        b.Emit(Instruction::AddRM(r, MemOperand::Base(Reg::kRdi, ReadDisp())));
        break;
      case 1: {  // pointer chase through a fresh base
        // The base register holds an *address* (build-dependent), so it must
        // not be a pool register that gets folded into the result.
        b.Emit(Instruction::Lea(Reg::kRsi, MemOperand::Base(Reg::kRdi, ReadDisp())));
        b.Emit(Instruction::Load(r, MemOperand::Base(Reg::kRsi, 0)));
        break;
      }
      case 2: {  // bounded indexed read: lea-form check
        Reg idx = PickReg();
        b.Emit(Instruction::MovRI(idx, static_cast<int64_t>(rng_.NextBelow(64))));
        b.Emit(Instruction::AddRM(r, MemOperand::BaseIndex(Reg::kRdi, idx, 8, 0)));
        break;
      }
      default:  // cmp-with-memory: flags from a read
        b.Emit(Instruction::CmpRM(r, MemOperand::Base(Reg::kRdi, ReadDisp())));
        break;
    }
  }

  void EmitDiamond(FunctionBuilder& b) {
    int32_t skip = b.ReserveBlock();
    b.Emit(Instruction::CmpRI(PickReg(), rng_.NextInRange(-50, 50)));
    if (rng_.NextBool(0.4)) {
      // A read between the cmp and the jcc: forces a kept wrapper.
      b.Emit(Instruction::Load(PickReg(), MemOperand::Base(Reg::kRdi, ReadDisp())));
    }
    b.Emit(Instruction::JccBlock(static_cast<Cond>(rng_.NextBelow(12)), skip));
    for (uint64_t i = 0; i < 1 + rng_.NextBelow(3); ++i) {
      EmitArith(b);
    }
    b.Bind(skip);
  }

  void EmitLoop(FunctionBuilder& b) {
    b.Emit(Instruction::MovRI(Reg::kR9, static_cast<int64_t>(1 + rng_.NextBelow(5))));
    int32_t head = b.ReserveBlock();
    b.Bind(head);
    for (uint64_t i = 0; i < 1 + rng_.NextBelow(3); ++i) {
      if (rng_.NextBool(0.5)) {
        EmitRead(b);
      } else {
        EmitArith(b);
      }
    }
    b.Emit(Instruction::SubRI(Reg::kR9, 1));
    b.Emit(Instruction::JccBlock(Cond::kNe, head));
  }

  void EmitWrite(FunctionBuilder& b) {
    b.Emit(Instruction::Store(MemOperand::Base(Reg::kRdi, WriteDisp()), PickReg()));
  }

  void EmitCall(FunctionBuilder& b, const std::vector<std::string>& earlier) {
    if (earlier.empty()) {
      EmitArith(b);
      return;
    }
    const std::string& callee = earlier[rng_.NextBelow(earlier.size())];
    // Spill the state a caller cares about; everything is clobbered.
    b.Emit(Instruction::Store(MemOperand::Base(Reg::kRsp, 8), Reg::kRbx));
    b.Emit(Instruction::CallSym(src_->symbols.Intern(callee)));
    b.Emit(Instruction::Load(Reg::kRdi, MemOperand::Base(Reg::kRsp, 0)));  // restore buf
    b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRsp, 8)));
    b.Emit(Instruction::AddRR(Reg::kRbx, Reg::kRax));
  }

  void EmitString(FunctionBuilder& b) {
    b.Emit(Instruction::MovRR(Reg::kRsi, Reg::kRdi));
    b.Emit(Instruction::AddRI(Reg::kRdi, 8192 + 8 * static_cast<int64_t>(rng_.NextBelow(64))));
    b.Emit(Instruction::MovRI(Reg::kRcx, static_cast<int64_t>(1 + rng_.NextBelow(24))));
    b.Emit(Instruction::Movsq(/*rep_prefix=*/true));
    b.Emit(Instruction::Load(Reg::kRdi, MemOperand::Base(Reg::kRsp, 0)));
  }

  void EmitOne(const std::string& name, const std::vector<std::string>& earlier) {
    FunctionBuilder b(name);
    b.Emit(Instruction::SubRI(Reg::kRsp, 32));
    b.Emit(Instruction::Store(MemOperand::Base(Reg::kRsp, 0), Reg::kRdi));
    for (Reg r : kPool) {
      b.Emit(Instruction::MovRI(r, static_cast<int64_t>(rng_.NextBelow(1 << 16))));
    }
    uint64_t segments = 4 + rng_.NextBelow(10);
    for (uint64_t s = 0; s < segments; ++s) {
      switch (rng_.NextBelow(8)) {
        case 0:
        case 1:
          EmitRead(b);
          break;
        case 2:
          EmitArith(b);
          break;
        case 3:
          EmitDiamond(b);
          break;
        case 4:
          EmitLoop(b);
          break;
        case 5:
          EmitWrite(b);
          break;
        case 6:
          EmitCall(b, earlier);
          break;
        default:
          EmitString(b);
          break;
      }
    }
    // Fold the pool into the return value.
    b.Emit(Instruction::MovRI(Reg::kRax, 0));
    for (Reg r : kPool) {
      b.Emit(Instruction::XorRR(Reg::kRax, r));
    }
    b.Emit(Instruction::AddRI(Reg::kRsp, 32));
    b.Emit(Instruction::Ret());
    src_->functions.push_back(b.Build());
    src_->symbols.Intern(name);
  }

  KernelSource* src_;
  Rng rng_;
  uint64_t seed_tag_ = 0;
};

// Checksum of the writable scratch region (writes + string destinations).
uint64_t RegionChecksum(KernelImage& image, uint64_t buf) {
  uint64_t sum = 0xcbf29ce484222325ULL;
  for (uint64_t off = 4096; off < 16384; off += 8) {
    auto v = image.Peek64(buf + off);
    KRX_CHECK(v.ok());
    sum = (sum ^ *v) * 0x100000001b3ULL;
  }
  return sum;
}

class FuzzDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDifferential, AllColumnsAgreeWithVanilla) {
  const uint64_t seed = GetParam();
  KernelSource src = MakeBaseSource();
  RandomProgram gen(&src, seed);
  gen.set_seed_tag(seed);
  std::vector<std::string> fns = gen.EmitFunctions(6);

  struct Expected {
    uint64_t rax;
    uint64_t checksum;
  };
  std::vector<Expected> expected;
  {
    auto vanilla = CompileKernel(src, {ProtectionConfig::Vanilla(), LayoutKind::kVanilla});
    ASSERT_TRUE(vanilla.ok());
    Cpu cpu(vanilla->image.get());
    for (const std::string& fn : fns) {
      auto buf = SetUpOpBuffer(*vanilla->image, seed);
      ASSERT_TRUE(buf.ok());
      RunResult r = cpu.CallFunction(fn, {*buf});
      ASSERT_EQ(r.reason, StopReason::kReturned) << fn;
      expected.push_back({r.rax, RegionChecksum(*vanilla->image, *buf)});
    }
  }

  for (const Column& col : Table1Columns(seed)) {
    auto kernel = CompileKernel(src, {col.config, col.layout});
    ASSERT_TRUE(kernel.ok()) << col.name;
    CpuOptions opts;
    opts.mpx_enabled = col.config.mpx;
    Cpu cpu(kernel->image.get(), CostModel(), opts);
    for (size_t i = 0; i < fns.size(); ++i) {
      auto buf = SetUpOpBuffer(*kernel->image, seed);
      ASSERT_TRUE(buf.ok());
      RunResult r = cpu.CallFunction(fns[i], {*buf});
      ASSERT_EQ(r.reason, StopReason::kReturned) << col.name << "/" << fns[i] << " "
                                                 << ExceptionKindName(r.exception);
      EXPECT_FALSE(r.krx_violation) << col.name << "/" << fns[i] << " spurious violation";
      EXPECT_EQ(r.rax, expected[i].rax) << col.name << "/" << fns[i];
      EXPECT_EQ(RegionChecksum(*kernel->image, *buf), expected[i].checksum)
          << col.name << "/" << fns[i];
    }
  }
}

// O3 vs O4 head-to-head: the O4 elisions and hoists must be invisible to
// the guest (same results, same writes, no spurious violations) while
// strictly reducing dynamic work — the payoff side of the static-analysis
// contract that the verifier re-proves the soundness side of.
TEST_P(FuzzDifferential, O4MatchesO3WithFewerRetiredInstructions) {
  const uint64_t seed = GetParam();
  KernelSource src = MakeBaseSource();
  RandomProgram gen(&src, seed ^ 0x04040404);
  gen.set_seed_tag(seed + 300);
  std::vector<std::string> fns = gen.EmitFunctions(6);

  struct Pair {
    const char* name;
    ProtectionConfig o3;
    ProtectionConfig o4;
  };
  ProtectionConfig mpx_o4 = ProtectionConfig::MpxOnly();
  mpx_o4.sfi = SfiLevel::kO4;
  const Pair pairs[] = {
      {"sfi", ProtectionConfig::SfiOnly(SfiLevel::kO3), ProtectionConfig::SfiOnly(SfiLevel::kO4)},
      {"mpx", ProtectionConfig::MpxOnly(), mpx_o4},
  };
  for (const Pair& pair : pairs) {
    auto k3 = CompileKernel(src, {pair.o3, LayoutKind::kKrx});
    auto k4 = CompileKernel(src, {pair.o4, LayoutKind::kKrx});
    ASSERT_TRUE(k3.ok()) << pair.name;
    ASSERT_TRUE(k4.ok()) << pair.name;
    // Static side: O4 strictly generalizes the O3 analysis, so it never
    // emits more checks and never elides fewer. (Emitted counts can tie:
    // hoisting trades an in-loop check for a preheader check one-for-one;
    // the win is dynamic, asserted below.)
    EXPECT_LE(k4->stats.sfi.checks_emitted, k3->stats.sfi.checks_emitted) << pair.name;
    EXPECT_GE(k4->stats.sfi.checks_coalesced, k3->stats.sfi.checks_coalesced) << pair.name;
    CpuOptions opts;
    opts.mpx_enabled = pair.o3.mpx;
    Cpu cpu3(k3->image.get(), CostModel(), opts);
    Cpu cpu4(k4->image.get(), CostModel(), opts);
    uint64_t retired3 = 0;
    uint64_t retired4 = 0;
    for (const std::string& fn : fns) {
      auto buf3 = SetUpOpBuffer(*k3->image, seed);
      auto buf4 = SetUpOpBuffer(*k4->image, seed);
      ASSERT_TRUE(buf3.ok());
      ASSERT_TRUE(buf4.ok());
      RunResult r3 = cpu3.CallFunction(fn, {*buf3});
      RunResult r4 = cpu4.CallFunction(fn, {*buf4});
      const std::string context = std::string(pair.name) + "/" + fn;
      ASSERT_EQ(r3.reason, StopReason::kReturned) << context;
      ASSERT_EQ(r4.reason, StopReason::kReturned) << context;
      EXPECT_FALSE(r4.krx_violation) << context;
      EXPECT_EQ(r4.rax, r3.rax) << context;
      EXPECT_EQ(RegionChecksum(*k4->image, *buf4), RegionChecksum(*k3->image, *buf3)) << context;
      retired3 += r3.instructions;
      retired4 += r4.instructions;
    }
    // The elided checks translate into strictly less dynamic work.
    EXPECT_LT(retired4, retired3) << pair.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// Second differential axis: the predecoded-block-cache engine vs. the
// single-step interpreter, over the same random programs. Every
// guest-visible RunResult field must match bit-for-bit — including the
// exception trace after text corruption, when stale cached blocks would be
// the bug.
void ExpectSameRunResult(const RunResult& cached, const RunResult& uncached,
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

TEST_P(FuzzDifferential, CachedEngineMatchesUncached) {
  const uint64_t seed = GetParam();
  KernelSource src = MakeBaseSource();
  RandomProgram gen(&src, seed ^ 0xCAFEF00D);
  gen.set_seed_tag(seed + 100);
  std::vector<std::string> fns = gen.EmitFunctions(4);

  std::vector<Column> columns = {
      {"vanilla", ProtectionConfig::Vanilla(), LayoutKind::kVanilla},
      {"SFI(-O3)", ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx},
      {"MPX", ProtectionConfig::MpxOnly(), LayoutKind::kKrx},
      {"X", ProtectionConfig::DiversifyOnly(RaScheme::kEncrypt, seed), LayoutKind::kKrx},
      {"D", ProtectionConfig::DiversifyOnly(RaScheme::kDecoy, seed), LayoutKind::kKrx},
  };
  for (const Column& col : columns) {
    auto kernel = CompileKernel(src, {col.config, col.layout});
    ASSERT_TRUE(kernel.ok()) << col.name;
    KernelImage& image = *kernel->image;
    CpuOptions opts;
    opts.mpx_enabled = col.config.mpx;
    Cpu cached_cpu(&image, CostModel(), opts);
    Cpu uncached_cpu(&image, CostModel(), opts);
    auto buf = SetUpOpBuffer(image, seed);
    ASSERT_TRUE(buf.ok());

    for (const std::string& fn : fns) {
      ASSERT_TRUE(FillOpBuffer(image, *buf, seed).ok());
      RunResult u = uncached_cpu.CallFunction(fn, {*buf}, RunOptions{.engine = ExecEngine::kSingleStep});
      const uint64_t u_sum = RegionChecksum(image, *buf);
      ASSERT_TRUE(FillOpBuffer(image, *buf, seed).ok());
      RunResult c = cached_cpu.CallFunction(fn, {*buf}, RunOptions{.engine = ExecEngine::kBlockCache});
      ExpectSameRunResult(c, u, col.name + "/" + fn);
      EXPECT_EQ(RegionChecksum(image, *buf), u_sum) << col.name << "/" << fn;
    }
    EXPECT_GT(cached_cpu.block_cache().stats().decoded_insts, 0u) << col.name;

    // Corrupt the first function's entry byte after both engines have hot
    // state: the exception traces must still be identical (a stale block
    // would return cleanly instead of trapping).
    auto entry = image.symbols().AddressOf(fns[0]);
    ASSERT_TRUE(entry.ok());
    uint8_t orig = 0;
    ASSERT_TRUE(image.PeekBytes(*entry, &orig, 1).ok());
    const uint8_t evil = 0xCC;  // does not decode: both engines must trap
    ASSERT_TRUE(image.PokeBytes(*entry, &evil, 1).ok());
    RunResult u = uncached_cpu.CallFunction(fns[0], {*buf}, RunOptions{.engine = ExecEngine::kSingleStep});
    RunResult c = cached_cpu.CallFunction(fns[0], {*buf}, RunOptions{.engine = ExecEngine::kBlockCache});
    EXPECT_EQ(c.reason, StopReason::kException) << col.name;
    ExpectSameRunResult(c, u, col.name + "/corrupted " + fns[0]);
    ASSERT_TRUE(image.PokeBytes(*entry, &orig, 1).ok());
    RunResult healed = cached_cpu.CallFunction(fns[0], {*buf}, RunOptions{.engine = ExecEngine::kBlockCache});
    EXPECT_EQ(healed.reason, StopReason::kReturned) << col.name;
  }
}

// Superblock axis: the translate-and-chain engine vs. both older engines,
// over the same random programs. The chained dispatch, the inline
// translation cache and the fastpath handlers must all be invisible in
// every guest-visible RunResult field — including the exception trace after
// injected decoder corruption, when a stale chain would be the bug.
TEST_P(FuzzDifferential, SuperblockEngineMatchesOtherEngines) {
  const uint64_t seed = GetParam();
  KernelSource src = MakeBaseSource();
  RandomProgram gen(&src, seed ^ 0x5B5B5B5B);
  gen.set_seed_tag(seed + 500);
  std::vector<std::string> fns = gen.EmitFunctions(4);

  std::vector<Column> columns = {
      {"vanilla", ProtectionConfig::Vanilla(), LayoutKind::kVanilla},
      {"SFI(-O3)", ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx},
      {"SFI(-O4)", ProtectionConfig::SfiOnly(SfiLevel::kO4), LayoutKind::kKrx},
      {"MPX", ProtectionConfig::MpxOnly(), LayoutKind::kKrx},
      {"spec-mask", ProtectionConfig::SpecHardened(SpecMitigation::kMask),
       LayoutKind::kKrx},
  };
  for (const Column& col : columns) {
    auto kernel = CompileKernel(src, {col.config, col.layout});
    ASSERT_TRUE(kernel.ok()) << col.name;
    KernelImage& image = *kernel->image;
    CpuOptions opts;
    opts.mpx_enabled = col.config.mpx;
    Cpu sb_cpu(&image, CostModel(), opts);
    Cpu cached_cpu(&image, CostModel(), opts);
    Cpu step_cpu(&image, CostModel(), opts);
    auto buf = SetUpOpBuffer(image, seed);
    ASSERT_TRUE(buf.ok());

    for (const std::string& fn : fns) {
      ASSERT_TRUE(FillOpBuffer(image, *buf, seed).ok());
      RunResult u =
          step_cpu.CallFunction(fn, {*buf}, RunOptions{.engine = ExecEngine::kSingleStep});
      const uint64_t u_sum = RegionChecksum(image, *buf);
      ASSERT_TRUE(FillOpBuffer(image, *buf, seed).ok());
      RunResult c =
          cached_cpu.CallFunction(fn, {*buf}, RunOptions{.engine = ExecEngine::kBlockCache});
      ASSERT_TRUE(FillOpBuffer(image, *buf, seed).ok());
      RunResult s =
          sb_cpu.CallFunction(fn, {*buf}, RunOptions{.engine = ExecEngine::kSuperblock});
      ExpectSameRunResult(s, u, col.name + "/" + fn + " (sb vs step)");
      ExpectSameRunResult(s, c, col.name + "/" + fn + " (sb vs cached)");
      EXPECT_EQ(RegionChecksum(image, *buf), u_sum) << col.name << "/" << fn;
    }
    EXPECT_GT(sb_cpu.superblock_cache().stats().chains_built, 0u) << col.name;
    EXPECT_GT(sb_cpu.superblock_cache().stats().executed_insts, 0u) << col.name;

    // Corrupt the first function's entry byte after all three engines have
    // hot state: the exception traces must still be identical (a stale
    // chain would return cleanly instead of trapping).
    auto entry = image.symbols().AddressOf(fns[0]);
    ASSERT_TRUE(entry.ok());
    uint8_t orig = 0;
    ASSERT_TRUE(image.PeekBytes(*entry, &orig, 1).ok());
    const uint8_t evil = 0xCC;  // does not decode: every engine must trap
    ASSERT_TRUE(image.PokeBytes(*entry, &evil, 1).ok());
    RunResult u =
        step_cpu.CallFunction(fns[0], {*buf}, RunOptions{.engine = ExecEngine::kSingleStep});
    RunResult s =
        sb_cpu.CallFunction(fns[0], {*buf}, RunOptions{.engine = ExecEngine::kSuperblock});
    EXPECT_EQ(s.reason, StopReason::kException) << col.name;
    ExpectSameRunResult(s, u, col.name + "/corrupted " + fns[0]);
    ASSERT_TRUE(image.PokeBytes(*entry, &orig, 1).ok());
    RunResult healed =
        sb_cpu.CallFunction(fns[0], {*buf}, RunOptions{.engine = ExecEngine::kSuperblock});
    EXPECT_EQ(healed.reason, StopReason::kReturned) << col.name;
  }
}

// Superblock engine across live re-randomization epochs: chains and inline
// TLB entries were built against the pre-epoch text and page table; the
// epoch's generation bumps must drop both, and the superblocked engine must
// agree bit-for-bit with the single-step interpreter on the re-randomized
// image.
TEST_P(FuzzDifferential, SuperblockEngineMatchesAcrossEpochs) {
  const uint64_t seed = GetParam();
  KernelSource src = MakeBaseSource();
  RandomProgram gen(&src, seed ^ 0x5BEED);
  gen.set_seed_tag(seed + 600);
  std::vector<std::string> fns = gen.EmitFunctions(4);

  auto kernel = CompileKernel(
      src, {ProtectionConfig::DiversifyOnly(RaScheme::kEncrypt, seed), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok());
  KernelImage& image = *kernel->image;
  Cpu sb_cpu(&image);
  Cpu step_cpu(&image);
  RerandEngine engine(&*kernel);
  engine.RegisterCpu(&sb_cpu);
  engine.RegisterCpu(&step_cpu);
  auto buf = SetUpOpBuffer(image, seed);
  ASSERT_TRUE(buf.ok());

  for (int epoch = 0; epoch <= 3; ++epoch) {
    const std::string tag = "epoch" + std::to_string(epoch) + "/";
    for (const std::string& fn : fns) {
      ASSERT_TRUE(FillOpBuffer(image, *buf, seed).ok());
      RunResult u =
          step_cpu.CallFunction(fn, {*buf}, RunOptions{.engine = ExecEngine::kSingleStep});
      const uint64_t u_sum = RegionChecksum(image, *buf);
      ASSERT_TRUE(FillOpBuffer(image, *buf, seed).ok());
      RunResult s =
          sb_cpu.CallFunction(fn, {*buf}, RunOptions{.engine = ExecEngine::kSuperblock});
      ASSERT_EQ(s.reason, StopReason::kReturned)
          << tag << fn << " " << ExceptionKindName(s.exception);
      ExpectSameRunResult(s, u, tag + fn);
      EXPECT_EQ(RegionChecksum(image, *buf), u_sum) << tag << fn;
    }
    if (epoch < 3) {
      auto r = engine.RunEpoch();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r->verified);
    }
  }
  EXPECT_EQ(engine.epochs_completed(), 3u);
  EXPECT_GT(sb_cpu.superblock_cache().stats().flushes, 0u)
      << "the epochs never flushed a chain; the axis proved nothing";
}

// Spec axis: enabling the transient-execution window must be invisible in
// every guest-visible RunResult field and in written memory — windows
// retire nothing, charge nothing, and count nothing (DESIGN.md §15). Runs
// the same random programs spec-on vs. spec-off across the check-emitting
// configs plus both hardened axes; the spec-on Cpus' persistent predictors
// guarantee plenty of real mispredictions along the way. The window is part
// of the shared branch semantics, so the spec-on run repeats on all three
// engines, which must agree on the RunResults, the SpecStats and the
// observer's line count.
TEST_P(FuzzDifferential, SpecWindowInvisibleInRunResults) {
  const uint64_t seed = GetParam();
  KernelSource src = MakeBaseSource();
  RandomProgram gen(&src, seed ^ 0x57EC);
  gen.set_seed_tag(seed + 400);
  std::vector<std::string> fns = gen.EmitFunctions(4);

  std::vector<Column> columns = {
      {"vanilla", ProtectionConfig::Vanilla(), LayoutKind::kVanilla},
      {"SFI(-O3)", ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx},
      {"MPX", ProtectionConfig::MpxOnly(), LayoutKind::kKrx},
      {"spec-barrier", ProtectionConfig::SpecHardened(SpecMitigation::kBarrier),
       LayoutKind::kKrx},
      {"spec-mask", ProtectionConfig::SpecHardened(SpecMitigation::kMask),
       LayoutKind::kKrx},
  };
  const ExecEngine engines[] = {ExecEngine::kSingleStep, ExecEngine::kBlockCache,
                                ExecEngine::kSuperblock};
  for (const Column& col : columns) {
    auto kernel = CompileKernel(src, {col.config, col.layout});
    ASSERT_TRUE(kernel.ok()) << col.name;
    KernelImage& image = *kernel->image;
    CpuOptions plain_opts;
    plain_opts.mpx_enabled = col.config.mpx;
    CpuOptions spec_opts = plain_opts;
    spec_opts.spec.enabled = true;
    Cpu plain_cpu(&image, CostModel(), plain_opts);
    std::vector<std::unique_ptr<Cpu>> spec_cpus;
    std::vector<SideChannelObserver> observers(std::size(engines));
    for (size_t e = 0; e < std::size(engines); ++e) {
      spec_cpus.push_back(std::make_unique<Cpu>(&image, CostModel(), spec_opts));
      spec_cpus[e]->set_side_channel_observer(&observers[e]);
    }
    auto buf = SetUpOpBuffer(image, seed);
    ASSERT_TRUE(buf.ok());

    for (const std::string& fn : fns) {
      ASSERT_TRUE(FillOpBuffer(image, *buf, seed).ok());
      RunResult p = plain_cpu.CallFunction(fn, {*buf});
      const uint64_t p_sum = RegionChecksum(image, *buf);
      for (size_t e = 0; e < std::size(engines); ++e) {
        const std::string context =
            col.name + "/" + fn + "/engine" + std::to_string(static_cast<int>(engines[e]));
        ASSERT_TRUE(FillOpBuffer(image, *buf, seed).ok());
        RunResult s = spec_cpus[e]->CallFunction(fn, {*buf}, RunOptions{.engine = engines[e]});
        ExpectSameRunResult(s, p, context);
        EXPECT_EQ(RegionChecksum(image, *buf), p_sum) << context;
      }
    }
    EXPECT_GT(spec_cpus[0]->spec_stats().predictions, 0u) << col.name;
    for (size_t e = 1; e < std::size(engines); ++e) {
      EXPECT_TRUE(spec_cpus[e]->spec_stats() == spec_cpus[0]->spec_stats())
          << col.name << " engine " << static_cast<int>(engines[e]);
      EXPECT_EQ(observers[e].line_count(), observers[0].line_count())
          << col.name << " engine " << static_cast<int>(engines[e]);
    }
    EXPECT_GT(spec_cpus[2]->superblock_cache().stats().chains_built, 0u) << col.name;
  }
}

// Third differential axis: a live re-randomization epoch between runs. The
// cached engine's predecoded blocks were built against the pre-epoch text;
// the epoch's generation bump must drop them, and both engines must agree
// bit-for-bit on the re-randomized image — a stale block silently executing
// the old layout is exactly the bug this axis exists to catch.
TEST_P(FuzzDifferential, CachedEngineMatchesUncachedAcrossEpochs) {
  const uint64_t seed = GetParam();
  KernelSource src = MakeBaseSource();
  RandomProgram gen(&src, seed ^ 0x5EED);
  gen.set_seed_tag(seed + 200);
  std::vector<std::string> fns = gen.EmitFunctions(4);

  auto kernel =
      CompileKernel(src, {ProtectionConfig::DiversifyOnly(RaScheme::kEncrypt, seed), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok());
  KernelImage& image = *kernel->image;
  Cpu cached_cpu(&image);
  Cpu uncached_cpu(&image);
  RerandEngine engine(&*kernel);
  engine.RegisterCpu(&cached_cpu);
  engine.RegisterCpu(&uncached_cpu);
  auto buf = SetUpOpBuffer(image, seed);
  ASSERT_TRUE(buf.ok());

  for (int epoch = 0; epoch <= 3; ++epoch) {
    const std::string tag = "epoch" + std::to_string(epoch) + "/";
    for (const std::string& fn : fns) {
      ASSERT_TRUE(FillOpBuffer(image, *buf, seed).ok());
      RunResult u = uncached_cpu.CallFunction(fn, {*buf}, RunOptions{.engine = ExecEngine::kSingleStep});
      const uint64_t u_sum = RegionChecksum(image, *buf);
      ASSERT_TRUE(FillOpBuffer(image, *buf, seed).ok());
      RunResult c = cached_cpu.CallFunction(fn, {*buf}, RunOptions{.engine = ExecEngine::kBlockCache});
      ASSERT_EQ(c.reason, StopReason::kReturned)
          << tag << fn << " " << ExceptionKindName(c.exception);
      ExpectSameRunResult(c, u, tag + fn);
      EXPECT_EQ(RegionChecksum(image, *buf), u_sum) << tag << fn;
    }
    if (epoch < 3) {
      auto r = engine.RunEpoch();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r->verified);
    }
  }
  EXPECT_EQ(engine.epochs_completed(), 3u);
}

// Interpreter robustness under corrupted images: random bytes smashed into
// executing code must surface as clean guest exceptions in the RunResult
// (#UD / #BP / #PF / #GP ...), never as host UB. Runs under ASan+UBSan via
// the sanitize label.
TEST(FuzzCorruption, RandomTextBytesNeverCrashTheHost) {
  const uint64_t seed = 0xC0DE;
  KernelSource src = MakeBaseSource();
  RandomProgram gen(&src, seed);
  gen.set_seed_tag(seed);
  std::vector<std::string> fns = gen.EmitFunctions(4);
  auto kernel = CompileKernel(std::move(src), {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  KernelImage& image = *kernel->image;
  const PlacedSection* text = image.FindSection(".text");
  ASSERT_NE(text, nullptr);
  Cpu cpu(&image);
  auto buf = SetUpOpBuffer(image, seed);
  ASSERT_TRUE(buf.ok());

  Rng rng(seed);
  int clean_returns = 0;
  int guest_stops = 0;
  for (int trial = 0; trial < 200; ++trial) {
    ASSERT_TRUE(FillOpBuffer(image, *buf, seed + static_cast<uint64_t>(trial)).ok());
    const std::string& fn = fns[rng.NextBelow(fns.size())];

    // Corrupt 1-4 random code bytes, either before the run or mid-run at a
    // random retired-instruction count.
    struct Patch {
      uint64_t addr;
      uint8_t orig;
      uint8_t evil;
    };
    std::vector<Patch> patches;
    const uint64_t n_patches = 1 + rng.NextBelow(4);
    for (uint64_t p = 0; p < n_patches; ++p) {
      Patch patch;
      patch.addr = text->vaddr + rng.NextBelow(text->size);
      uint8_t orig = 0;
      ASSERT_TRUE(image.PeekBytes(patch.addr, &orig, 1).ok());
      patch.orig = orig;
      patch.evil = static_cast<uint8_t>(rng.Next());
      patches.push_back(patch);
    }
    const bool mid_run = rng.NextBool(0.5);
    const uint64_t trigger = 1 + rng.NextBelow(200);
    auto apply = [&image, &patches] {
      for (const Patch& p : patches) {
        (void)image.PokeBytes(p.addr, &p.evil, 1);
      }
    };
    uint64_t retired = 0;
    if (mid_run) {
      cpu.set_step_observer([&](const Cpu&) {
        if (++retired == trigger) {
          apply();
        }
      });
    } else {
      apply();
    }
    RunResult r = cpu.CallFunction(fn, {*buf}, RunOptions{.max_steps = 100'000});
    cpu.set_step_observer(nullptr);
    for (const Patch& p : patches) {
      ASSERT_TRUE(image.PokeBytes(p.addr, &p.orig, 1).ok());
    }

    // Any guest-visible stop is acceptable; what is not acceptable is a
    // host-side failure (or a crash, which ASan would turn into one).
    ASSERT_NE(r.reason, StopReason::kHostError) << fn << ": " << r.host_error;
    if (r.reason == StopReason::kReturned) {
      ++clean_returns;
    } else {
      ++guest_stops;
      if (r.reason == StopReason::kException) {
        EXPECT_NE(r.exception, ExceptionKind::kNone);
      }
    }
  }
  // Sanity on the distribution: corrupted text does trip traps, and patches
  // that miss the executed path return cleanly.
  EXPECT_GT(guest_stops, 0);
  EXPECT_GT(clean_returns, 0);
}

// Truncated images: the final bytes of a function replaced by page-end
// garbage must fault in the guest, not overrun host buffers.
TEST(FuzzCorruption, TruncatedFunctionTailFaultsCleanly) {
  auto kernel = CompileKernel(MakeBaseSource(), {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok());
  KernelImage& image = *kernel->image;
  auto entry = image.symbols().AddressOf("debugfs_leak_read");
  ASSERT_TRUE(entry.ok());
  int32_t sym = image.symbols().Find("debugfs_leak_read");
  ASSERT_GE(sym, 0);
  const uint64_t size = image.symbols().at(sym).size;
  ASSERT_GT(size, 2u);
  Cpu cpu(&image);
  auto buf = image.AllocDataPages(1);
  ASSERT_TRUE(buf.ok());

  // Chop the function's tail (including its ret) to multi-byte garbage that
  // forces the decoder to read past the recorded function end.
  Rng rng(0x7A11);
  for (int trial = 0; trial < 32; ++trial) {
    const uint64_t cut = 1 + rng.NextBelow(size - 1);
    std::vector<uint8_t> orig(size - cut);
    ASSERT_TRUE(image.PeekBytes(*entry + cut, orig.data(), orig.size()).ok());
    std::vector<uint8_t> garbage(orig.size());
    for (auto& byte : garbage) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    ASSERT_TRUE(image.PokeBytes(*entry + cut, garbage.data(), garbage.size()).ok());
    RunResult r = cpu.CallFunction("debugfs_leak_read", {*buf}, RunOptions{.max_steps = 10'000});
    ASSERT_NE(r.reason, StopReason::kHostError) << r.host_error;
    ASSERT_TRUE(image.PokeBytes(*entry + cut, orig.data(), orig.size()).ok());
  }
  // Restored image behaves again.
  RunResult r = cpu.CallFunction("debugfs_leak_read", {*buf});
  EXPECT_EQ(r.reason, StopReason::kReturned);
}

// Decoder robustness: random byte soup must decode deterministically (ok or
// error, never crash) and decoded sizes must stay within bounds.
TEST(FuzzDecoder, RandomBytesNeverMisbehave) {
  Rng rng(0xF00D);
  std::vector<uint8_t> soup(1 << 16);
  for (auto& byte : soup) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  size_t valid = 0;
  for (size_t off = 0; off + 1 < soup.size(); ++off) {
    auto dec = DecodeInstruction(soup.data(), soup.size(), off);
    if (dec.ok()) {
      ++valid;
      EXPECT_GE(dec->size, 1);
      EXPECT_LE(dec->size, 16);
    }
  }
  // Plenty of byte sequences decode (gadget feasibility), plenty do not.
  EXPECT_GT(valid, soup.size() / 20);
  EXPECT_LT(valid, soup.size());
}

}  // namespace
}  // namespace krx
