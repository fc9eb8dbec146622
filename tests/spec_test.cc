// The bounded transient-execution engine (src/spec + the Cpu window):
// predictor training, rollback invisibility, fence/depth/fault window
// termination, preemption across a window, and the Spectre-v1 adversary
// against architectural vs. speculation-hardened builds.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/attack/spectre.h"
#include "src/cpu/cpu.h"
#include "src/ir/builder.h"
#include "src/kernel/assembler.h"
#include "src/plugin/pipeline.h"
#include "src/telemetry/metrics.h"
#include "src/workload/corpus.h"

namespace krx {
namespace {

struct MiniKernel {
  std::unique_ptr<KernelImage> image;
  uint64_t entry = 0;
};

MiniKernel MakeKernel(Function fn) {
  SymbolTable symbols;
  KernelLinkInput input;
  Assembler as;
  std::string name = fn.name();
  KRX_CHECK(as.Assemble(fn, &input.text).ok());
  input.phys_bytes = 4ULL << 20;
  auto image = LinkKernel(LayoutKind::kVanilla, std::move(input), std::move(symbols));
  KRX_CHECK(image.ok());
  MiniKernel mk;
  mk.image = std::move(*image);
  auto addr = mk.image->symbols().AddressOf(name);
  KRX_CHECK(addr.ok());
  mk.entry = *addr;
  return mk;
}

CpuOptions SpecOn(uint32_t window_depth = 32) {
  CpuOptions o;
  o.spec.enabled = true;
  o.spec.window_depth = window_depth;
  return o;
}

// cmp rdi, 10; jae <taken block>. Called with rdi >= 10 on a fresh
// (weakly-not-taken) predictor the branch mispredicts, so the fallthrough
// block — everything `emit_wrong_path` adds — runs transiently and only
// transiently. The architectural result is always 7.
template <typename F>
Function GuardedGadget(F emit_wrong_path) {
  FunctionBuilder b("victim");
  int32_t taken = b.ReserveBlock();
  b.Emit(Instruction::CmpRI(Reg::kRdi, 10));
  b.Emit(Instruction::JccBlock(Cond::kAe, taken));
  emit_wrong_path(b);
  b.Emit(Instruction::MovRI(Reg::kRax, 99));
  b.Emit(Instruction::Ret());
  b.Bind(taken);
  b.Emit(Instruction::MovRI(Reg::kRax, 7));
  b.Emit(Instruction::Ret());
  return b.Build();
}

TEST(BranchPredictor, TrainsAndSaturates) {
  BranchPredictor p;
  const uint64_t addr = 0xFFFFFFFF81000123ULL;
  EXPECT_FALSE(p.PredictTaken(addr));  // weakly not-taken out of reset
  p.Update(addr, true);
  EXPECT_TRUE(p.PredictTaken(addr));   // 1 -> 2: now predicts taken
  p.Update(addr, true);
  p.Update(addr, true);                // saturates at 3
  p.Update(addr, false);
  EXPECT_TRUE(p.PredictTaken(addr));   // 3 -> 2: still taken
  p.Update(addr, false);
  EXPECT_FALSE(p.PredictTaken(addr));  // 2 -> 1
  p.Update(addr, true);
  p.Reset();
  EXPECT_FALSE(p.PredictTaken(addr));
}

TEST(SideChannelObserver, LineGranularity) {
  SideChannelObserver obs;
  obs.Touch(0x1000);
  EXPECT_TRUE(obs.LineTouched(0x1000));
  EXPECT_TRUE(obs.LineTouched(0x103F));  // same 64-byte line
  EXPECT_FALSE(obs.LineTouched(0x1040));
  EXPECT_EQ(obs.line_count(), 1u);
  obs.Clear();
  EXPECT_FALSE(obs.LineTouched(0x1000));
  EXPECT_EQ(obs.line_count(), 0u);
}

TEST(Spec, MaskClampsArchitecturally) {
  FunctionBuilder b("f");
  b.Emit(Instruction::MovRR(Reg::kRax, Reg::kRdi));
  b.Emit(Instruction::MaskRI(Reg::kRax, 100));
  b.Emit(Instruction::Ret());
  MiniKernel mk = MakeKernel(b.Build());
  Cpu cpu(mk.image.get());
  EXPECT_EQ(cpu.CallFunction(mk.entry, {50}).rax, 50u);
  EXPECT_EQ(cpu.CallFunction(mk.entry, {100}).rax, 100u);  // inclusive bound
  EXPECT_EQ(cpu.CallFunction(mk.entry, {101}).rax, 0u);    // clamps, no trap
}

TEST(Spec, RunResultBitIdenticalWithWindowOnOrOff) {
  Function fn = GuardedGadget([](FunctionBuilder& b) {
    b.Emit(Instruction::Load(Reg::kRcx, MemOperand::Base(Reg::kRsp, 0)));
    b.Emit(Instruction::AddRR(Reg::kRax, Reg::kRcx));
  });
  MiniKernel mk = MakeKernel(fn);
  Cpu plain(mk.image.get());
  Cpu spec(mk.image.get(), CostModel(), SpecOn());
  for (uint64_t arg : {100u, 3u, 100u, 3u}) {
    RunResult a = plain.CallFunction(mk.entry, {arg});
    RunResult s = spec.CallFunction(mk.entry, {arg});
    EXPECT_EQ(a.reason, s.reason);
    EXPECT_EQ(a.rax, s.rax);
    EXPECT_EQ(a.instructions, s.instructions);
    EXPECT_EQ(a.deci_cycles, s.deci_cycles);
    EXPECT_TRUE(a.mix == s.mix);
  }
}

TEST(Spec, MispredictionRunsWrongPathAndRollsBack) {
  Function fn = GuardedGadget([](FunctionBuilder& b) {
    // Transient-only: a load (leaves a line in the observer) and a register
    // clobber that must never become architectural.
    b.Emit(Instruction::Load(Reg::kRcx, MemOperand::Base(Reg::kRsp, 0)));
    b.Emit(Instruction::MovRI(Reg::kRdx, 0xDEAD));
  });
  MiniKernel mk = MakeKernel(fn);
  Cpu cpu(mk.image.get(), CostModel(), SpecOn());
  SideChannelObserver obs;
  cpu.set_side_channel_observer(&obs);
  cpu.set_reg(Reg::kRdx, 0x1111);
  RunResult r = cpu.CallFunction(mk.entry, {100});
  EXPECT_EQ(r.reason, StopReason::kReturned);
  EXPECT_EQ(r.rax, 7u);  // the architectural (taken) path
  EXPECT_EQ(cpu.spec_stats().mispredictions, 1u);
  EXPECT_EQ(cpu.spec_stats().windows_opened, 1u);
  EXPECT_GT(obs.line_count(), 0u);                 // the residue survives
  EXPECT_NE(cpu.reg(Reg::kRdx), 0xDEADu);          // the clobber does not
}

TEST(Spec, TrainedBranchStopsMispredicting) {
  Function fn = GuardedGadget([](FunctionBuilder& b) {
    b.Emit(Instruction::Load(Reg::kRcx, MemOperand::Base(Reg::kRsp, 0)));
  });
  MiniKernel mk = MakeKernel(fn);
  Cpu cpu(mk.image.get(), CostModel(), SpecOn());
  for (int i = 0; i < 4; ++i) cpu.CallFunction(mk.entry, {100});
  const uint64_t windows = cpu.spec_stats().windows_opened;
  EXPECT_EQ(windows, 1u);  // only the cold first call mispredicted
  cpu.CallFunction(mk.entry, {100});
  EXPECT_EQ(cpu.spec_stats().windows_opened, windows);
}

TEST(Spec, FenceKillsWindowBeforeTheLoad) {
  Function fn = GuardedGadget([](FunctionBuilder& b) {
    b.Emit(Instruction::SpecFence());
    b.Emit(Instruction::Load(Reg::kRcx, MemOperand::Base(Reg::kRsp, 0)));
  });
  MiniKernel mk = MakeKernel(fn);
  Cpu cpu(mk.image.get(), CostModel(), SpecOn());
  SideChannelObserver obs;
  cpu.set_side_channel_observer(&obs);
  RunResult r = cpu.CallFunction(mk.entry, {100});
  EXPECT_EQ(r.rax, 7u);
  EXPECT_EQ(cpu.spec_stats().windows_opened, 1u);
  EXPECT_EQ(cpu.spec_stats().fence_kills, 1u);
  EXPECT_EQ(cpu.spec_stats().wrong_path_insts, 1u);  // the fence itself
  EXPECT_EQ(obs.line_count(), 0u);                   // load never issued
}

TEST(Spec, NestedBranchesHitTheDepthCap) {
  // The wrong path is an infinite loop with a (never-taken) nested branch:
  // add; cmp; jcc; jmp — the window must consume predictor-steered nested
  // branches without unwinding them and stop exactly at the depth cap.
  FunctionBuilder b("victim");
  int32_t taken = b.ReserveBlock();
  int32_t loop = b.ReserveBlock();
  int32_t stray = b.ReserveBlock();
  b.Emit(Instruction::CmpRI(Reg::kRdi, 10));
  b.Emit(Instruction::JccBlock(Cond::kAe, taken));
  b.Bind(loop);
  b.Emit(Instruction::AddRI(Reg::kRax, 1));
  b.Emit(Instruction::CmpRI(Reg::kRdi, 0));
  b.Emit(Instruction::JccBlock(Cond::kE, stray));
  b.Emit(Instruction::JmpBlock(loop));
  b.Bind(stray);
  b.Emit(Instruction::MovRI(Reg::kRax, 98));
  b.Emit(Instruction::Ret());
  b.Bind(taken);
  b.Emit(Instruction::MovRI(Reg::kRax, 7));
  b.Emit(Instruction::Ret());

  MiniKernel mk = MakeKernel(b.Build());
  Cpu cpu(mk.image.get(), CostModel(), SpecOn(/*window_depth=*/12));
  RunResult r = cpu.CallFunction(mk.entry, {100});
  EXPECT_EQ(r.rax, 7u);
  EXPECT_EQ(cpu.spec_stats().windows_opened, 1u);
  EXPECT_EQ(cpu.spec_stats().wrong_path_insts, 12u);  // exactly the cap
  EXPECT_EQ(cpu.spec_stats().nested_branches, 3u);    // one per iteration
  EXPECT_EQ(cpu.spec_stats().transient_faults, 0u);
}

TEST(Spec, PreemptLandsAfterTheWindowNotInsideIt) {
  // RequestPreempt fired by the step observer at the mispredicting branch:
  // the window is simulated atomically with that branch's retirement, so
  // the run must stop *after* a fully-counted window, at the next boundary.
  Function fn = GuardedGadget([](FunctionBuilder& b) {
    b.Emit(Instruction::Load(Reg::kRcx, MemOperand::Base(Reg::kRsp, 0)));
  });
  MiniKernel mk = MakeKernel(fn);
  Cpu cpu(mk.image.get(), CostModel(), SpecOn());
  uint64_t retired = 0;
  cpu.set_step_observer([&cpu, &retired](const Cpu&) {
    if (++retired == 2) {  // cmp, then the jae that opens the window
      cpu.RequestPreempt();
    }
  });
  RunResult r = cpu.CallFunction(mk.entry, {100});
  EXPECT_EQ(r.reason, StopReason::kDeadlineExceeded);
  EXPECT_EQ(r.instructions, 2u);  // mov rax, 7 never retired
  EXPECT_EQ(cpu.spec_stats().windows_opened, 1u);
  EXPECT_GT(cpu.spec_stats().wrong_path_insts, 0u);
}

TEST(Spec, DeadlinePreemptsASpinningSpecRun) {
  FunctionBuilder b("spin");
  int32_t loop = b.ReserveBlock();
  int32_t out = b.ReserveBlock();
  b.Emit(Instruction::MovRI(Reg::kRax, 1));
  b.Bind(loop);
  b.Emit(Instruction::AddRI(Reg::kRax, 1));
  b.Emit(Instruction::CmpRI(Reg::kRax, 0));
  b.Emit(Instruction::JccBlock(Cond::kE, out));  // never taken
  b.Emit(Instruction::JmpBlock(loop));
  b.Bind(out);
  b.Emit(Instruction::Ret());
  MiniKernel mk = MakeKernel(b.Build());
  Cpu cpu(mk.image.get(), CostModel(), SpecOn());
  RunOptions opts;
  opts.max_steps = 1ULL << 40;
  opts.deadline_us = 2000;
  RunResult r = cpu.CallFunction(mk.entry, {}, opts);
  EXPECT_EQ(r.reason, StopReason::kDeadlineExceeded);
  EXPECT_GT(cpu.spec_stats().predictions, 0u);
}

TEST(Spec, CountersReachTheMetricsRegistry) {
  Function fn = GuardedGadget([](FunctionBuilder& b) {
    b.Emit(Instruction::Load(Reg::kRcx, MemOperand::Base(Reg::kRsp, 0)));
  });
  MiniKernel mk = MakeKernel(fn);
  auto& reg = telemetry::MetricsRegistry::Global();
  const uint64_t windows_before = reg.GetCounter("spec.windows").value();
  const uint64_t pred_before = reg.GetCounter("spec.predictions").value();
  Cpu cpu(mk.image.get(), CostModel(), SpecOn());
  cpu.CallFunction(mk.entry, {100});
  EXPECT_EQ(reg.GetCounter("spec.windows").value(), windows_before + 1);
  EXPECT_GT(reg.GetCounter("spec.predictions").value(), pred_before);
}

// Transient values, opcode by opcode. Each case's arm computes a value
// through one op from inputs the guard (%rdi) does not read — %rdx, %rcx
// and the word at (%r8) — then loads probe + (value & 0xff) * 64. Run
// architecturally (%rdi < 10) the arm returns the value in %rax; run as the
// mispredicted wrong path (%rdi >= 10 on a cold predictor) the only probe
// line the observer may see touched is the one that value selects. This
// pins wrong-path semantics to architectural ones for every
// register-writing, non-serializing opcode.
TEST(Spec, WrongPathMatchesArchitecturalValues) {
  constexpr uint64_t kIn1 = 0x1234'5678'9ABC'DEF1;     // %rdx
  constexpr uint64_t kIn2 = 0x0FED'CBA9'8765'4327;     // %rcx
  constexpr uint64_t kMemWord = 0x5A5A'1234'C3C3'8765;  // (%r8)
  constexpr Reg kRax = Reg::kRax, kRcx = Reg::kRcx, kRdx = Reg::kRdx, kR9 = Reg::kR9;
  const MemOperand mem = MemOperand::Base(Reg::kR8, 0);
  using I = Instruction;
  // pushfq; pop %rax, then fold OF (bit 11) and DF (bit 10) into the low
  // byte next to CF, ZF and SF so the probe index reflects every flag.
  const std::vector<Instruction> flags_to_rax = {
      I::Pushfq(), I::PopR(kRax), I::MovRR(kR9, kRax), I::ShrRI(kR9, 8), I::XorRR(kRax, kR9)};
  auto with_flags = [&](std::vector<Instruction> arm) {
    arm.insert(arm.end(), flags_to_rax.begin(), flags_to_rax.end());
    return arm;
  };
  struct Case {
    const char* name;
    std::vector<Instruction> arm;  // leaves the value in %rax
  };
  const std::vector<Case> cases = {
      {"mov rr", {I::MovRR(kRax, kRcx)}},
      {"mov ri", {I::MovRI(kRax, 0x4D)}},
      {"add rr", {I::MovRR(kRax, kRdx), I::AddRR(kRax, kRcx)}},
      {"add ri", {I::MovRR(kRax, kRdx), I::AddRI(kRax, 0x3579)}},
      {"sub rr", {I::MovRR(kRax, kRdx), I::SubRR(kRax, kRcx)}},
      {"sub ri", {I::MovRR(kRax, kRcx), I::SubRI(kRax, 0x1F0)}},
      {"and rr", {I::MovRR(kRax, kRdx), I::AndRR(kRax, kRcx)}},
      {"and ri", {I::MovRR(kRax, kRdx), I::AndRI(kRax, 0x3C)}},
      {"or rr", {I::MovRR(kRax, kRdx), I::OrRR(kRax, kRcx)}},
      {"or ri", {I::MovRR(kRax, kRcx), I::OrRI(kRax, 0x90)}},
      {"xor rr", {I::MovRR(kRax, kRdx), I::XorRR(kRax, kRcx)}},
      {"xor ri", {I::MovRR(kRax, kRdx), I::XorRI(kRax, 0x5B)}},
      {"shl", {I::MovRR(kRax, kRdx), I::ShlRI(kRax, 5)}},
      {"shr", {I::MovRR(kRax, kRcx), I::ShrRI(kRax, 9)}},
      {"imul", {I::MovRR(kRax, kRdx), I::ImulRR(kRax, kRcx)}},
      {"mask pass", {I::MovRR(kRax, kRcx), I::ShrRI(kRax, 52), I::MaskRI(kRax, 0xFFF)}},
      {"mask clamp", {I::MovRR(kRax, kRdx), I::MaskRI(kRax, 0xFFFF)}},
      {"lea", {I::Lea(kRax, MemOperand::BaseIndex(kRdx, kRcx, 8, 0x30))}},
      {"load", {I::Load(kRax, mem)}},
      {"pop", {I::PushR(kRcx), I::PopR(kRax)}},
      {"add rm", {I::MovRR(kRax, kRdx), I::AddRM(kRax, mem)}},
      {"xor mr", {I::XorMR(mem, kRdx), I::Load(kRax, mem)}},
      {"cmp rr", with_flags({I::CmpRR(kRdx, kRcx)})},
      {"cmp rr equal", with_flags({I::CmpRR(kRcx, kRcx)})},
      {"cmp ri overflow", with_flags({I::MovRI(kRax, INT64_MIN), I::CmpRI(kRax, 1)})},
      {"cmp ri", with_flags({I::CmpRI(kRcx, 0x7FFF'FFFF)})},
      {"test rr", with_flags({I::TestRR(kRdx, kRcx)})},
      {"cmp rm", with_flags({I::CmpRM(kRdx, mem)})},
      {"cmp mi", with_flags({I::CmpMI(mem, 0x1234)})},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Function fn = GuardedGadget([&](FunctionBuilder& b) {
      for (const Instruction& inst : c.arm) b.Emit(inst);
      b.Emit(I::MovRR(Reg::kR10, kRax));
      b.Emit(I::AndRI(Reg::kR10, 0xFF));
      b.Emit(I::ShlRI(Reg::kR10, 6));
      b.Emit(I::AddRR(Reg::kR10, Reg::kRsi));
      b.Emit(I::Load(Reg::kR11, MemOperand::Base(Reg::kR10, 0)));
      b.Emit(I::Ret());
    });
    MiniKernel mk = MakeKernel(fn);
    auto probe = mk.image->AllocDataPages(256 * 64 / kPageSize);
    auto word = mk.image->AllocDataPages(1);
    ASSERT_TRUE(probe.ok() && word.ok());

    ASSERT_TRUE(mk.image->Poke64(*word, kMemWord).ok());
    Cpu arch(mk.image.get());
    RunResult a = arch.CallFunction(mk.entry, {3, *probe, kIn1, kIn2, *word});
    ASSERT_EQ(a.reason, StopReason::kReturned);
    const uint64_t line = a.rax & 0xFF;

    ASSERT_TRUE(mk.image->Poke64(*word, kMemWord).ok());
    Cpu spec(mk.image.get(), CostModel(), SpecOn());
    SideChannelObserver obs;
    spec.set_side_channel_observer(&obs);
    RunResult s = spec.CallFunction(mk.entry, {100, *probe, kIn1, kIn2, *word});
    ASSERT_EQ(s.rax, 7u);
    ASSERT_EQ(spec.spec_stats().windows_opened, 1u);
    EXPECT_EQ(spec.spec_stats().transient_faults, 0u);
    for (uint64_t i = 0; i < 256; ++i) {
      const std::optional<Pte> pte = mk.image->page_table().Lookup(*probe + i * 64);
      ASSERT_TRUE(pte.has_value());
      const uint64_t paddr = (pte->frame << kPageShift) | PageOffset(*probe + i * 64);
      EXPECT_EQ(obs.LineTouched(paddr), i == line) << "probe line " << i << ", value line " << line;
    }
  }
}

// The end-to-end contract the security evaluation enforces across the whole
// config matrix, pinned here on three builds: architectural checks leak,
// both hardened axes do not — each dying its own way.
TEST(Spec, SpectreLeaksArchitecturalOnlyConfigs) {
  KernelSource src = MakeBaseSource();
  auto sfi = CompileKernel(src, {ProtectionConfig::SfiOnly(SfiLevel::kO3),
                                 LayoutKind::kKrx});
  ASSERT_TRUE(sfi.ok()) << sfi.status().ToString();
  SpectreV1Result leak = SpectreV1Attack(*sfi, /*secret_bytes=*/2);
  EXPECT_TRUE(leak.outcome.success);
  EXPECT_GE(leak.bytes_leaked, 1u);

  auto barrier = CompileKernel(
      src, {ProtectionConfig::SpecHardened(SpecMitigation::kBarrier), LayoutKind::kKrx});
  ASSERT_TRUE(barrier.ok()) << barrier.status().ToString();
  SpectreV1Result fenced = SpectreV1Attack(*barrier, /*secret_bytes=*/2);
  EXPECT_FALSE(fenced.outcome.success);
  EXPECT_EQ(fenced.bytes_leaked, 0u);
  EXPECT_GT(fenced.fence_kills, 0u);  // lfence ended the windows

  auto mask = CompileKernel(
      src, {ProtectionConfig::SpecHardened(SpecMitigation::kMask), LayoutKind::kKrx});
  ASSERT_TRUE(mask.ok()) << mask.status().ToString();
  SpectreV1Result masked = SpectreV1Attack(*mask, /*secret_bytes=*/2);
  EXPECT_FALSE(masked.outcome.success);
  EXPECT_EQ(masked.bytes_leaked, 0u);
  EXPECT_GT(masked.transient_faults, 0u);  // clamped-to-0 loads fault out
}

}  // namespace
}  // namespace krx
