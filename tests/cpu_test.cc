// Interpreter semantics: ALU flags, condition codes, stack ops, control
// transfer, string ops, MPX, exceptions and cycle accounting.
#include <gtest/gtest.h>

#include "src/cpu/cpu.h"
#include "src/ir/builder.h"
#include "src/kernel/assembler.h"

namespace krx {
namespace {

// Builds a one-function kernel and returns (image, cpu-ready entry address).
struct MiniKernel {
  std::unique_ptr<KernelImage> image;
  uint64_t entry = 0;
};

MiniKernel MakeKernel(Function fn, LayoutKind layout = LayoutKind::kVanilla) {
  SymbolTable symbols;
  KernelLinkInput input;
  Assembler as;
  std::string name = fn.name();
  KRX_CHECK(as.Assemble(fn, &input.text).ok());
  input.phys_bytes = 4ULL << 20;
  auto image = LinkKernel(layout, std::move(input), std::move(symbols));
  KRX_CHECK(image.ok());
  MiniKernel mk;
  mk.image = std::move(*image);
  auto addr = mk.image->symbols().AddressOf(name);
  KRX_CHECK(addr.ok());
  mk.entry = *addr;
  return mk;
}

uint64_t RunWith(Function fn, const std::vector<uint64_t>& args, StopReason* reason = nullptr,
                 ExceptionKind* exc = nullptr) {
  MiniKernel mk = MakeKernel(std::move(fn));
  Cpu cpu(mk.image.get());
  RunResult r = cpu.CallFunction(mk.entry, args);
  if (reason != nullptr) {
    *reason = r.reason;
  }
  if (exc != nullptr) {
    *exc = r.exception;
  }
  return r.rax;
}

TEST(Cpu, ArithmeticAndReturnValue) {
  FunctionBuilder b("f");
  b.Emit(Instruction::MovRR(Reg::kRax, Reg::kRdi));
  b.Emit(Instruction::AddRI(Reg::kRax, 5));
  b.Emit(Instruction::ImulRR(Reg::kRax, Reg::kRsi));
  b.Emit(Instruction::SubRI(Reg::kRax, 1));
  b.Emit(Instruction::Ret());
  EXPECT_EQ(RunWith(b.Build(), {10, 3}), (10u + 5) * 3 - 1);
}

TEST(Cpu, ShiftsAndLogic) {
  FunctionBuilder b("f");
  b.Emit(Instruction::MovRR(Reg::kRax, Reg::kRdi));
  b.Emit(Instruction::ShlRI(Reg::kRax, 4));
  b.Emit(Instruction::OrRI(Reg::kRax, 0xF));
  b.Emit(Instruction::ShrRI(Reg::kRax, 2));
  b.Emit(Instruction::XorRI(Reg::kRax, 0x3));
  b.Emit(Instruction::AndRI(Reg::kRax, 0xFFFF));
  b.Emit(Instruction::Ret());
  uint64_t x = 0xAB;
  uint64_t expected = ((((x << 4) | 0xF) >> 2) ^ 0x3) & 0xFFFF;
  EXPECT_EQ(RunWith(b.Build(), {x}), expected);
}

struct CondCase {
  Cond cond;
  uint64_t a;
  uint64_t b;
  bool taken;  // after cmp a, b
};

class CondTest : public ::testing::TestWithParam<CondCase> {};

TEST_P(CondTest, CmpThenJcc) {
  const CondCase& c = GetParam();
  FunctionBuilder b("f");
  int32_t taken = b.ReserveBlock();
  b.Emit(Instruction::MovRI(Reg::kRax, 0));
  b.Emit(Instruction::CmpRR(Reg::kRdi, Reg::kRsi));
  b.Emit(Instruction::JccBlock(c.cond, taken));
  b.Emit(Instruction::Ret());  // not taken: rax = 0
  b.Bind(taken);
  b.Emit(Instruction::MovRI(Reg::kRax, 1));
  b.Emit(Instruction::Ret());
  EXPECT_EQ(RunWith(b.Build(), {c.a, c.b}), c.taken ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllConds, CondTest,
    ::testing::Values(
        CondCase{Cond::kE, 5, 5, true}, CondCase{Cond::kE, 5, 6, false},
        CondCase{Cond::kNe, 5, 6, true}, CondCase{Cond::kNe, 5, 5, false},
        CondCase{Cond::kA, 6, 5, true}, CondCase{Cond::kA, 5, 5, false},
        // Unsigned above: a huge kernel address is "above" a small one.
        CondCase{Cond::kA, 0xFFFFFFFFC0000000ULL, 0x1000, true},
        CondCase{Cond::kAe, 5, 5, true}, CondCase{Cond::kB, 4, 5, true},
        CondCase{Cond::kB, 5, 4, false}, CondCase{Cond::kBe, 5, 5, true},
        // Signed comparisons: -1 < 1.
        CondCase{Cond::kG, static_cast<uint64_t>(-1), 1, false},
        CondCase{Cond::kG, 2, 1, true}, CondCase{Cond::kGe, 1, 1, true},
        CondCase{Cond::kL, static_cast<uint64_t>(-1), 1, true},
        CondCase{Cond::kLe, static_cast<uint64_t>(-5), static_cast<uint64_t>(-5), true},
        CondCase{Cond::kS, static_cast<uint64_t>(-3), 1, true},
        CondCase{Cond::kNs, 3, 1, true}));

TEST(Cpu, PushPopAndStackDiscipline) {
  FunctionBuilder b("f");
  b.Emit(Instruction::PushR(Reg::kRdi));
  b.Emit(Instruction::PushR(Reg::kRsi));
  b.Emit(Instruction::PopR(Reg::kRax));   // rsi
  b.Emit(Instruction::PopR(Reg::kRcx));   // rdi
  b.Emit(Instruction::SubRR(Reg::kRax, Reg::kRcx));
  b.Emit(Instruction::Ret());
  EXPECT_EQ(RunWith(b.Build(), {10, 30}), 20u);
}

TEST(Cpu, PushfqPopfqPreservesFlags) {
  FunctionBuilder b("f");
  int32_t taken = b.ReserveBlock();
  b.Emit(Instruction::MovRI(Reg::kRax, 0));
  b.Emit(Instruction::CmpRR(Reg::kRdi, Reg::kRsi));  // sets flags
  b.Emit(Instruction::Pushfq());
  b.Emit(Instruction::CmpRI(Reg::kRax, 99));  // clobbers flags
  b.Emit(Instruction::Popfq());               // restores
  b.Emit(Instruction::JccBlock(Cond::kE, taken));
  b.Emit(Instruction::Ret());
  b.Bind(taken);
  b.Emit(Instruction::MovRI(Reg::kRax, 1));
  b.Emit(Instruction::Ret());
  EXPECT_EQ(RunWith(b.Build(), {7, 7}), 1u);
}

TEST(Cpu, XorMemEncryptDecryptRoundTrip) {
  // The return-address encryption primitive: two xors restore the value.
  FunctionBuilder b("f");
  b.Emit(Instruction::PushR(Reg::kRdi));
  b.Emit(Instruction::MovRI(Reg::kR11, 0x5EC5EC));
  b.Emit(Instruction::XorMR(MemOperand::Base(Reg::kRsp, 0), Reg::kR11));
  b.Emit(Instruction::XorMR(MemOperand::Base(Reg::kRsp, 0), Reg::kR11));
  b.Emit(Instruction::PopR(Reg::kRax));
  b.Emit(Instruction::Ret());
  EXPECT_EQ(RunWith(b.Build(), {0xABCD}), 0xABCDu);
}

TEST(Cpu, CallAndReturn) {
  SymbolTable symbols;
  KernelLinkInput input;
  Assembler as;
  {
    FunctionBuilder callee("callee");
    callee.Emit(Instruction::MovRR(Reg::kRax, Reg::kRdi));
    callee.Emit(Instruction::AddRI(Reg::kRax, 100));
    callee.Emit(Instruction::Ret());
    KRX_CHECK(as.Assemble(callee.Build(), &input.text).ok());
  }
  {
    FunctionBuilder caller("caller");
    caller.Emit(Instruction::SubRI(Reg::kRsp, 8));
    caller.Emit(Instruction::CallSym(symbols.Intern("callee")));
    caller.Emit(Instruction::AddRI(Reg::kRax, 1));
    caller.Emit(Instruction::AddRI(Reg::kRsp, 8));
    caller.Emit(Instruction::Ret());
    KRX_CHECK(as.Assemble(caller.Build(), &input.text).ok());
  }
  input.phys_bytes = 4ULL << 20;
  auto image = LinkKernel(LayoutKind::kVanilla, std::move(input), std::move(symbols));
  ASSERT_TRUE(image.ok());
  Cpu cpu(image->get());
  RunResult r = cpu.CallFunction("caller", {5});
  EXPECT_EQ(r.reason, StopReason::kReturned);
  EXPECT_EQ(r.rax, 106u);
}

TEST(Cpu, RepMovsCopiesAndCountsDown) {
  FunctionBuilder b("f");
  // rdi = dst, rsi = src, rdx = qwords
  b.Emit(Instruction::MovRR(Reg::kRcx, Reg::kRdx));
  b.Emit(Instruction::Movsq(true));
  b.Emit(Instruction::MovRR(Reg::kRax, Reg::kRcx));  // rcx must be 0 after
  b.Emit(Instruction::Ret());
  MiniKernel mk = MakeKernel(b.Build());
  Cpu cpu(mk.image.get());
  auto buf = mk.image->AllocDataPages(2);
  ASSERT_TRUE(buf.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(mk.image->Poke64(*buf + 8 * i, 0x1000u + static_cast<uint64_t>(i)).ok());
  }
  RunResult r = cpu.CallFunction(mk.entry, {*buf + 4096, *buf, 8});
  EXPECT_EQ(r.reason, StopReason::kReturned);
  EXPECT_EQ(r.rax, 0u);
  for (int i = 0; i < 8; ++i) {
    auto v = mk.image->Peek64(*buf + 4096 + 8 * i);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, 0x1000u + static_cast<uint64_t>(i));
  }
}

TEST(Cpu, RepeScasStopsAtMismatch) {
  // repe scasq scans while [rdi] == rax.
  FunctionBuilder b("f");
  b.Emit(Instruction::MovRI(Reg::kRcx, 16));
  b.Emit(Instruction::MovRI(Reg::kRax, 0x77));
  b.Emit(Instruction::Scasq(true));
  b.Emit(Instruction::MovRR(Reg::kRax, Reg::kRcx));
  b.Emit(Instruction::Ret());
  MiniKernel mk = MakeKernel(b.Build());
  Cpu cpu(mk.image.get());
  auto buf = mk.image->AllocDataPages(1);
  ASSERT_TRUE(buf.ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(mk.image->Poke64(*buf + 8 * i, i < 5 ? 0x77 : 0x88).ok());
  }
  RunResult r = cpu.CallFunction(mk.entry, {*buf});
  // Scans 6 elements (5 equal + the mismatch), leaving rcx = 10.
  EXPECT_EQ(r.rax, 10u);
}

TEST(Cpu, DirectionFlagReversesStringOps) {
  // Set DF via popfq (bit 10), copy two qwords downward, clear DF again.
  FunctionBuilder b("f");
  b.Emit(Instruction::MovRI(Reg::kRcx, 1ULL << 10));  // DF bit
  b.Emit(Instruction::PushR(Reg::kRcx));
  b.Emit(Instruction::Popfq());  // DF = 1
  b.Emit(Instruction::MovRI(Reg::kRcx, 2));
  b.Emit(Instruction::Movsq(/*rep_prefix=*/true));  // descending copy
  b.Emit(Instruction::MovRI(Reg::kRcx, 0));
  b.Emit(Instruction::PushR(Reg::kRcx));
  b.Emit(Instruction::Popfq());  // DF = 0
  b.Emit(Instruction::MovRR(Reg::kRax, Reg::kRsi));
  b.Emit(Instruction::Ret());
  MiniKernel mk = MakeKernel(b.Build());
  Cpu cpu(mk.image.get());
  auto buf = mk.image->AllocDataPages(1);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(mk.image->Poke64(*buf + 0, 0xAA).ok());
  ASSERT_TRUE(mk.image->Poke64(*buf + 8, 0xBB).ok());
  // src = buf+8 (copied first, then buf+0), dst = buf+1032 downward.
  RunResult r = cpu.CallFunction(mk.entry, {*buf + 1032, *buf + 8});
  ASSERT_EQ(r.reason, StopReason::kReturned);
  EXPECT_EQ(r.rax, *buf + 8 - 16);  // rsi walked down two qwords
  auto hi = mk.image->Peek64(*buf + 1032);
  auto lo = mk.image->Peek64(*buf + 1024);
  ASSERT_TRUE(hi.ok() && lo.ok());
  EXPECT_EQ(*hi, 0xBBu);
  EXPECT_EQ(*lo, 0xAAu);
}

TEST(Cpu, RepWithZeroCountIsANop) {
  FunctionBuilder b("f");
  b.Emit(Instruction::MovRI(Reg::kRcx, 0));
  b.Emit(Instruction::Movsq(/*rep_prefix=*/true));
  b.Emit(Instruction::MovRI(Reg::kRax, 0x5AFE));
  b.Emit(Instruction::Ret());
  // rsi/rdi hold garbage: a zero-count rep must not touch memory at all.
  StopReason reason;
  EXPECT_EQ(RunWith(b.Build(), {0xDEAD000000ULL, 0xBEEF000000ULL}, &reason), 0x5AFEu);
  EXPECT_EQ(reason, StopReason::kReturned);
}

TEST(Cpu, BndcuWithinBoundIsFree) {
  FunctionBuilder b("f");
  b.Emit(Instruction::LoadBnd0(0x10000));
  b.Emit(Instruction::Bndcu(MemOperand::Base(Reg::kRdi, 0)));
  b.Emit(Instruction::MovRI(Reg::kRax, 1));
  b.Emit(Instruction::Ret());
  StopReason reason;
  EXPECT_EQ(RunWith(b.Build(), {0xFFFF}, &reason), 1u);
  EXPECT_EQ(reason, StopReason::kReturned);
}

TEST(Cpu, BndcuAboveBoundRaisesBr) {
  FunctionBuilder b("f");
  b.Emit(Instruction::LoadBnd0(0x10000));
  b.Emit(Instruction::Bndcu(MemOperand::Base(Reg::kRdi, 0)));
  b.Emit(Instruction::MovRI(Reg::kRax, 1));
  b.Emit(Instruction::Ret());
  StopReason reason;
  ExceptionKind exc;
  RunWith(b.Build(), {0x10001}, &reason, &exc);
  EXPECT_EQ(reason, StopReason::kException);
  EXPECT_EQ(exc, ExceptionKind::kBoundRange);
}

TEST(Cpu, Int3RaisesBreakpoint) {
  FunctionBuilder b("f");
  b.Emit(Instruction::Int3());
  b.Emit(Instruction::Ret());
  StopReason reason;
  ExceptionKind exc;
  RunWith(b.Build(), {}, &reason, &exc);
  EXPECT_EQ(reason, StopReason::kException);
  EXPECT_EQ(exc, ExceptionKind::kBreakpoint);
}

TEST(Cpu, UnmappedLoadPageFaults) {
  FunctionBuilder b("f");
  b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 0)));
  b.Emit(Instruction::Ret());
  StopReason reason;
  ExceptionKind exc;
  RunWith(b.Build(), {0xDEAD000000ULL}, &reason, &exc);
  EXPECT_EQ(reason, StopReason::kException);
  EXPECT_EQ(exc, ExceptionKind::kPageFault);
}

TEST(Cpu, StepLimit) {
  FunctionBuilder b("f");
  int32_t loop = b.ReserveBlock();
  b.Bind(loop);
  b.Emit(Instruction::AddRI(Reg::kRax, 1));
  b.Emit(Instruction::JmpBlock(loop));
  b.Emit(Instruction::Ret());
  MiniKernel mk = MakeKernel(b.Build());
  Cpu cpu(mk.image.get());
  RunResult r = cpu.CallFunction(mk.entry, {}, RunOptions{.max_steps = 1000});
  EXPECT_EQ(r.reason, StopReason::kStepLimit);
  EXPECT_EQ(r.instructions, 1000u);
}

TEST(Cpu, CyclesAccumulateAndIncludeKernelEntryCost) {
  FunctionBuilder b("f");
  b.Emit(Instruction::MovRI(Reg::kRax, 1));
  b.Emit(Instruction::Ret());
  MiniKernel mk = MakeKernel(b.Build());
  CostModel cost;
  Cpu cpu(mk.image.get(), cost);
  RunResult r = cpu.CallFunction(mk.entry, {});
  EXPECT_EQ(r.deci_cycles, cost.mode_switch + cost.alu + cost.ret);
}

TEST(Cpu, MpxKernelEntryExtraCharged) {
  FunctionBuilder b("f");
  b.Emit(Instruction::Ret());
  MiniKernel mk = MakeKernel(b.Build(), LayoutKind::kKrx);
  CostModel cost;
  CpuOptions opts;
  opts.mpx_enabled = true;
  Cpu cpu(mk.image.get(), cost, opts);
  RunResult r = cpu.CallFunction(mk.entry, {});
  EXPECT_EQ(r.deci_cycles, cost.mode_switch + cost.mpx_mode_switch_extra + cost.ret);
  // %bnd0 was loaded with _krx_edata on kernel entry.
  EXPECT_EQ(cpu.bnd0_ub(), mk.image->krx_edata());
}

TEST(Cpu, IndirectCallThroughMemory) {
  // callq *table(%rip)-style dispatch: reads a function pointer from data.
  SymbolTable symbols;
  KernelLinkInput input;
  Assembler as;
  {
    FunctionBuilder callee("target_fn");
    callee.Emit(Instruction::MovRI(Reg::kRax, 0x99));
    callee.Emit(Instruction::Ret());
    KRX_CHECK(as.Assemble(callee.Build(), &input.text).ok());
  }
  {
    FunctionBuilder caller("dispatch");
    caller.Emit(Instruction::SubRI(Reg::kRsp, 8));
    caller.Emit(Instruction::CallM(MemOperand::RipRelSym(
        symbols.Intern("fn_table", SymbolKind::kData))));
    caller.Emit(Instruction::AddRI(Reg::kRsp, 8));
    caller.Emit(Instruction::Ret());
    KRX_CHECK(as.Assemble(caller.Build(), &input.text).ok());
  }
  DataObject table;
  table.name = "fn_table";
  table.kind = SectionKind::kRodata;
  table.bytes.assign(8, 0);
  table.pointer_slots.push_back({0, symbols.Intern("target_fn")});
  input.data_objects.push_back(table);
  input.phys_bytes = 4ULL << 20;
  auto image = LinkKernel(LayoutKind::kVanilla, std::move(input), std::move(symbols));
  ASSERT_TRUE(image.ok());
  Cpu cpu(image->get());
  RunResult r = cpu.CallFunction("dispatch", {});
  EXPECT_EQ(r.reason, StopReason::kReturned);
  EXPECT_EQ(r.rax, 0x99u);
}

}  // namespace
}  // namespace krx
