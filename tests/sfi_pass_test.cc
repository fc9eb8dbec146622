// Unit and property tests of the kR^X-SFI / kR^X-MPX instrumentation pass.
#include <gtest/gtest.h>

#include "src/attack/disclosure.h"
#include "src/attack/experiments.h"
#include "src/cpu/cpu.h"
#include "src/ir/builder.h"
#include "src/plugin/pipeline.h"
#include "src/workload/corpus.h"
#include "src/workload/fig2.h"
#include "src/workload/harness.h"

namespace krx {
namespace {

constexpr int64_t kEdata = 0x7FFF0000;

struct PassResult {
  Function fn;
  SfiStats stats;
};

PassResult Apply(Function fn, SfiLevel level, bool mpx = false,
                 SpecMitigation spec = SpecMitigation::kNone) {
  SymbolTable symbols;
  int32_t handler = symbols.Intern(kKrxHandlerName);
  ProtectionConfig config;
  config.sfi = level;
  config.mpx = mpx;
  config.spec = spec;
  SfiStats stats;
  KRX_CHECK_OK(ApplySfiPass(fn, config, handler, kEdata, &stats));
  return {std::move(fn), stats};
}

size_t CountOp(const Function& fn, Opcode op) {
  size_t n = 0;
  for (const BasicBlock& b : fn.blocks()) {
    for (const Instruction& inst : b.insts) {
      if (inst.op == op) {
        ++n;
      }
    }
  }
  return n;
}

// ---- The Figure 2 regression: exact structure at each level. ----

TEST(SfiPass, Fig2O0WrapsEveryCheck) {
  PassResult r = Apply(MakeFig2Function(), SfiLevel::kO0);
  EXPECT_EQ(r.stats.checks_emitted, 3u);
  EXPECT_EQ(r.stats.wrappers_kept, 3u);
  EXPECT_EQ(CountOp(r.fn, Opcode::kPushfq), 3u);
  EXPECT_EQ(CountOp(r.fn, Opcode::kPopfq), 3u);
  EXPECT_EQ(CountOp(r.fn, Opcode::kLea), 3u);
}

TEST(SfiPass, Fig2O1KeepsOnlyRc2Wrapper) {
  // Only the check between cmpl and jg needs %rflags preserved.
  PassResult r = Apply(MakeFig2Function(), SfiLevel::kO1);
  EXPECT_EQ(r.stats.wrappers_kept, 1u);
  EXPECT_EQ(r.stats.wrappers_eliminated, 2u);
  EXPECT_EQ(CountOp(r.fn, Opcode::kPushfq), 1u);
}

TEST(SfiPass, Fig2O2EliminatesAllLeas) {
  PassResult r = Apply(MakeFig2Function(), SfiLevel::kO2);
  EXPECT_EQ(r.stats.lea_eliminated, 3u);
  EXPECT_EQ(r.stats.lea_kept, 0u);
  EXPECT_EQ(CountOp(r.fn, Opcode::kLea), 0u);
  // cmp $(edata - disp), %rsi form.
  bool found = false;
  for (const BasicBlock& b : r.fn.blocks()) {
    for (const Instruction& inst : b.insts) {
      if (inst.IsRangeCheck() && inst.op == Opcode::kCmpRI && inst.r1 == Reg::kRsi &&
          inst.imm == kEdata - 0x154) {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(SfiPass, Fig2O3CoalescesToSingleMaxDispCheck) {
  PassResult r = Apply(MakeFig2Function(), SfiLevel::kO3);
  EXPECT_EQ(r.stats.checks_emitted, 1u);
  EXPECT_EQ(r.stats.checks_coalesced, 2u);
  // The surviving check compares against edata - 0x154 (max displacement).
  size_t checks = 0;
  for (const BasicBlock& b : r.fn.blocks()) {
    for (const Instruction& inst : b.insts) {
      if (inst.IsRangeCheck() && inst.op == Opcode::kCmpRI) {
        ++checks;
        EXPECT_EQ(inst.imm, kEdata - 0x154);
      }
    }
  }
  EXPECT_EQ(checks, 1u);
}

TEST(SfiPass, Fig2MpxSingleBndcu) {
  PassResult r = Apply(MakeFig2Function(), SfiLevel::kO3, /*mpx=*/true);
  EXPECT_EQ(CountOp(r.fn, Opcode::kBndcu), 1u);
  EXPECT_EQ(CountOp(r.fn, Opcode::kPushfq), 0u);
  EXPECT_EQ(CountOp(r.fn, Opcode::kLea), 0u);
  EXPECT_EQ(CountOp(r.fn, Opcode::kCallRel), 0u);  // no handler call: #BR traps
  for (const BasicBlock& b : r.fn.blocks()) {
    for (const Instruction& inst : b.insts) {
      if (inst.op == Opcode::kBndcu) {
        EXPECT_EQ(inst.mem.base, Reg::kRsi);
        EXPECT_EQ(inst.mem.disp, 0x154);
      }
    }
  }
}

// ---- Exemptions. ----

// ---- Speculation-hardening emission (spec-barrier / spec-mask axes). ----

TEST(SfiPassSpec, BarrierFencesEveryCheck) {
  PassResult r =
      Apply(MakeFig2Function(), SfiLevel::kO3, /*mpx=*/false, SpecMitigation::kBarrier);
  EXPECT_GT(r.stats.checks_emitted, 0u);
  EXPECT_EQ(r.stats.spec_barriers, r.stats.checks_emitted);
  EXPECT_EQ(CountOp(r.fn, Opcode::kSpecFence), r.stats.spec_barriers);
  EXPECT_EQ(CountOp(r.fn, Opcode::kMaskRI), 0u);
  // Every fence sits right behind the ja it is guarding: a window opened at
  // the branch dies before the checked load can execute transiently.
  for (const BasicBlock& blk : r.fn.blocks()) {
    for (size_t i = 0; i < blk.insts.size(); ++i) {
      if (blk.insts[i].op == Opcode::kSpecFence) {
        ASSERT_GT(i, 0u);
        EXPECT_EQ(blk.insts[i - 1].op, Opcode::kJcc);
        EXPECT_EQ(blk.insts[i - 1].cond, Cond::kA);
      }
    }
  }
}

TEST(SfiPassSpec, MaskReplacesBranchyChecks) {
  PassResult r =
      Apply(MakeFig2Function(), SfiLevel::kO3, /*mpx=*/false, SpecMitigation::kMask);
  EXPECT_GT(r.stats.spec_masks, 0u);
  EXPECT_EQ(r.stats.spec_masks, r.stats.checks_emitted);
  EXPECT_EQ(CountOp(r.fn, Opcode::kMaskRI), r.stats.spec_masks);
  // The clamp is branchless and flag-free: no fences, no cmp/ja pairs, and
  // no pushfq/popfq wrappers survive anywhere in the function.
  EXPECT_EQ(CountOp(r.fn, Opcode::kSpecFence), 0u);
  EXPECT_EQ(CountOp(r.fn, Opcode::kPushfq), 0u);
  EXPECT_EQ(CountOp(r.fn, Opcode::kPopfq), 0u);
  for (const BasicBlock& blk : r.fn.blocks()) {
    for (const Instruction& inst : blk.insts) {
      if (inst.IsRangeCheck()) {
        EXPECT_TRUE(inst.op == Opcode::kMaskRI || inst.op == Opcode::kLea)
            << "branchy check survived under spec-mask";
      }
    }
  }
}

TEST(SfiPassSpec, BarrierCoversMpxChecksToo) {
  PassResult r =
      Apply(MakeFig2Function(), SfiLevel::kO3, /*mpx=*/true, SpecMitigation::kBarrier);
  EXPECT_GT(r.stats.spec_barriers, 0u);
  EXPECT_EQ(CountOp(r.fn, Opcode::kSpecFence), r.stats.spec_barriers);
  EXPECT_EQ(CountOp(r.fn, Opcode::kSpecFence), CountOp(r.fn, Opcode::kBndcu));
}

TEST(SfiPass, SafeAndRspReadsNotChecked) {
  FunctionBuilder b("f");
  b.Emit(Instruction::Load(Reg::kRax, MemOperand::RipRel(0x100)));         // safe
  b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Absolute(0x4000)));      // safe
  b.Emit(Instruction::Load(Reg::kRcx, MemOperand::Base(Reg::kRsp, 24)));   // guard-covered
  b.Emit(Instruction::Ret());
  PassResult r = Apply(b.Build(), SfiLevel::kO3);
  EXPECT_EQ(r.stats.checks_emitted, 0u);
  EXPECT_EQ(r.stats.safe_reads, 2u);
  EXPECT_EQ(r.stats.rsp_reads, 1u);
  EXPECT_EQ(r.stats.max_rsp_disp, 24);
}

TEST(SfiPass, RspWithIndexIsChecked) {
  FunctionBuilder b("f");
  b.Emit(Instruction::Load(Reg::kRax, MemOperand::BaseIndex(Reg::kRsp, Reg::kRdi, 8, 0)));
  b.Emit(Instruction::Ret());
  PassResult r = Apply(b.Build(), SfiLevel::kO3);
  EXPECT_EQ(r.stats.checks_emitted, 1u);
  EXPECT_EQ(r.stats.lea_kept, 1u);  // indexed => lea form even at O3
}

// ---- String operations. ----

TEST(SfiPass, RepStringCheckedAfterNonRepBefore) {
  FunctionBuilder b("f");
  b.Emit(Instruction::Movsq(/*rep=*/true));
  b.Emit(Instruction::Lodsq(/*rep=*/false));
  b.Emit(Instruction::Scasq(/*rep=*/true));
  b.Emit(Instruction::Ret());
  PassResult r = Apply(b.Build(), SfiLevel::kO3);
  EXPECT_EQ(r.stats.string_checks, 3u);
  const auto& insts = r.fn.blocks()[0].insts;
  // rep movsq: check after; lodsq: check before; rep scasq: check after.
  std::vector<Opcode> ops;
  for (const Instruction& inst : insts) {
    ops.push_back(inst.op);
  }
  // Expected: movsq, [cmp ja], [cmp ja], lodsq, scasq, [cmp ja](on rdi), ret
  ASSERT_GE(ops.size(), 3u);
  EXPECT_EQ(ops[0], Opcode::kMovsq);  // the rep op comes first, check follows
  // Find scas check: must compare %rdi.
  bool rdi_check = false;
  for (const Instruction& inst : insts) {
    if (inst.IsRangeCheck() && inst.op == Opcode::kCmpRI && inst.r1 == Reg::kRdi) {
      rdi_check = true;
    }
  }
  EXPECT_TRUE(rdi_check);
}

// ---- Coalescing safety. ----

TEST(SfiPass, RedefinitionBlocksCoalescing) {
  FunctionBuilder b("f");
  b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 8)));
  b.Emit(Instruction::AddRI(Reg::kRdi, 64));  // redefines the base
  b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRdi, 16)));
  b.Emit(Instruction::Ret());
  PassResult r = Apply(b.Build(), SfiLevel::kO3);
  EXPECT_EQ(r.stats.checks_emitted, 2u);
  EXPECT_EQ(r.stats.checks_coalesced, 0u);
}

TEST(SfiPass, SpillBlocksCoalescing) {
  FunctionBuilder b("f");
  b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 8)));
  b.Emit(Instruction::Store(MemOperand::Base(Reg::kRsp, 0), Reg::kRdi));  // spill
  b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRdi, 16)));
  b.Emit(Instruction::Ret());
  PassResult r = Apply(b.Build(), SfiLevel::kO3);
  EXPECT_EQ(r.stats.checks_coalesced, 0u);
}

TEST(SfiPass, CallBlocksCoalescing) {
  FunctionBuilder b("f");
  b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 8)));
  b.Emit(Instruction::CallSym(0));
  b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRdi, 16)));
  b.Emit(Instruction::Ret());
  PassResult r = Apply(b.Build(), SfiLevel::kO3);
  EXPECT_EQ(r.stats.checks_coalesced, 0u);
}

TEST(SfiPass, CoalescesAcrossDiamondWhenCheckedOnAllPaths) {
  // Both branch arms check %rdi; the join's read coalesces away.
  FunctionBuilder b("f");
  int32_t join = b.ReserveBlock();
  int32_t arm = b.ReserveBlock();
  b.Emit(Instruction::CmpRI(Reg::kRsi, 0));
  b.Emit(Instruction::JccBlock(Cond::kE, arm));
  b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 8)));
  b.Emit(Instruction::JmpBlock(join));
  b.Bind(arm);
  b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 16)));
  b.Bind(join);
  b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRdi, 24)));
  b.Emit(Instruction::Ret());
  PassResult r = Apply(b.Build(), SfiLevel::kO3);
  EXPECT_EQ(r.stats.checks_emitted, 2u);
  EXPECT_EQ(r.stats.checks_coalesced, 1u);
  // Both surviving checks were raised to the join's displacement (24).
  for (const BasicBlock& blk : r.fn.blocks()) {
    for (const Instruction& inst : blk.insts) {
      if (inst.IsRangeCheck() && inst.op == Opcode::kCmpRI && inst.r1 == Reg::kRdi) {
        EXPECT_EQ(inst.imm, kEdata - 24);
      }
    }
  }
}

TEST(SfiPass, NoCoalescingAcrossPartialPaths) {
  // Only one arm checks %rdi: the join must keep its own check.
  FunctionBuilder b("f");
  int32_t join = b.ReserveBlock();
  int32_t arm = b.ReserveBlock();
  b.Emit(Instruction::CmpRI(Reg::kRsi, 0));
  b.Emit(Instruction::JccBlock(Cond::kE, arm));
  b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 8)));
  b.Emit(Instruction::JmpBlock(join));
  b.Bind(arm);
  b.Emit(Instruction::MovRI(Reg::kRax, 0));  // no check on this path
  b.Bind(join);
  b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRdi, 24)));
  b.Emit(Instruction::Ret());
  PassResult r = Apply(b.Build(), SfiLevel::kO3);
  EXPECT_EQ(r.stats.checks_emitted, 2u);
  EXPECT_EQ(r.stats.checks_coalesced, 0u);
}

// ---- O4: cross-block congruence elision and loop hoisting. ----

// Returns every surviving range-check cmp immediate, across all blocks.
std::vector<int64_t> RangeCheckImms(const Function& fn) {
  std::vector<int64_t> imms;
  for (const BasicBlock& b : fn.blocks()) {
    for (const Instruction& inst : b.insts) {
      if (inst.IsRangeCheck() && inst.op == Opcode::kCmpRI) {
        imms.push_back(inst.imm);
      }
    }
  }
  return imms;
}

TEST(SfiPassO4, ElidesAcrossMovCongruence) {
  // mov %rdi, %rsi carries the checked value into a new register: the read
  // through %rsi is covered by the %rdi check once its bound is widened.
  auto make = [] {
    FunctionBuilder b("f");
    b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 8)));
    b.Emit(Instruction::MovRR(Reg::kRsi, Reg::kRdi));
    b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRsi, 16)));
    b.Emit(Instruction::Ret());
    return b.Build();
  };
  PassResult o3 = Apply(make(), SfiLevel::kO3);
  EXPECT_EQ(o3.stats.checks_emitted, 2u);  // O3 cannot see through the mov
  PassResult o4 = Apply(make(), SfiLevel::kO4);
  EXPECT_EQ(o4.stats.checks_emitted, 1u);
  EXPECT_EQ(o4.stats.checks_coalesced, 1u);
  // The surviving %rdi check was widened to the congruent read's reach.
  EXPECT_EQ(RangeCheckImms(o4.fn), std::vector<int64_t>{kEdata - 16});
}

TEST(SfiPassO4, ElidesAfterNonNegativeAdd) {
  // `add $64, %rdi` kills O3 coalescing (RedefinitionBlocksCoalescing), but
  // O4 knows the new value is old + 64 and folds the second read into the
  // first check at displacement 64 + 16.
  auto make = [] {
    FunctionBuilder b("f");
    b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 8)));
    b.Emit(Instruction::AddRI(Reg::kRdi, 64));
    b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRdi, 16)));
    b.Emit(Instruction::Ret());
    return b.Build();
  };
  PassResult o3 = Apply(make(), SfiLevel::kO3);
  EXPECT_EQ(o3.stats.checks_emitted, 2u);
  PassResult o4 = Apply(make(), SfiLevel::kO4);
  EXPECT_EQ(o4.stats.checks_emitted, 1u);
  EXPECT_EQ(RangeCheckImms(o4.fn), std::vector<int64_t>{kEdata - 80});
}

TEST(SfiPassO4, NegativeAddStillBlocksElision) {
  // Decrements may wrap below the checked bound under the unsigned compare,
  // so they must not transfer coverage even at O4.
  FunctionBuilder b("f");
  b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 8)));
  b.Emit(Instruction::AddRI(Reg::kRdi, -64));
  b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRdi, 16)));
  b.Emit(Instruction::Ret());
  PassResult r = Apply(b.Build(), SfiLevel::kO4);
  EXPECT_EQ(r.stats.checks_emitted, 2u);
  EXPECT_EQ(r.stats.checks_coalesced, 0u);
}

TEST(SfiPassO4, ElidesAfterSubWhenDisplacementRestores) {
  // `sub $16, %rdi` derives a value *below* the checked one; the span domain
  // tracks the negative lower edge and proves the later displacement (24)
  // pulls the address back above the checked base, so the read folds into
  // the first check (effective displacement 24 - 16 = 8 <= 8).
  auto make = [] {
    FunctionBuilder b("f");
    b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 8)));
    b.Emit(Instruction::SubRI(Reg::kRdi, 16));
    b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRdi, 24)));
    b.Emit(Instruction::Ret());
    return b.Build();
  };
  PassResult o3 = Apply(make(), SfiLevel::kO3);
  EXPECT_EQ(o3.stats.checks_emitted, 2u);
  PassResult o4 = Apply(make(), SfiLevel::kO4);
  EXPECT_EQ(o4.stats.checks_emitted, 1u);
  EXPECT_EQ(o4.stats.checks_coalesced, 1u);
  EXPECT_EQ(RangeCheckImms(o4.fn), std::vector<int64_t>{kEdata - 8});
}

TEST(SfiPassO4, SubPastDisplacementBlocksElision) {
  // `sub $64` followed by a read at +16 lands 48 bytes *below* the checked
  // address — that can wrap under the unsigned compare, so the elision must
  // be refused even though the span arithmetic is in range.
  FunctionBuilder b("f");
  b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 8)));
  b.Emit(Instruction::SubRI(Reg::kRdi, 64));
  b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRdi, 16)));
  b.Emit(Instruction::Ret());
  PassResult r = Apply(b.Build(), SfiLevel::kO4);
  EXPECT_EQ(r.stats.checks_emitted, 2u);
  EXPECT_EQ(r.stats.checks_coalesced, 0u);
}

TEST(SfiPassO4, PartialPathChecksStay) {
  // The NoCoalescingAcrossPartialPaths property must survive O4: coverage
  // only flows through the meet when *every* predecessor provides it.
  FunctionBuilder b("f");
  int32_t join = b.ReserveBlock();
  int32_t arm = b.ReserveBlock();
  b.Emit(Instruction::CmpRI(Reg::kRsi, 0));
  b.Emit(Instruction::JccBlock(Cond::kE, arm));
  b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 8)));
  b.Emit(Instruction::JmpBlock(join));
  b.Bind(arm);
  b.Emit(Instruction::MovRI(Reg::kRax, 0));  // no check on this path
  b.Bind(join);
  b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRdi, 24)));
  b.Emit(Instruction::Ret());
  PassResult r = Apply(b.Build(), SfiLevel::kO4);
  EXPECT_EQ(r.stats.checks_emitted, 2u);
  EXPECT_EQ(r.stats.checks_coalesced, 0u);
}

TEST(SfiPassO4, HoistsLoopInvariantCheckToPreheader) {
  // O3 keeps the check inside the loop (LoopHeaderChecksStay); O4 hoists it
  // into a fresh preheader, so it executes once instead of per iteration.
  auto make = [] {
    FunctionBuilder b("f");
    int32_t loop = b.ReserveBlock();
    b.Emit(Instruction::MovRI(Reg::kRcx, 10));
    b.Bind(loop);
    b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRdi, 16)));
    b.Emit(Instruction::SubRI(Reg::kRcx, 1));
    b.Emit(Instruction::JccBlock(Cond::kNe, loop));
    b.Emit(Instruction::Ret());
    return b.Build();
  };
  PassResult o3 = Apply(make(), SfiLevel::kO3);
  EXPECT_EQ(o3.stats.checks_emitted, 1u);
  EXPECT_EQ(o3.stats.checks_hoisted, 0u);
  PassResult o4 = Apply(make(), SfiLevel::kO4);
  EXPECT_EQ(o4.stats.checks_emitted, 1u);
  EXPECT_EQ(o4.stats.checks_hoisted, 1u);
  EXPECT_EQ(o4.stats.checks_coalesced, 1u);  // the in-loop site was absorbed
  // The surviving check covers the in-loop displacement and does not live
  // in the loop body (the block that decrements the counter).
  EXPECT_EQ(RangeCheckImms(o4.fn), std::vector<int64_t>{kEdata - 16});
  for (const BasicBlock& blk : o4.fn.blocks()) {
    bool in_loop = false;
    for (const Instruction& inst : blk.insts) {
      if (inst.op == Opcode::kSubRI) {
        in_loop = true;
      }
    }
    if (in_loop) {
      for (const Instruction& inst : blk.insts) {
        EXPECT_FALSE(inst.IsRangeCheck()) << "check left inside the loop";
      }
    }
  }
}

TEST(SfiPassO4, ClobberedBaseKeepsCheckInLoop) {
  // The base advances every iteration, so hoisting is unsound and the
  // widening pass must also refuse to elide: the check stays in the loop.
  FunctionBuilder b("f");
  int32_t loop = b.ReserveBlock();
  b.Emit(Instruction::MovRI(Reg::kRcx, 10));
  b.Bind(loop);
  b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRdi, 16)));
  b.Emit(Instruction::AddRI(Reg::kRdi, 8));
  b.Emit(Instruction::SubRI(Reg::kRcx, 1));
  b.Emit(Instruction::JccBlock(Cond::kNe, loop));
  b.Emit(Instruction::Ret());
  PassResult r = Apply(b.Build(), SfiLevel::kO4);
  EXPECT_EQ(r.stats.checks_hoisted, 0u);
  EXPECT_EQ(r.stats.checks_emitted, 1u);
  EXPECT_EQ(r.stats.checks_coalesced, 0u);
  // The check sits next to the load, inside the loop.
  for (const BasicBlock& blk : r.fn.blocks()) {
    bool has_load = false;
    bool has_check = false;
    for (const Instruction& inst : blk.insts) {
      has_load |= inst.op == Opcode::kLoad;
      has_check |= inst.IsRangeCheck() && inst.op == Opcode::kCmpRI;
    }
    EXPECT_EQ(has_load, has_check);
  }
}

TEST(SfiPassO4, CallInLoopBlocksHoisting) {
  FunctionBuilder b("f");
  int32_t loop = b.ReserveBlock();
  b.Emit(Instruction::MovRI(Reg::kRcx, 10));
  b.Bind(loop);
  b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRdi, 16)));
  b.Emit(Instruction::CallSym(0));
  b.Emit(Instruction::SubRI(Reg::kRcx, 1));
  b.Emit(Instruction::JccBlock(Cond::kNe, loop));
  b.Emit(Instruction::Ret());
  PassResult r = Apply(b.Build(), SfiLevel::kO4);
  EXPECT_EQ(r.stats.checks_hoisted, 0u);
  EXPECT_EQ(r.stats.checks_emitted, 1u);
}

// ---- O4 + callee-clobber summaries: call-transparent facts. ----

// Symbol id used for the summarized callee in the IR-level tests below.
// ApplySfiPass never resolves it — only the summary keys must match.
constexpr int32_t kLeafSym = 1;

PassResult ApplyO4WithClobbers(Function fn, const CalleeClobberSummary& clobbers) {
  SymbolTable symbols;
  int32_t handler = symbols.Intern(kKrxHandlerName);
  ProtectionConfig config;
  config.sfi = SfiLevel::kO4;
  SfiStats stats;
  KRX_CHECK_OK(ApplySfiPass(fn, config, handler, kEdata, &stats, &clobbers));
  return {std::move(fn), stats};
}

CalleeClobberSummary LeafSummary(uint64_t extra_mask = 0) {
  CalleeClobberSummary s;
  s.Set(kLeafSym, RegBit(kRangeCheckScratch) | RegBit(Reg::kRsp) | RegBit(Reg::kRax) |
                      extra_mask);
  return s;
}

Function MakeLoopWithCall() {
  // The CallInLoopBlocksHoisting shape: without a summary the call kills the
  // base fact and forces the check back into the loop body.
  FunctionBuilder b("f");
  int32_t loop = b.ReserveBlock();
  b.Emit(Instruction::MovRI(Reg::kRcx, 10));
  b.Bind(loop);
  b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRdi, 16)));
  b.Emit(Instruction::CallSym(kLeafSym));
  b.Emit(Instruction::SubRI(Reg::kRcx, 1));
  b.Emit(Instruction::JccBlock(Cond::kNe, loop));
  b.Emit(Instruction::Ret());
  return b.Build();
}

TEST(SfiPassO4Clobber, NonClobberingCalleeAllowsLoopHoist) {
  PassResult r = ApplyO4WithClobbers(MakeLoopWithCall(), LeafSummary());
  EXPECT_EQ(r.stats.checks_hoisted, 1u);
  EXPECT_EQ(r.stats.checks_emitted, 1u);
  EXPECT_EQ(r.stats.checks_coalesced, 1u);
  // The loop body (the block with the counter decrement) carries no check.
  for (const BasicBlock& blk : r.fn.blocks()) {
    bool in_loop = false;
    for (const Instruction& inst : blk.insts) {
      in_loop |= inst.op == Opcode::kSubRI;
    }
    if (in_loop) {
      for (const Instruction& inst : blk.insts) {
        EXPECT_FALSE(inst.IsRangeCheck()) << "check left inside the loop";
      }
    }
  }
}

TEST(SfiPassO4Clobber, ClobberingCalleeStillBlocksHoist) {
  // Same loop, but the summary says the callee writes the base register —
  // hoisting would check a value the callee later replaces.
  PassResult r = ApplyO4WithClobbers(MakeLoopWithCall(), LeafSummary(RegBit(Reg::kRdi)));
  EXPECT_EQ(r.stats.checks_hoisted, 0u);
  EXPECT_EQ(r.stats.checks_emitted, 1u);
}

TEST(SfiPassO4Clobber, UnsummarizedCalleeStaysConservative) {
  // A summary that does not know the callee must behave exactly like the
  // no-summary path: MaskOf(unknown) == kAllRegs.
  CalleeClobberSummary empty;
  EXPECT_EQ(empty.MaskOf(kLeafSym), CalleeClobberSummary::kAllRegs);
  PassResult r = ApplyO4WithClobbers(MakeLoopWithCall(), empty);
  EXPECT_EQ(r.stats.checks_hoisted, 0u);
  EXPECT_EQ(r.stats.checks_emitted, 1u);
}

TEST(SfiPassO4Clobber, ElisionSurvivesNonClobberingCall) {
  // Straight-line: the first check covers disp 24; the call does not touch
  // %rdi, so the second (smaller-displacement) site is elided under the
  // surviving fact. Without a summary both sites emit checks.
  auto make = [] {
    FunctionBuilder b("f");
    b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRdi, 24)));
    b.Emit(Instruction::CallSym(kLeafSym));
    b.Emit(Instruction::Load(Reg::kRdx, MemOperand::Base(Reg::kRdi, 16)));
    b.Emit(Instruction::Ret());
    return b.Build();
  };
  PassResult without = Apply(make(), SfiLevel::kO4);
  EXPECT_EQ(without.stats.checks_emitted, 2u);
  PassResult with = ApplyO4WithClobbers(make(), LeafSummary());
  EXPECT_EQ(with.stats.checks_emitted, 1u);
  EXPECT_EQ(with.stats.checks_coalesced, 1u);
  EXPECT_EQ(RangeCheckImms(with.fn), std::vector<int64_t>{kEdata - 24});
}

TEST(SfiPassO4Clobber, ComputeMasksTransitivityAndIndirect) {
  std::vector<Function> fns;
  SymbolTable symbols;
  const int32_t leaf = symbols.Intern("leaf");
  const int32_t wrapper = symbols.Intern("wrapper");
  const int32_t chaotic = symbols.Intern("chaotic");
  const int32_t saver = symbols.Intern("saver");
  {
    FunctionBuilder b("leaf");
    b.Emit(Instruction::MovRI(Reg::kRax, 1));
    b.Emit(Instruction::Ret());
    fns.push_back(b.Build());
  }
  {
    FunctionBuilder b("wrapper");
    b.Emit(Instruction::MovRI(Reg::kRbx, 2));
    b.Emit(Instruction::CallSym(leaf));
    b.Emit(Instruction::Ret());
    fns.push_back(b.Build());
  }
  {
    FunctionBuilder b("chaotic");
    b.Emit(Instruction::CallR(Reg::kRax));
    b.Emit(Instruction::Ret());
    fns.push_back(b.Build());
  }
  {
    // Callee-saved save/restore: the pop is a write under the §5.1.2 spill
    // rule — the restored value came through attacker-reachable memory.
    FunctionBuilder b("saver");
    b.Emit(Instruction::PushR(Reg::kRdi));
    b.Emit(Instruction::PopR(Reg::kRdi));
    b.Emit(Instruction::Ret());
    fns.push_back(b.Build());
  }
  CalleeClobberSummary s = ComputeCalleeClobbers(
      fns, [&symbols](const std::string& name) { return symbols.Intern(name); });
  const uint64_t forced = RegBit(kRangeCheckScratch) | RegBit(Reg::kRsp);
  EXPECT_EQ(s.MaskOf(leaf), RegBit(Reg::kRax) | forced);
  EXPECT_EQ(s.MaskOf(wrapper), RegBit(Reg::kRax) | RegBit(Reg::kRbx) | forced);
  EXPECT_EQ(s.MaskOf(chaotic), CalleeClobberSummary::kAllRegs);
  EXPECT_TRUE(s.MayClobber(saver, Reg::kRdi));
  EXPECT_TRUE(s.MayClobber(999, Reg::kRdi));  // unknown ids clobber everything
}

TEST(SfiPassO4Clobber, EndToEndElisionPassesPostLinkVerify) {
  // Whole-pipeline proof: the hoisted-over-a-call elision must be
  // independently re-provable by the byte-level verifier (the test binary
  // runs with KRX_POST_LINK_VERIFY=1, so CompileKernel fails otherwise),
  // and the program still computes the right value.
  KernelSource src = MakeBaseSource();
  {
    FunctionBuilder b("ccs_helper");
    b.Emit(Instruction::MovRI(Reg::kRbx, 7));
    b.Emit(Instruction::Ret());
    src.functions.push_back(b.Build());
    src.symbols.Intern("ccs_helper");
  }
  const int32_t helper_sym = src.symbols.Intern("ccs_helper");
  {
    FunctionBuilder b("ccs_caller");
    int32_t loop = b.ReserveBlock();
    b.Emit(Instruction::MovRI(Reg::kRcx, 4));
    b.Bind(loop);
    b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 16)));
    b.Emit(Instruction::CallSym(helper_sym));
    b.Emit(Instruction::SubRI(Reg::kRcx, 1));
    b.Emit(Instruction::JccBlock(Cond::kNe, loop));
    b.Emit(Instruction::Ret());
    src.functions.push_back(b.Build());
    src.symbols.Intern("ccs_caller");
  }
  auto kernel =
      CompileKernel(std::move(src), {ProtectionConfig::SfiOnly(SfiLevel::kO4), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  EXPECT_GE(kernel->stats.sfi.checks_hoisted, 1u);

  Cpu cpu(kernel->image.get());
  auto buf = kernel->image->AllocDataPages(1);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(kernel->image->Poke64(*buf + 16, 0x1234).ok());
  auto caller = kernel->image->symbols().AddressOf("ccs_caller");
  ASSERT_TRUE(caller.ok());
  RunResult r = cpu.CallFunction(*caller, {*buf});
  ASSERT_EQ(r.reason, StopReason::kReturned);
  EXPECT_EQ(r.rax, 0x1234u);
}

TEST(SfiPass, LoopHeaderChecksStay) {
  // A check inside a loop cannot be absorbed by a pre-loop check.
  FunctionBuilder b("f");
  int32_t loop = b.ReserveBlock();
  b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 8)));
  b.Bind(loop);
  b.Emit(Instruction::Load(Reg::kRbx, MemOperand::Base(Reg::kRdi, 16)));
  b.Emit(Instruction::SubRI(Reg::kRcx, 1));
  b.Emit(Instruction::JccBlock(Cond::kNe, loop));
  b.Emit(Instruction::Ret());
  PassResult r = Apply(b.Build(), SfiLevel::kO3);
  EXPECT_EQ(r.stats.checks_emitted, 2u);
}

// ---- Dynamic enforcement properties. ----

class EnforcementSweep : public ::testing::TestWithParam<int> {};

TEST_P(EnforcementSweep, AdversarialBaseRegistersAreAlwaysCaught) {
  // Build a full kernel under each level; call the leak routine with
  // addresses around every interesting boundary and verify reads above
  // _krx_edata never survive.
  const int param = GetParam();
  KernelSource src = MakeBaseSource();
  ProtectionConfig config;
  if (param == 0 || param == 6) {  // params 0/6 exercise the MPX flavour
    config.sfi = param == 0 ? SfiLevel::kO3 : SfiLevel::kO4;
    config.mpx = true;
  } else {
    config.sfi = static_cast<SfiLevel>(param);
  }
  auto kernel = CompileKernel(std::move(src), {config, LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  CpuOptions opts;
  opts.mpx_enabled = config.mpx;
  Cpu cpu(kernel->image.get(), CostModel(), opts);
  uint64_t edata = kernel->image->krx_edata();
  auto leak = kernel->image->symbols().AddressOf(kLeakSymbolName);
  ASSERT_TRUE(leak.ok());

  const PlacedSection* text = kernel->image->FindSection(".text");
  const uint64_t probes[] = {
      text->vaddr, text->vaddr + 1,  text->vaddr + text->size - 8,
      edata + 8,   kKrxCodeBase + 8, edata + (1ULL << 20),
  };
  for (uint64_t addr : probes) {
    RunResult r = cpu.CallFunction(*leak, {addr});
    bool stopped = r.krx_violation ||
                   (r.reason == StopReason::kException &&
                    r.exception == ExceptionKind::kBoundRange);
    EXPECT_TRUE(stopped) << "read of 0x" << std::hex << addr << " above edata survived";
  }
  // And reads below edata still work.
  auto cred = kernel->image->symbols().AddressOf(kCurrentCredName);
  ASSERT_TRUE(cred.ok());
  RunResult ok = cpu.CallFunction(*leak, {*cred});
  EXPECT_EQ(ok.reason, StopReason::kReturned);
}

std::string LevelName(const ::testing::TestParamInfo<int>& param_info) {
  static const char* const kNames[] = {"MPX", "O0", "O1", "O2", "O3", "O4", "MpxO4"};
  return kNames[param_info.param];
}

INSTANTIATE_TEST_SUITE_P(Levels, EnforcementSweep, ::testing::Values(0, 1, 2, 3, 4, 5, 6),
                         LevelName);

TEST(SfiPass, ExemptFunctionsSkipped) {
  KernelSource src = MakeBaseSource();
  ProtectionConfig config = ProtectionConfig::SfiOnly(SfiLevel::kO3);
  config.exempt_functions.insert(kLeakSymbolName);  // pretend it's a cloned memcpy
  auto kernel = CompileKernel(std::move(src), {config, LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok());
  Cpu cpu(kernel->image.get());
  auto leak = kernel->image->symbols().AddressOf(kLeakSymbolName);
  ASSERT_TRUE(leak.ok());
  const PlacedSection* text = kernel->image->FindSection(".text");
  // The exempt routine can read code (that is what the ftrace/kprobes
  // clones are for).
  RunResult r = cpu.CallFunction(*leak, {text->vaddr});
  EXPECT_EQ(r.reason, StopReason::kReturned);
  EXPECT_FALSE(r.krx_violation);
}

}  // namespace
}  // namespace krx
