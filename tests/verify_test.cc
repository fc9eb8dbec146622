// Binary-level verifier (src/verify/): the config matrix verifies clean,
// vanilla demonstrably fails R^X, exemptions are honored, and single-byte
// image corruptions are pinned to exactly the right rule — the soundness
// half of an SFI-style verifier's contract.
#include <gtest/gtest.h>

#include "src/ir/builder.h"
#include "src/ir/liveness.h"
#include "src/isa/encoding.h"
#include "src/kernel/layout.h"
#include "src/plugin/pipeline.h"
#include "src/verify/confinement.h"
#include "src/verify/decoded_function.h"
#include "src/verify/verifier.h"
#include "src/workload/corpus.h"
#include "src/workload/harness.h"

namespace krx {
namespace {

constexpr uint64_t kSeed = 0xD15A;

CompiledKernel Build(const ProtectionConfig& config, LayoutKind layout) {
  auto kernel = CompileKernel(MakeBenchSource(kSeed), {config, layout});
  KRX_CHECK_OK(kernel.status());
  return std::move(*kernel);
}

// All diagnostics in `report` carry `rule` (and there is at least one).
void ExpectOnlyRule(const VerifyReport& report, RuleId rule) {
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Violates(rule)) << report.Summary(4);
  for (const Diagnostic& d : report.diagnostics) {
    EXPECT_EQ(static_cast<int>(d.rule), static_cast<int>(rule)) << d.ToString();
  }
}

// Overwrites the instruction at `di` in place with `repl`. Encodings are
// operand-value independent in size, so in-place rewrites always fit.
void Rewrite(KernelImage& image, const DecodedInst& di, const Instruction& repl) {
  std::vector<uint8_t> bytes;
  EncodeInstruction(repl, bytes);
  ASSERT_EQ(bytes.size(), di.size);
  KRX_CHECK_OK(image.PokeBytes(di.address, bytes.data(), bytes.size()));
}

// Index of a range-check `cmp base, imm` + `ja` pair in `fn`, or -1. A
// range-check immediate sits within one guard-size below edata — no
// workload compare comes near that band.
int64_t FindRangeCheckCmp(const DecodedFunction& fn, uint64_t edata) {
  for (size_t i = 0; i + 1 < fn.insts.size(); ++i) {
    const Instruction& inst = fn.insts[i].inst;
    const Instruction& next = fn.insts[i + 1].inst;
    if (inst.op == Opcode::kCmpRI && static_cast<uint64_t>(inst.imm) <= edata &&
        static_cast<uint64_t>(inst.imm) >= edata - 4096 && next.op == Opcode::kJcc &&
        next.cond == Cond::kA) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

// Some function in `image` containing a range check (which function gets
// one depends on the corpus RNG, so scan instead of hardcoding a name).
struct RangeCheckSite {
  DecodedFunction fn;
  size_t index = 0;
};

bool FindRangeCheckSite(const KernelImage& image, RangeCheckSite* out) {
  const SymbolTable& symbols = image.symbols();
  for (int32_t i = 0; i < static_cast<int32_t>(symbols.size()); ++i) {
    const Symbol& sym = symbols.at(i);
    if (!sym.defined || sym.kind != SymbolKind::kFunction || sym.size == 0 ||
        sym.name == kKrxHandlerName) {
      continue;
    }
    auto fn = DecodeFunction(image, sym.name, sym.address, sym.size);
    if (!fn.ok()) {
      continue;
    }
    int64_t idx = FindRangeCheckCmp(*fn, image.krx_edata());
    if (idx >= 0) {
      out->fn = std::move(*fn);
      out->index = static_cast<size_t>(idx);
      return true;
    }
  }
  return false;
}

// Decoded view of a defined function symbol.
DecodedFunction Decode(const KernelImage& image, const std::string& name) {
  int32_t idx = image.symbols().Find(name);
  KRX_CHECK(idx >= 0 && image.symbols().at(idx).defined);
  const Symbol& sym = image.symbols().at(idx);
  auto fn = DecodeFunction(image, sym.name, sym.address, sym.size);
  KRX_CHECK_OK(fn.status());
  return std::move(*fn);
}

// Real entry of a (possibly diversified) function: follow the pinned entry
// trampoline and any connector jmps to the first non-jmp instruction.
int64_t EntryIndex(const DecodedFunction& fn) {
  int64_t idx = 0;
  for (int hops = 0; hops < 16; ++hops) {
    const DecodedInst& di = fn.insts[static_cast<size_t>(idx)];
    if (di.inst.op != Opcode::kJmpRel || !fn.Contains(di.BranchTarget())) {
      return idx;
    }
    idx = fn.InstIndexAt(di.BranchTarget());
    if (idx < 0) {
      return -1;
    }
  }
  return idx;
}

TEST(VerifyMatrix, VanillaFailsRxByConstruction) {
  CompiledKernel kernel = Build(ProtectionConfig::Vanilla(), LayoutKind::kVanilla);
  VerifyOptions opts;    // nothing derivable from a vanilla config...
  opts.check_rx = true;  // ...so force the R^X rules, as the CLI does
  VerifyReport report = VerifyImage(*kernel.image, opts);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Violates(RuleId::kRxLayout));
  EXPECT_TRUE(report.Violates(RuleId::kRxPhysmap));
  EXPECT_TRUE(report.Violates(RuleId::kRxRead));
  EXPECT_GT(report.counters.reads_seen, 0u);
}

TEST(VerifyMatrix, EveryProtectedConfigVerifies) {
  for (const Column& col : Table1Columns(kSeed)) {
    CompiledKernel kernel = Build(col.config, col.layout);
    VerifyReport report = VerifyImage(*kernel.image, VerifyOptions::ForConfig(col.config));
    EXPECT_TRUE(report.ok()) << col.name << ":\n" << report.Summary(4);
    EXPECT_GT(report.counters.functions_checked, 0u) << col.name;
  }
}

TEST(VerifyMatrix, SpecHardenedConfigsVerify) {
  for (SpecMitigation m : {SpecMitigation::kBarrier, SpecMitigation::kMask}) {
    ProtectionConfig config = ProtectionConfig::SpecHardened(m);
    CompiledKernel kernel = Build(config, LayoutKind::kKrx);
    VerifyReport report = VerifyImage(*kernel.image, VerifyOptions::ForConfig(config));
    EXPECT_TRUE(report.ok()) << report.Summary(4);
    EXPECT_GT(report.counters.range_checks_seen, 0u);
  }
}

TEST(VerifyMatrix, UnfencedChecksAreCaughtUnderBarrierRule) {
  // An sfi-o3 build proves confinement but emits no lfences; verifying it
  // with the barrier mitigation claimed must flag every check as unfenced.
  CompiledKernel kernel = Build(ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  ASSERT_TRUE(VerifyImage(*kernel.image, opts).ok());
  opts.spec = SpecMitigation::kBarrier;
  ExpectOnlyRule(VerifyImage(*kernel.image, opts), RuleId::kSpecBarrier);
}

TEST(VerifyMatrix, SurvivingChecksAreCaughtUnderMaskRule) {
  // Under spec-mask no conditional range check may survive at all — the same
  // sfi-o3 image must be rejected with the mask rule when verified as such.
  CompiledKernel kernel = Build(ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  ASSERT_TRUE(VerifyImage(*kernel.image, opts).ok());
  opts.spec = SpecMitigation::kMask;
  ExpectOnlyRule(VerifyImage(*kernel.image, opts), RuleId::kSpecMask);
}

TEST(VerifyMatrix, ExemptFunctionsAreSkippedButStayDangerous) {
  // Pick a function the O3 pass actually instrumented...
  CompiledKernel baseline = Build(ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx);
  RangeCheckSite site;
  ASSERT_TRUE(FindRangeCheckSite(*baseline.image, &site));

  // ...and rebuild with it exempted, as ftrace/KProbes readers would be.
  ProtectionConfig config = ProtectionConfig::SfiOnly(SfiLevel::kO3);
  config.exempt_functions = {site.fn.name};
  CompiledKernel kernel = Build(config, LayoutKind::kKrx);

  // With the exemption the image verifies (the verifier skips it too)...
  VerifyOptions opts = VerifyOptions::ForConfig(config);
  VerifyReport report = VerifyImage(*kernel.image, opts);
  EXPECT_TRUE(report.ok()) << report.Summary(4);
  EXPECT_GE(report.counters.functions_exempt, 2u);  // exempt fn + krx_handler

  // ...but dropping the exemption exposes its uninstrumented reads: the
  // verifier, not the pass, is what notices.
  opts.exempt_functions.clear();
  ExpectOnlyRule(VerifyImage(*kernel.image, opts), RuleId::kRxRead);
}

TEST(VerifyMutation, DroppedCmpIsCaught) {
  CompiledKernel kernel = Build(ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  ASSERT_TRUE(VerifyImage(*kernel.image, opts).ok());

  RangeCheckSite site;
  ASSERT_TRUE(FindRangeCheckSite(*kernel.image, &site));
  // Neutralize the check: compare a register the read never goes through.
  Instruction cmp = site.fn.insts[site.index].inst;
  cmp.r1 = cmp.r1 == Reg::kRax ? Reg::kRbx : Reg::kRax;
  Rewrite(*kernel.image, site.fn.insts[site.index], cmp);

  ExpectOnlyRule(VerifyImage(*kernel.image, opts), RuleId::kRxRead);
}

TEST(VerifyMutation, DroppedCmpIsCaughtAtO4) {
  // The O4 image carries far fewer checks, every one justifying whole
  // families of elided reads — neutralizing the first one found must break
  // the interval-domain proof.
  CompiledKernel kernel = Build(ProtectionConfig::SfiOnly(SfiLevel::kO4), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  ASSERT_TRUE(VerifyImage(*kernel.image, opts).ok());

  RangeCheckSite site;
  ASSERT_TRUE(FindRangeCheckSite(*kernel.image, &site));
  Instruction cmp = site.fn.insts[site.index].inst;
  cmp.r1 = cmp.r1 == Reg::kRax ? Reg::kRbx : Reg::kRax;
  Rewrite(*kernel.image, site.fn.insts[site.index], cmp);

  ExpectOnlyRule(VerifyImage(*kernel.image, opts), RuleId::kRxRead);
}

TEST(VerifyMutation, EveryO4CheckIsLoadBearing) {
  // O4's contract: a check that survives elision is non-redundant. Strip
  // each surviving check (one per function, register-swap neutralization),
  // verify, and restore — every single mutation must be rejected.
  CompiledKernel kernel = Build(ProtectionConfig::SfiOnly(SfiLevel::kO4), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  ASSERT_TRUE(VerifyImage(*kernel.image, opts).ok());

  const SymbolTable& symbols = kernel.image->symbols();
  int mutations = 0;
  for (int32_t s = 0; s < static_cast<int32_t>(symbols.size()); ++s) {
    const Symbol& sym = symbols.at(s);
    if (!sym.defined || sym.kind != SymbolKind::kFunction || sym.size == 0 ||
        sym.name == kKrxHandlerName) {
      continue;
    }
    auto fn = DecodeFunction(*kernel.image, sym.name, sym.address, sym.size);
    if (!fn.ok()) {
      continue;
    }
    int64_t idx = FindRangeCheckCmp(*fn, kernel.image->krx_edata());
    if (idx < 0) {
      continue;
    }
    const DecodedInst& di = fn->insts[static_cast<size_t>(idx)];
    Instruction broken = di.inst;
    broken.r1 = broken.r1 == Reg::kRax ? Reg::kRbx : Reg::kRax;
    Rewrite(*kernel.image, di, broken);
    VerifyReport report = VerifyImage(*kernel.image, opts);
    EXPECT_FALSE(report.ok()) << sym.name << ": stripped check at index " << idx
                              << " was not load-bearing";
    EXPECT_TRUE(report.Violates(RuleId::kRxRead)) << sym.name;
    Rewrite(*kernel.image, di, di.inst);  // restore the original bytes
    ++mutations;
  }
  ASSERT_GT(mutations, 4);  // the corpus has many instrumented functions
  // Restoration left the image sound.
  EXPECT_TRUE(VerifyImage(*kernel.image, opts).ok());
}

TEST(VerifyMutation, ClobberedDominatingBaseIsCaughtAtO4) {
  // Find a surviving check whose base register justifies a *later* read
  // (an O4 elision), with a rewritable instruction in between. Clobbering
  // the base there (mov $above-edata, %base) kills the interval fact the
  // elided read depends on; the verifier must notice.
  CompiledKernel kernel = Build(ProtectionConfig::SfiOnly(SfiLevel::kO4), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  ASSERT_TRUE(VerifyImage(*kernel.image, opts).ok());
  const uint64_t edata = kernel.image->krx_edata();

  const SymbolTable& symbols = kernel.image->symbols();
  bool mutated = false;
  for (int32_t s = 0; s < static_cast<int32_t>(symbols.size()) && !mutated; ++s) {
    const Symbol& sym = symbols.at(s);
    if (!sym.defined || sym.kind != SymbolKind::kFunction || sym.size == 0 ||
        sym.name == kKrxHandlerName) {
      continue;
    }
    auto fn = DecodeFunction(*kernel.image, sym.name, sym.address, sym.size);
    if (!fn.ok()) {
      continue;
    }
    for (size_t i = 0; i + 1 < fn->insts.size() && !mutated; ++i) {
      const Instruction& cmp = fn->insts[i].inst;
      const Instruction& ja = fn->insts[i + 1].inst;
      if (cmp.op != Opcode::kCmpRI || static_cast<uint64_t>(cmp.imm) > edata ||
          static_cast<uint64_t>(cmp.imm) < edata - 4096 || ja.op != Opcode::kJcc ||
          ja.cond != Cond::kA) {
        continue;
      }
      const Reg base = cmp.r1;
      // Scan the straight-line tail: stop at anything that re-derives or
      // re-checks the base (positive adds keep coverage and may pass). The
      // clobber vehicle is the first load *through* the base into some
      // other register — redirecting its destination onto the base itself
      // replaces the checked pointer with unchecked memory content. The
      // victim is any later non-indexed read through the base (indexed
      // reads carry their own lea-form check).
      int64_t clobber = -1;
      for (size_t j = i + 2; j < fn->insts.size(); ++j) {
        const DecodedInst& dj = fn->insts[j];
        const Instruction& inst = dj.inst;
        const bool derives_base = inst.op == Opcode::kAddRI && inst.r1 == base && inst.imm >= 0;
        if (!dj.reachable || inst.IsCall() || inst.IsTerminator() ||
            (InstructionWritesReg(inst, base) && !derives_base)) {
          break;
        }
        if (inst.op == Opcode::kCmpRI && inst.r1 == base) {
          break;  // a fresh check would re-cover the base
        }
        const bool read_via_base = inst.ReadsMemory() && inst.mem.base == base &&
                                   inst.mem.index == Reg::kNone && !inst.mem.rip_relative;
        if (clobber >= 0 && read_via_base) {
          Instruction evil = fn->insts[static_cast<size_t>(clobber)].inst;
          evil.r1 = base;  // load [base+d] -> base: the interval fact dies
          Rewrite(*kernel.image, fn->insts[static_cast<size_t>(clobber)], evil);
          mutated = true;
          break;
        }
        if (clobber < 0 && read_via_base && inst.r1 != base &&
            (inst.op == Opcode::kLoad || inst.op == Opcode::kAddRM)) {
          clobber = static_cast<int64_t>(j);
        }
      }
    }
  }
  ASSERT_TRUE(mutated) << "no check/clobber-point/read triple found in the O4 image";
  ExpectOnlyRule(VerifyImage(*kernel.image, opts), RuleId::kRxRead);
}

TEST(VerifyMutation, RetargetedJaIsCaught) {
  CompiledKernel kernel = Build(ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  ASSERT_TRUE(VerifyImage(*kernel.image, opts).ok());

  RangeCheckSite site;
  ASSERT_TRUE(FindRangeCheckSite(*kernel.image, &site));
  // Point the ja at its own fallthrough: the check no longer has a
  // violation edge, so it proves nothing about the read it guarded.
  Instruction ja = site.fn.insts[site.index + 1].inst;
  ja.imm = 0;
  Rewrite(*kernel.image, site.fn.insts[site.index + 1], ja);

  ExpectOnlyRule(VerifyImage(*kernel.image, opts), RuleId::kRxRead);
}

TEST(VerifyMutation, ZeroedXkeyIsCaught) {
  CompiledKernel kernel =
      Build(ProtectionConfig::DiversifyOnly(RaScheme::kEncrypt, kSeed), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  ASSERT_TRUE(VerifyImage(*kernel.image, opts).ok());

  int32_t sym = kernel.image->symbols().Find("xkey$util_1");
  ASSERT_GE(sym, 0);
  KRX_CHECK_OK(kernel.image->Poke64(kernel.image->symbols().at(sym).address, 0));

  ExpectOnlyRule(VerifyImage(*kernel.image, opts), RuleId::kRxXkeys);
}

TEST(VerifyMutation, BrokenEncryptPrologueIsCaught) {
  CompiledKernel kernel =
      Build(ProtectionConfig::DiversifyOnly(RaScheme::kEncrypt, kSeed), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  ASSERT_TRUE(VerifyImage(*kernel.image, opts).ok());

  // Entry trampoline -> xkey load -> `xor %r11, (%rsp)`. Shift the xor one
  // slot up the stack: the return address is no longer encrypted.
  DecodedFunction fn = Decode(*kernel.image, "util_1");
  int64_t entry = EntryIndex(fn);
  ASSERT_GE(entry, 0);
  ASSERT_EQ(fn.insts[static_cast<size_t>(entry)].inst.op, Opcode::kLoad);
  const DecodedInst& xor_inst = fn.insts[static_cast<size_t>(entry) + 1];
  ASSERT_EQ(xor_inst.inst.op, Opcode::kXorMR);
  Instruction broken = xor_inst.inst;
  broken.mem = MemOperand::Base(Reg::kRsp, 8);
  Rewrite(*kernel.image, xor_inst, broken);

  ExpectOnlyRule(VerifyImage(*kernel.image, opts), RuleId::kRaXPrologue);
}

TEST(VerifyMutation, DeadTripwireIsCaught) {
  CompiledKernel kernel =
      Build(ProtectionConfig::DiversifyOnly(RaScheme::kDecoy, kSeed), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  VerifyReport base = VerifyImage(*kernel.image, opts);
  ASSERT_TRUE(base.ok()) << base.Summary(4);
  ASSERT_GT(base.counters.tripwires_verified, 0u);

  // Find a tripwire lea (rip-relative into %r11 right before a call) and
  // bend it to point at the call itself — a decoy that would execute real
  // code instead of trapping.
  const SymbolTable& symbols = kernel.image->symbols();
  bool mutated = false;
  for (int32_t s = 0; s < static_cast<int32_t>(symbols.size()) && !mutated; ++s) {
    const Symbol& sym = symbols.at(s);
    if (!sym.defined || sym.kind != SymbolKind::kFunction || sym.size == 0 ||
        sym.name == kKrxHandlerName) {
      continue;
    }
    auto fn = DecodeFunction(*kernel.image, sym.name, sym.address, sym.size);
    KRX_CHECK_OK(fn.status());
    for (size_t i = 0; i + 1 < fn->insts.size(); ++i) {
      const DecodedInst& di = fn->insts[i];
      if (di.reachable && di.inst.op == Opcode::kLea && di.inst.r1 == Reg::kR11 &&
          di.inst.mem.rip_relative && fn->insts[i + 1].inst.IsCall()) {
        Instruction bent = di.inst;
        bent.mem.disp = 0;  // EA = end of the lea = the call instruction
        Rewrite(*kernel.image, di, bent);
        mutated = true;
        break;
      }
    }
  }
  ASSERT_TRUE(mutated);
  ExpectOnlyRule(VerifyImage(*kernel.image, opts), RuleId::kRaDTripwire);
}

// Every checked (non-handler) function of `image`, decoded.
std::vector<DecodedFunction> DecodeChecked(const KernelImage& image) {
  std::vector<DecodedFunction> out;
  const SymbolTable& symbols = image.symbols();
  for (int32_t s = 0; s < static_cast<int32_t>(symbols.size()); ++s) {
    const Symbol& sym = symbols.at(s);
    if (sym.defined && sym.kind == SymbolKind::kFunction && sym.size != 0 &&
        sym.name != kKrxHandlerName) {
      out.push_back(Decode(image, sym.name));
    }
  }
  return out;
}

TEST(VerifyMutation, UndecodableFunctionIsCaught) {
  CompiledKernel kernel = Build(ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  ASSERT_TRUE(VerifyImage(*kernel.image, opts).ok());

  // An opcode byte past the ISA's last opcode at the entry: the linear
  // sweep cannot get past the first instruction.
  const DecodedFunction fn = Decode(*kernel.image, "util_1");
  const uint8_t invalid = 0xFF;
  ASSERT_GE(invalid, static_cast<uint8_t>(Opcode::kNumOpcodes));
  KRX_CHECK_OK(kernel.image->PokeBytes(fn.address, &invalid, 1));

  VerifyReport report = VerifyImage(*kernel.image, opts);
  ExpectOnlyRule(report, RuleId::kCfgDecode);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].function, "util_1");
  EXPECT_EQ(report.diagnostics[0].address, fn.address);
}

TEST(VerifyMutation, OverwideCheckCoverageIsCaught) {
  CompiledKernel kernel = Build(ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  ASSERT_TRUE(VerifyImage(*kernel.image, opts).ok());

  // Lower a check's bound to 8 bytes more than the phantom guard below
  // _krx_edata: the read it guards stays justified, but a displacement that
  // far past edata would land in code.
  RangeCheckSite site;
  ASSERT_TRUE(FindRangeCheckSite(*kernel.image, &site));
  const PlacedSection* guard = kernel.image->FindSection(".krx_phantom");
  ASSERT_NE(guard, nullptr);
  Instruction cmp = site.fn.insts[site.index].inst;
  cmp.imm = static_cast<int64_t>(kernel.image->krx_edata() - guard->mapped_size - 8);
  Rewrite(*kernel.image, site.fn.insts[site.index], cmp);

  ExpectOnlyRule(VerifyImage(*kernel.image, opts), RuleId::kRxCheckDisp);
}

bool IsXorRspR11(const Instruction& inst) {
  return inst.op == Opcode::kXorMR && inst.r1 == Reg::kR11 &&
         inst.mem == MemOperand::Base(Reg::kRsp, 0);
}

TEST(VerifyMutation, UndecryptedReturnIsCaught) {
  CompiledKernel kernel =
      Build(ProtectionConfig::DiversifyOnly(RaScheme::kEncrypt, kSeed), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  ASSERT_TRUE(VerifyImage(*kernel.image, opts).ok());

  // The xor right before a ret: shift it one slot up the stack, so the
  // return address is left encrypted.
  const DecodedFunction fn = Decode(*kernel.image, "util_1");
  bool mutated = false;
  for (size_t i = 1; i < fn.insts.size() && !mutated; ++i) {
    if (fn.insts[i].reachable && fn.insts[i].inst.op == Opcode::kRet &&
        IsXorRspR11(fn.insts[i - 1].inst)) {
      Instruction broken = fn.insts[i - 1].inst;
      broken.mem = MemOperand::Base(Reg::kRsp, 8);
      Rewrite(*kernel.image, fn.insts[i - 1], broken);
      mutated = true;
    }
  }
  ASSERT_TRUE(mutated);
  ExpectOnlyRule(VerifyImage(*kernel.image, opts), RuleId::kRaXEpilogue);
}

TEST(VerifyMutation, MissingReturnSiteZapIsCaught) {
  CompiledKernel kernel =
      Build(ProtectionConfig::DiversifyOnly(RaScheme::kEncrypt, kSeed), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  ASSERT_TRUE(VerifyImage(*kernel.image, opts).ok());

  // The zap store that runs after a call returns (past any connector jmps
  // the block permutation put behind the call): make it store 1 instead of
  // 0, so the stale plaintext return address survives below %rsp.
  bool mutated = false;
  for (const DecodedFunction& fn : DecodeChecked(*kernel.image)) {
    for (const DecodedInst& call : fn.insts) {
      if (!call.reachable || !call.inst.IsCall()) {
        continue;
      }
      const DecodedInst* zap = fn.InstAt(call.address + call.size);
      for (int hops = 0; zap != nullptr && zap->inst.op == Opcode::kJmpRel &&
                         fn.Contains(zap->BranchTarget()) && hops < 16;
           ++hops) {
        zap = fn.InstAt(zap->BranchTarget());
      }
      if (zap != nullptr && zap->inst.op == Opcode::kStoreImm && zap->inst.imm == 0) {
        Instruction broken = zap->inst;
        broken.imm = 1;
        Rewrite(*kernel.image, *zap, broken);
        mutated = true;
        break;
      }
    }
    if (mutated) {
      break;
    }
  }
  ASSERT_TRUE(mutated);
  ExpectOnlyRule(VerifyImage(*kernel.image, opts), RuleId::kRaXCallSite);
}

// A decoy-scheme function whose prologue drew the `push %r11` ordering
// (decoy on top, §5.2.2): its entry index, or -1.
int64_t DecoyOnTopEntry(const DecodedFunction& fn) {
  const int64_t entry = EntryIndex(fn);
  if (entry < 0) {
    return -1;
  }
  const Instruction& first = fn.insts[static_cast<size_t>(entry)].inst;
  return first.op == Opcode::kPushR && first.r1 == Reg::kR11 ? entry : -1;
}

TEST(VerifyMutation, UnpairedDecoyPrologueIsCaught) {
  CompiledKernel kernel =
      Build(ProtectionConfig::DiversifyOnly(RaScheme::kDecoy, kSeed), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  ASSERT_TRUE(VerifyImage(*kernel.image, opts).ok());

  // Push the wrong register at entry: no {real, decoy} pair is set up.
  bool mutated = false;
  for (const DecodedFunction& fn : DecodeChecked(*kernel.image)) {
    const int64_t entry = DecoyOnTopEntry(fn);
    if (entry >= 0) {
      const DecodedInst& push = fn.insts[static_cast<size_t>(entry)];
      Rewrite(*kernel.image, push, Instruction::PushR(Reg::kRbx));
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  ExpectOnlyRule(VerifyImage(*kernel.image, opts), RuleId::kRaDPrologue);
}

TEST(VerifyMutation, UndroppedDecoySlotIsCaught) {
  CompiledKernel kernel =
      Build(ProtectionConfig::DiversifyOnly(RaScheme::kDecoy, kSeed), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  ASSERT_TRUE(VerifyImage(*kernel.image, opts).ok());

  // With the decoy on top, a ret must first drop it (`add $8, %rsp`): drop
  // two slots instead, so the ret consumes the wrong word.
  bool mutated = false;
  for (const DecodedFunction& fn : DecodeChecked(*kernel.image)) {
    if (DecoyOnTopEntry(fn) < 0) {
      continue;
    }
    for (size_t i = 1; i < fn.insts.size() && !mutated; ++i) {
      const DecodedInst& drop = fn.insts[i - 1];
      if (fn.insts[i].reachable && fn.insts[i].inst.op == Opcode::kRet &&
          drop.inst.op == Opcode::kAddRI && drop.inst.r1 == Reg::kRsp && drop.inst.imm == 8) {
        Rewrite(*kernel.image, drop, Instruction::AddRI(Reg::kRsp, 16));
        mutated = true;
      }
    }
    if (mutated) {
      break;
    }
  }
  ASSERT_TRUE(mutated);
  ExpectOnlyRule(VerifyImage(*kernel.image, opts), RuleId::kRaDEpilogue);
}

TEST(VerifyMutation, MissingEntryPadIsCaught) {
  CompiledKernel kernel =
      Build(ProtectionConfig::DiversifyOnly(RaScheme::kEncrypt, kSeed), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  ASSERT_TRUE(VerifyImage(*kernel.image, opts).ok());

  // The pinned entry trampoline must be followed by its phantom pad (int3
  // run closed by ud2): turn the pad's leading int3 into a nop. (A pad that
  // is a bare ud2 also heads a phantom unit, so it is left alone: removing
  // it would cost entropy too.)
  bool mutated = false;
  for (const DecodedFunction& fn : DecodeChecked(*kernel.image)) {
    if (fn.insts.size() > 1 && fn.insts[0].inst.op == Opcode::kJmpRel &&
        fn.insts[1].inst.op == Opcode::kInt3 && !fn.insts[1].reachable) {
      Rewrite(*kernel.image, fn.insts[1], Instruction::Nop());
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);

  VerifyReport report = VerifyImage(*kernel.image, opts);
  ExpectOnlyRule(report, RuleId::kDivEntry);
  EXPECT_EQ(report.diagnostics.size(), 1u);
}

TEST(VerifyMutation, InsufficientPermutationEntropyIsCaught) {
  CompiledKernel kernel =
      Build(ProtectionConfig::DiversifyOnly(RaScheme::kEncrypt, kSeed), LayoutKind::kKrx);
  VerifyOptions opts = VerifyOptions::ForConfig(kernel.config);
  VerifyReport report = VerifyImage(*kernel.image, opts);
  ASSERT_TRUE(report.ok());

  // Demand more bits than any function's permutable units can give (a
  // function of 100 units offers lg(100!) ~ 525 bits): every checked
  // function falls short.
  opts.entropy_bits_k = 4096;
  VerifyReport strict = VerifyImage(*kernel.image, opts);
  ExpectOnlyRule(strict, RuleId::kDivEntropy);
  EXPECT_EQ(strict.diagnostics.size(), report.counters.functions_checked);
}

// ---- The `sub r, imm` congruence of the interval domain. ----

// Probe with one widened dominating check and a downward base derivation:
//
//   cmp  $(edata - kProbeCheckDisp), %rdi ; ja viol
//   sub  $kProbeSubImm, %rdi
//   mov  d(%rdi), %rax            (one load per entry in `read_disps`)
//   ret
// viol: callq krx_handler ; hlt
//
// The instrumentation passes never elide a check across a subtraction, so
// the probe is compiled exempt — modelling a hand-written cloned reader —
// and the confinement checker runs on its final bytes directly.
constexpr int64_t kProbeCheckDisp = 256;
constexpr int64_t kProbeSubImm = 64;

CompiledKernel BuildSubProbe(const std::vector<int64_t>& read_disps) {
  KernelSource src = MakeBaseSource();
  const int32_t handler = src.symbols.Intern(kKrxHandlerName);
  FunctionBuilder b("sub_probe");
  const int32_t viol = b.ReserveBlock();
  b.Emit(Instruction::CmpRI(Reg::kRdi,
                            ComputeEdata(kDefaultPhantomGuardSize) - kProbeCheckDisp));
  b.Emit(Instruction::JccBlock(Cond::kA, viol));
  b.Emit(Instruction::SubRI(Reg::kRdi, kProbeSubImm));
  for (int64_t d : read_disps) {
    b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, d)));
  }
  b.Emit(Instruction::Ret());
  b.Bind(viol);
  b.Emit(Instruction::CallSym(handler));
  b.Emit(Instruction::Hlt());
  src.functions.push_back(b.Build());
  src.symbols.Intern("sub_probe");

  ProtectionConfig config = ProtectionConfig::SfiOnly(SfiLevel::kO3);
  config.exempt_functions = {"sub_probe"};
  auto kernel = CompileKernel(std::move(src), {config, LayoutKind::kKrx});
  KRX_CHECK_OK(kernel.status());
  return std::move(*kernel);
}

VerifyReport CheckProbeConfinement(const CompiledKernel& kernel) {
  DecodedFunction fn = Decode(*kernel.image, "sub_probe");
  ConfinementParams params;
  params.edata = kernel.image->krx_edata();
  auto handler = kernel.image->symbols().AddressOf(kKrxHandlerName);
  KRX_CHECK_OK(handler.status());
  params.handler_address = *handler;
  params.guard_size = kDefaultPhantomGuardSize;
  VerifyReport report;
  CheckReadConfinement(fn, params, &report);
  return report;
}

TEST(VerifyCongruence, SubShiftsTheProvenWindowUp) {
  // ja-not-taken proves cover[rdi] = [0, 256]; `sub $64, %rdi` re-associates
  // a read d(%rdi) to the checked base at displacement d - 64, so the window
  // becomes [64, 320]. Both edges must be justified.
  CompiledKernel kernel = BuildSubProbe({kProbeSubImm, kProbeCheckDisp + kProbeSubImm});
  EXPECT_EQ(static_cast<uint64_t>(ComputeEdata(kDefaultPhantomGuardSize)),
            kernel.image->krx_edata());
  VerifyReport report = CheckProbeConfinement(kernel);
  EXPECT_TRUE(report.ok()) << report.Summary(4);
  EXPECT_EQ(report.counters.reads_seen, 2u);
  EXPECT_EQ(report.counters.justified_reads, 2u);
  EXPECT_EQ(report.counters.range_checks_seen, 1u);
}

TEST(VerifyCongruence, SubWindowRejectsReadsPastTheUpperEdge) {
  // d - 64 = 264 > 256: outside what the dominating check proved.
  CompiledKernel kernel = BuildSubProbe({kProbeCheckDisp + kProbeSubImm + 8});
  ExpectOnlyRule(CheckProbeConfinement(kernel), RuleId::kRxRead);
}

TEST(VerifyCongruence, SubWindowKeepsTheNoWrapLowerEdge) {
  // A displacement below the subtracted amount could wrap: %rdi <= edata -
  // 256 proves nothing about %rdi - 64 when %rdi <u 64. A scalar
  // upper-bound-only domain would have accepted this read; the window's
  // lower edge must reject it.
  CompiledKernel kernel = BuildSubProbe({0});
  ExpectOnlyRule(CheckProbeConfinement(kernel), RuleId::kRxRead);
}

TEST(VerifyHook, PostLinkToggleGovernsCompile) {
  // The suite runs with KRX_POST_LINK_VERIFY=1; the explicit setter
  // overrides in both directions and the hook accepts a sound build.
  SetPostLinkVerify(true);
  EXPECT_TRUE(PostLinkVerifyEnabled());
  auto kernel = CompileKernel(MakeBenchSource(kSeed), {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
  EXPECT_TRUE(kernel.ok()) << kernel.status().ToString();
  SetPostLinkVerify(false);
  EXPECT_FALSE(PostLinkVerifyEnabled());
  SetPostLinkVerify(true);
}

TEST(VerifyReportFormat, DiagnosticCarriesRuleFunctionAddressSnippet) {
  CompiledKernel kernel = Build(ProtectionConfig::Vanilla(), LayoutKind::kVanilla);
  VerifyOptions opts;
  opts.check_rx = true;
  VerifyReport report = VerifyImage(*kernel.image, opts);
  ASSERT_TRUE(report.Violates(RuleId::kRxRead));
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule != RuleId::kRxRead) {
      continue;
    }
    EXPECT_FALSE(d.function.empty());
    EXPECT_NE(d.address, 0u);
    EXPECT_FALSE(d.snippet.empty());
    std::string text = d.ToString();
    EXPECT_NE(text.find("RX_READ"), std::string::npos);
    EXPECT_NE(text.find(d.function), std::string::npos);
    break;
  }
}

}  // namespace
}  // namespace krx
