#include "src/verify/ra_check.h"

#include "src/base/math_util.h"
#include "src/isa/encoding.h"

namespace krx {
namespace {

void Diagnose(VerifyReport* report, const DecodedFunction& fn, RuleId rule, uint64_t address,
              std::string message) {
  Diagnostic d;
  d.rule = rule;
  d.function = fn.name;
  d.address = address;
  d.snippet = address != 0 ? fn.SnippetAt(address) : "";
  d.message = std::move(message);
  report->Add(std::move(d));
}

// Index of the first real instruction: under diversification the function
// begins with the pinned `jmp <original entry>` trampoline.
int64_t EntryIndex(const DecodedFunction& fn) {
  if (fn.insts.empty()) {
    return -1;
  }
  int64_t idx = 0;
  for (int hops = 0; hops < 16; ++hops) {
    const DecodedInst& di = fn.insts[static_cast<size_t>(idx)];
    if (di.inst.op != Opcode::kJmpRel) {
      return idx;
    }
    uint64_t target = di.BranchTarget();
    if (!fn.Contains(target)) {
      return idx;  // tail-call trampoline: treat the jmp itself as the body
    }
    int64_t next = fn.InstIndexAt(target);
    if (next < 0) {
      return -1;
    }
    idx = next;
  }
  return -1;
}

bool IsXorRspR11(const Instruction& inst) {
  return inst.op == Opcode::kXorMR && inst.r1 == kRangeCheckScratch &&
         inst.mem == MemOperand::Base(Reg::kRsp, 0);
}

bool IsXkeyLoad(const Instruction& inst) {
  return inst.op == Opcode::kLoad && inst.r1 == kRangeCheckScratch && inst.mem.rip_relative;
}

bool IsTailCall(const DecodedFunction& fn, const DecodedInst& di) {
  return di.inst.op == Opcode::kJmpRel && !fn.Contains(di.BranchTarget());
}

// The decoy pass may drop a phantom `mov $imm, %r11` right before a
// tripwire lea; pattern matching on physically-preceding instructions must
// look through them.
int64_t PrevSkippingPhantoms(const DecodedFunction& fn, int64_t idx) {
  for (--idx; idx >= 0; --idx) {
    const Instruction& inst = fn.insts[static_cast<size_t>(idx)].inst;
    if (inst.op == Opcode::kMovRI && inst.r1 == kRangeCheckScratch) {
      continue;
    }
    return idx;
  }
  return -1;
}

// Follows the physical successor of a call through connector jmps to the
// instruction that actually executes next after the callee returns.
const DecodedInst* AfterCall(const DecodedFunction& fn, size_t i) {
  uint64_t addr = fn.insts[i].address + fn.insts[i].size;
  for (int hops = 0; hops < 16; ++hops) {
    const DecodedInst* di = fn.InstAt(addr);
    if (di == nullptr) {
      return nullptr;
    }
    if (di->inst.op == Opcode::kJmpRel && fn.Contains(di->BranchTarget())) {
      addr = di->BranchTarget();
      continue;
    }
    return di;
  }
  return nullptr;
}

}  // namespace

void CheckRaEncrypt(const DecodedFunction& fn, const KernelImage& image,
                    const RaCheckParams& params, VerifyReport* report) {
  (void)image;
  // ---- Prologue: mov xkey$fn(%rip), %r11 ; xor %r11, (%rsp). ----
  int64_t entry = EntryIndex(fn);
  uint64_t xkey_ea = 0;
  bool have_prologue = false;
  if (entry < 0 || static_cast<size_t>(entry) + 1 >= fn.insts.size() ||
      !IsXkeyLoad(fn.insts[static_cast<size_t>(entry)].inst) ||
      !IsXorRspR11(fn.insts[static_cast<size_t>(entry) + 1].inst)) {
    Diagnose(report, fn, RuleId::kRaXPrologue, entry >= 0 ? fn.insts[static_cast<size_t>(entry)].address : fn.address,
             "entry does not encrypt the return address with an xkey XOR pair");
  } else {
    const DecodedInst& load = fn.insts[static_cast<size_t>(entry)];
    xkey_ea = load.RipRelTarget();
    have_prologue = true;
    ++report->counters.ra_sites_checked;
    if (params.edata != 0 && xkey_ea < params.edata) {
      Diagnose(report, fn, RuleId::kRaXPrologue, load.address,
               "xkey loaded from the readable data region");
    }
  }

  // ---- Epilogues: every ret / tail jmp decrypts with the same key. ----
  for (size_t i = 0; i < fn.insts.size(); ++i) {
    const DecodedInst& di = fn.insts[i];
    if (!di.reachable) {
      continue;
    }
    if (di.inst.op == Opcode::kRet || IsTailCall(fn, di)) {
      if (i < 2 || !IsXorRspR11(fn.insts[i - 1].inst) || !IsXkeyLoad(fn.insts[i - 2].inst)) {
        Diagnose(report, fn, RuleId::kRaXEpilogue, di.address,
                 "return/tail-jmp not preceded by the decrypting XOR pair");
        continue;
      }
      ++report->counters.ra_sites_checked;
      if (have_prologue && fn.insts[i - 2].RipRelTarget() != xkey_ea) {
        Diagnose(report, fn, RuleId::kRaXEpilogue, fn.insts[i - 2].address,
                 "epilogue decrypts with a different key than the prologue encrypted with");
      }
    }
    // ---- Return sites: zap the stale plaintext below %rsp (§5.2.2). ----
    if (di.is_call) {
      const DecodedInst* next = AfterCall(fn, i);
      bool zaps = next != nullptr && next->inst.op == Opcode::kStoreImm && next->inst.imm == 0 &&
                  next->inst.mem == MemOperand::Base(Reg::kRsp, -8);
      if (zaps) {
        ++report->counters.ra_sites_checked;
      } else {
        Diagnose(report, fn, RuleId::kRaXCallSite, di.address,
                 "call not followed by the stale-return-address zap store");
      }
    }
  }
}

void CheckRaDecoy(const DecodedFunction& fn, const KernelImage& image,
                  const RaCheckParams& params, VerifyReport* report) {
  (void)params;
  // ---- Prologue: detect which {real, decoy} ordering this function drew.
  // Variant (a): push %r11. Variant (b): mov (%rsp),%rax ; mov %r11,(%rsp) ;
  // push %rax (Figure 3). ----
  int64_t entry = EntryIndex(fn);
  enum class Variant { kUnknown, kDecoyOnTop, kRealOnTop };
  Variant variant = Variant::kUnknown;
  if (entry >= 0) {
    size_t e = static_cast<size_t>(entry);
    const Instruction& first = fn.insts[e].inst;
    if (first.op == Opcode::kPushR && first.r1 == kRangeCheckScratch) {
      variant = Variant::kDecoyOnTop;
    } else if (e + 2 < fn.insts.size() && first.op == Opcode::kLoad &&
               first.r1 == Reg::kRax && first.mem == MemOperand::Base(Reg::kRsp, 0) &&
               fn.insts[e + 1].inst.op == Opcode::kStore &&
               fn.insts[e + 1].inst.r1 == kRangeCheckScratch &&
               fn.insts[e + 1].inst.mem == MemOperand::Base(Reg::kRsp, 0) &&
               fn.insts[e + 2].inst.op == Opcode::kPushR &&
               fn.insts[e + 2].inst.r1 == Reg::kRax) {
      variant = Variant::kRealOnTop;
    }
  }
  if (variant == Variant::kUnknown) {
    Diagnose(report, fn, RuleId::kRaDPrologue,
             entry >= 0 ? fn.insts[static_cast<size_t>(entry)].address : fn.address,
             "entry does not set up a {real, decoy} return-address pair");
  } else {
    ++report->counters.ra_sites_checked;
  }

  for (size_t i = 0; i < fn.insts.size(); ++i) {
    const DecodedInst& di = fn.insts[i];
    if (!di.reachable) {
      continue;
    }
    // ---- Epilogues must consume the two-slot pair per variant. ----
    if (di.inst.op == Opcode::kRet) {
      if (variant == Variant::kRealOnTop) {
        Diagnose(report, fn, RuleId::kRaDEpilogue, di.address,
                 "plain ret in a function whose real return address is below the decoy");
      } else if (variant == Variant::kDecoyOnTop) {
        bool ok = i >= 1 && fn.insts[i - 1].inst.op == Opcode::kAddRI &&
                  fn.insts[i - 1].inst.r1 == Reg::kRsp && fn.insts[i - 1].inst.imm == 8;
        if (ok) {
          ++report->counters.ra_sites_checked;
        } else {
          Diagnose(report, fn, RuleId::kRaDEpilogue, di.address,
                   "ret does not drop the decoy slot first");
        }
      }
    }
    if (di.inst.op == Opcode::kJmpR && di.inst.r1 == kRangeCheckScratch) {
      bool ok = variant == Variant::kRealOnTop && i >= 2 &&
                fn.insts[i - 1].inst.op == Opcode::kAddRI &&
                fn.insts[i - 1].inst.r1 == Reg::kRsp && fn.insts[i - 1].inst.imm == 8 &&
                fn.insts[i - 2].inst.op == Opcode::kPopR &&
                fn.insts[i - 2].inst.r1 == kRangeCheckScratch;
      if (ok) {
        ++report->counters.ra_sites_checked;
      } else {
        Diagnose(report, fn, RuleId::kRaDEpilogue, di.address,
                 "indirect return through %r11 without the pop/drop epilogue");
      }
    }
    // ---- Every call / tail call passes a live tripwire via %r11. ----
    const bool tail = IsTailCall(fn, di);
    if (di.is_call || tail) {
      bool lea_ok = i >= 1 && fn.insts[i - 1].inst.op == Opcode::kLea &&
                    fn.insts[i - 1].inst.r1 == kRangeCheckScratch &&
                    fn.insts[i - 1].inst.mem.rip_relative;
      if (!lea_ok) {
        Diagnose(report, fn, RuleId::kRaDTripwire, di.address,
                 "call/tail-call without a preceding tripwire lea");
        continue;
      }
      // The decoy address must land on an int3 byte (inside a phantom
      // instruction's immediate): following it must trap, not execute.
      uint64_t tripwire = fn.insts[i - 1].RipRelTarget();
      uint8_t byte = 0;
      bool trap = false;
      if (image.PeekBytes(tripwire, &byte, 1).ok()) {
        auto dec = DecodeInstruction(&byte, 1, 0);
        trap = dec.ok() && dec->inst.op == Opcode::kInt3;
      }
      if (trap) {
        ++report->counters.tripwires_verified;
      } else {
        Diagnose(report, fn, RuleId::kRaDTripwire, fn.insts[i - 1].address,
                 "tripwire does not point at an int3 byte (decoy would execute)");
      }
      // Tail calls additionally drop/restore this frame's decoy slot.
      if (tail && variant != Variant::kUnknown) {
        int64_t p = PrevSkippingPhantoms(fn, static_cast<int64_t>(i) - 1);
        bool fixup_ok;
        if (variant == Variant::kDecoyOnTop) {
          fixup_ok = p >= 0 && fn.insts[static_cast<size_t>(p)].inst.op == Opcode::kAddRI &&
                     fn.insts[static_cast<size_t>(p)].inst.r1 == Reg::kRsp &&
                     fn.insts[static_cast<size_t>(p)].inst.imm == 8;
        } else {
          fixup_ok = p >= 2 && fn.insts[static_cast<size_t>(p)].inst.op == Opcode::kPushR &&
                     fn.insts[static_cast<size_t>(p)].inst.r1 == kDecoyScratch &&
                     fn.insts[static_cast<size_t>(p) - 1].inst.op == Opcode::kAddRI &&
                     fn.insts[static_cast<size_t>(p) - 1].inst.r1 == Reg::kRsp &&
                     fn.insts[static_cast<size_t>(p) - 1].inst.imm == 8 &&
                     fn.insts[static_cast<size_t>(p) - 2].inst.op == Opcode::kPopR &&
                     fn.insts[static_cast<size_t>(p) - 2].inst.r1 == kDecoyScratch;
        }
        if (!fixup_ok) {
          Diagnose(report, fn, RuleId::kRaDEpilogue, di.address,
                   "tail call does not drop the decoy slot before transferring");
        }
      }
    }
  }
}

void CheckDiversification(const DecodedFunction& fn, const RaCheckParams& params,
                          VerifyReport* report) {
  if (fn.insts.empty()) {
    return;
  }
  // ---- Pinned entry trampoline: `jmp <somewhere inside>` followed by an
  // unreachable phantom pad (int3 run closed by ud2), so a leaked function
  // pointer reveals nothing about the body layout (§5.2.1). ----
  const DecodedInst& first = fn.insts[0];
  bool entry_ok = first.inst.op == Opcode::kJmpRel && fn.Contains(first.BranchTarget()) &&
                  fn.insts.size() > 1 && !fn.insts[1].reachable &&
                  (fn.insts[1].inst.op == Opcode::kInt3 || fn.insts[1].inst.op == Opcode::kUd2);
  if (!entry_ok) {
    Diagnose(report, fn, RuleId::kDivEntry, fn.address,
             "function does not start with the pinned entry trampoline + phantom pad");
  }

  // ---- Permutation entropy: count independently movable units — maximal
  // reachable code runs (each ends at exactly one unconditional transfer)
  // plus ud2-headed phantom blocks — minus the pinned entry jmp and entry
  // pad. Pass-side chunks are unions of these units, so this bound is
  // necessary (never spuriously low) at the finest slicing granularity. ----
  uint64_t code_units = 0;
  uint64_t phantom_units = 0;
  for (const DecodedInst& di : fn.insts) {
    switch (di.inst.op) {
      case Opcode::kJmpRel:
      case Opcode::kJmpR:
      case Opcode::kJmpM:
      case Opcode::kRet:
      case Opcode::kHlt:
      case Opcode::kSysret:
        if (di.reachable) {
          ++code_units;
        }
        break;
      case Opcode::kUd2:
        if (di.reachable) {
          ++code_units;  // a genuine trap-terminated code run
        } else {
          ++phantom_units;  // phantom-block header
        }
        break;
      default:
        break;
    }
  }
  uint64_t movable = (code_units > 0 ? code_units - 1 : 0) +
                     (phantom_units > 0 ? phantom_units - 1 : 0);
  double bits = PermutationEntropyBits(movable);
  if (bits < static_cast<double>(params.entropy_bits_k)) {
    Diagnose(report, fn, RuleId::kDivEntropy, fn.address,
             std::to_string(movable) + " movable units = " + std::to_string(bits) +
                 " bits of permutation entropy < required " +
                 std::to_string(params.entropy_bits_k));
  }
}

}  // namespace krx
