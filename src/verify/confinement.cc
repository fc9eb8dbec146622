#include "src/verify/confinement.h"

#include <algorithm>
#include <bit>
#include <tuple>
#include <vector>

namespace krx {
namespace {

// The per-register fact is a displacement *window*: `cover[r] = [lo, hi]`
// means that on every path to this point a check (or known constant) proved
// that for every displacement d in [lo, hi], the effective address r + d is
// >= 0 and <= edata without unsigned wrap, with r unchanged since. A read
// [r + d] is justified iff lo <= d <= hi.
//
// The lower edge is what makes the `sub r, imm` congruence sound: a plain
// upper-bound fact (the old scalar domain, implicitly [0, D]) shifted up by
// a subtraction would claim r - imm <= edata - D - imm, but r <u imm wraps
// r - imm to the top of the address space — above edata — while the shifted
// scalar fact still "covers" it. Shifting a window keeps the no-wrap proof:
// [lo, hi] derived through dst = src + delta becomes [lo - delta, hi - delta]
// and dst + d re-associates to src + (delta + d) with delta + d inside the
// original proven window.
struct CoverWindow {
  int64_t lo = 0;
  int64_t hi = 0;
};

// Any strict total order over operands consistent with ==: exact facts are
// kept sorted by it, so meets are linear merges.
bool ExactLess(const MemOperand& a, const MemOperand& b) {
  return std::tie(a.disp, a.base, a.index, a.scale, a.rip_relative, a.symbol) <
         std::tie(b.disp, b.base, b.index, b.scale, b.rip_relative, b.symbol);
}

// Facts are register-indexed: `covered` has bit RegIndex(r) set iff
// cover[r] holds a window (entries without their bit are stale and never
// read). `exact` holds fully-checked operands (lea-form checks and
// full-operand bndcu) whose effective address was proven <= edata, sorted
// by ExactLess; `exact_regs` includes every register they are computed
// from, so most register kills skip the list.
struct Facts {
  bool top = true;  // optimistic "unvisited" element of the meet lattice
  uint16_t covered = 0;
  uint16_t exact_regs = 0;
  CoverWindow cover[kNumGpRegs];
  std::vector<MemOperand> exact;

  const CoverWindow* Find(Reg r) const {
    return (covered & RegBit(r)) != 0 ? &cover[RegIndex(r)] : nullptr;
  }
  void Set(Reg r, const CoverWindow& w) {
    covered |= RegBit(r);
    cover[RegIndex(r)] = w;
  }
};

// Both windows proven at the same program point for the same register:
// r + d lands in [0, edata] at the edges of both intervals, and real-valued
// monotonicity in d closes any gap between them, so the hull is justified.
CoverWindow Hull(const CoverWindow& a, const CoverWindow& b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

// cover[r] = w, or the hull with the window r already holds.
void Strengthen(Facts& f, Reg r, const CoverWindow& w) {
  const CoverWindow* have = f.Find(r);
  f.Set(r, have == nullptr ? w : Hull(*have, w));
}

bool HasExact(const Facts& f, const MemOperand& mem) {
  return std::binary_search(f.exact.begin(), f.exact.end(), mem, ExactLess);
}

void AddExact(Facts& f, const MemOperand& mem) {
  auto it = std::lower_bound(f.exact.begin(), f.exact.end(), mem, ExactLess);
  if (it == f.exact.end() || *it != mem) {
    f.exact.insert(it, mem);
    f.exact_regs |= MemRegMask(mem);
  }
}

// Intersection meet: facts survive only if proven on every predecessor
// path, with the weakest coverage. Returns true if `into` changed.
bool MeetInto(Facts& into, const Facts& contrib) {
  if (contrib.top) {
    return false;
  }
  if (into.top) {
    into = contrib;
    into.top = false;
    return true;
  }
  bool changed = false;
  if ((into.covered & ~contrib.covered) != 0) {
    into.covered &= contrib.covered;
    changed = true;
  }
  for (uint16_t live = into.covered; live != 0; live &= live - 1) {
    const int r = std::countr_zero(live);
    CoverWindow& mine = into.cover[r];
    const CoverWindow& other = contrib.cover[r];
    // Window intersection: only displacements proven on both paths
    // survive; an empty intersection is no fact at all.
    const CoverWindow met{std::max(mine.lo, other.lo), std::min(mine.hi, other.hi)};
    if (met.lo > met.hi) {
      into.covered &= static_cast<uint16_t>(~(1u << r));
      changed = true;
    } else if (met.lo != mine.lo || met.hi != mine.hi) {
      mine = met;
      changed = true;
    }
  }
  if (into.exact == contrib.exact) {
    return changed;
  }
  // Sorted-list intersection, in place.
  auto other = contrib.exact.begin();
  auto kept = into.exact.begin();
  for (const MemOperand& mem : into.exact) {
    while (other != contrib.exact.end() && ExactLess(*other, mem)) {
      ++other;
    }
    if (other != contrib.exact.end() && *other == mem) {
      *kept++ = mem;
      ++other;
    }
  }
  if (kept != into.exact.end()) {
    into.exact.erase(kept, into.exact.end());
    changed = true;
  }
  return changed;
}

// Congruence rule of the interval domain: `dst = src + delta` with a known
// constant delta, so `cover[dst] = [lo - delta, hi - delta]` (the proven
// window shifts opposite to the offset; it may drift entirely negative, at
// which point it justifies no actual read but stays exact for further
// derivations).
//
// This is the verifier-side superset of RegOffsetDerivation in
// src/ir/analysis.cc — kept inline because krx_verify deliberately does not
// link the IR analyses it is meant to distrust. Every derivation the O4
// pass uses to elide a check MUST be reproduced here (the converse need
// not hold: kSubRI is checker-side only, the pass never elides across a
// subtraction), or elisions turn into post-link kRxRead failures.
bool DeriveRegOffset(const Instruction& inst, Reg* dst, Reg* src, int64_t* delta) {
  switch (inst.op) {
    case Opcode::kMovRR:
      *dst = inst.r1;
      *src = inst.r2;
      *delta = 0;
      return true;
    case Opcode::kAddRI:
      if (inst.imm < 0) {
        return false;  // negative add is kSubRI's job; keep the rules disjoint
      }
      *dst = inst.r1;
      *src = inst.r1;
      *delta = inst.imm;
      return true;
    case Opcode::kSubRI:
      // `sub r, imm` shifts the window up: the lower edge of the incoming
      // window is what proves the subtraction cannot wrap under the
      // unsigned compare (see CoverWindow).
      if (inst.imm < 0) {
        return false;
      }
      *dst = inst.r1;
      *src = inst.r1;
      *delta = -inst.imm;
      return true;
    case Opcode::kLea:
      if (!inst.mem.has_base() || inst.mem.has_index() || inst.mem.rip_relative ||
          inst.mem.disp < 0) {
        return false;
      }
      *dst = inst.r1;
      *src = inst.mem.base;
      *delta = inst.mem.disp;
      return true;
    default:
      return false;
  }
}

// Offsets past this are dropped instead of subtracted: no real derivation
// chain gets here (the pass caps at the guard size), and the bound keeps
// the int64 cover arithmetic far from overflow.
constexpr int64_t kMaxDerivationDelta = int64_t{1} << 40;

// Effective addresses registers hold within a block (`lea` results), by
// register; `held` has bit RegIndex(r) set iff ea[r] is valid.
struct LeaFacts {
  uint16_t held = 0;
  MemOperand ea[kNumGpRegs];
};

// A candidate fact between a `cmp reg, imm` and the `ja` that consumes its
// flags. Instructions in between (e.g. a decoy phantom mov) may clobber
// parts of it.
struct PendingCheck {
  bool valid = false;
  Reg reg = Reg::kNone;
  int64_t imm = 0;
  bool reg_intact = false;       // reg unwritten/unspilled since the cmp
  bool has_exact = false;        // cmp'd reg held a lea'd effective address
  MemOperand exact;
  bool exact_intact = false;     // the lea'd operand's registers unwritten
};

// Facts a conditional block exit adds on its fallthrough edge.
struct FallExtra {
  bool has_cover = false;
  Reg reg = Reg::kNone;
  CoverWindow cover;
  bool has_exact = false;
  MemOperand exact;
};

// Resolves whether `target` is a violation site: a (possibly connector-jmp
// reached, possibly decoy-instrumented) `callq krx_handler`.
bool IsViolationTarget(const DecodedFunction& fn, uint64_t target, uint64_t handler) {
  if (handler == 0) {
    return false;
  }
  for (int hops = 0; hops < 8; ++hops) {
    const DecodedInst* di = fn.InstAt(target);
    if (di == nullptr) {
      return false;
    }
    switch (di->inst.op) {
      case Opcode::kJmpRel: {  // connector jmp into the (shuffled) block
        uint64_t t = di->BranchTarget();
        if (!fn.Contains(t)) {
          return false;
        }
        target = t;
        continue;
      }
      case Opcode::kLea:  // decoy tripwire lea preceding the handler call
        if (!di->inst.mem.rip_relative) {
          return false;
        }
        target = di->address + di->size;
        continue;
      case Opcode::kCallRel:
        return di->BranchTarget() == handler;
      default:
        return false;
    }
  }
  return false;
}

class ConfinementChecker {
 public:
  ConfinementChecker(const DecodedFunction& fn, const ConfinementParams& params,
                     VerifyReport* report)
      : fn_(fn), params_(params), report_(report) {}

  void Run() {
    const size_t n = fn_.blocks.size();
    if (n == 0) {
      return;
    }
    std::vector<Facts> in(n);
    in[0].top = false;  // entry: nothing proven yet

    // Greatest-fixpoint iteration. This is at least as precise as the
    // pass's analyses — facts survive loop back edges via the intersection
    // meet, matching O4's availability fixpoint — so every read the pass
    // left uninstrumented because a dominating check covers it is also
    // justified here, and block permutation cannot manufacture spurious
    // violations.
    //
    // Termination needs widening: a net-positive derivation cycle (an
    // `add $c, %r` around a loop) drives cover[r] down by c per round
    // forever. After the CFG has had time to stabilize (n + 8 rounds) a
    // snapshot is taken, and any cover entry still descending below its
    // snapshot value is widened to "unknown" (erased). Erasure only ever
    // weakens facts, so the result stays a sound over-approximation — and
    // it mirrors the O4 pass's own widening, which keeps the in-loop check
    // in exactly these situations.
    //
    // A block whose input has not changed since its last transfer is not
    // walked again: its exit facts would be the same, and meeting them
    // into a successor again changes nothing (the meet is idempotent and
    // inputs only ever shrink). Every round and every input stays exactly
    // what the full round-robin sweep computes.
    const size_t widen_after = n + 8;
    std::vector<Facts> widen_base;
    std::vector<uint8_t> dirty(n, 0);  // input changed since the last transfer
    dirty[0] = 1;
    size_t round = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      ++round;
      if (round == widen_after) {
        widen_base = in;
      }
      for (size_t b = 0; b < n; ++b) {
        if (round > widen_after && fn_.blocks[b].reachable && !in[b].top &&
            !widen_base[b].top && Widen(in[b], widen_base[b])) {
          dirty[b] = 1;
        }
        // Only a reachable block with facts can have been given new ones.
        if (dirty[b] == 0) {
          continue;
        }
        dirty[b] = 0;
        FallExtra extra;
        Transfer(b, in[b], /*verify=*/false, &out_, &extra);
        const VerifierBlock& blk = fn_.blocks[b];
        if (blk.taken >= 0 && MeetInto(in[static_cast<size_t>(blk.taken)], out_)) {
          changed = true;
          dirty[static_cast<size_t>(blk.taken)] = 1;
        }
        if (blk.fall >= 0) {
          ApplyExtra(out_, extra);
          if (MeetInto(in[static_cast<size_t>(blk.fall)], out_)) {
            changed = true;
            dirty[static_cast<size_t>(blk.fall)] = 1;
          }
        }
      }
    }

    for (size_t b = 0; b < n; ++b) {
      if (!fn_.blocks[b].reachable || in[b].top) {
        continue;
      }
      FallExtra extra;
      Transfer(b, in[b], /*verify=*/true, &out_, &extra);
    }
  }

 private:
  // A window still shrinking at either edge against its snapshot (a net
  // derivation cycle around a loop) is widened to "unknown". Returns true
  // if any window was.
  static bool Widen(Facts& f, const Facts& base) {
    const uint16_t before = f.covered;
    for (uint16_t live = f.covered & base.covered; live != 0; live &= live - 1) {
      const int r = std::countr_zero(live);
      if (f.cover[r].hi < base.cover[r].hi || f.cover[r].lo > base.cover[r].lo) {
        f.covered &= static_cast<uint16_t>(~(1u << r));
      }
    }
    return f.covered != before;
  }

  static void ApplyExtra(Facts& f, const FallExtra& extra) {
    if (extra.has_cover) {
      Strengthen(f, extra.reg, extra.cover);
    }
    if (extra.has_exact) {
      AddExact(f, extra.exact);
    }
  }

  // Drops every fact that depends on a register in `mask`: its window, the
  // exact operands and lea'd addresses computed from it, and the pending
  // check's claim on it.
  static void KillRegs(Facts& f, LeaFacts& lea, PendingCheck& pending, uint16_t mask) {
    if (mask == 0) {
      return;
    }
    f.covered &= static_cast<uint16_t>(~mask);
    if ((f.exact_regs & mask) != 0) {
      std::erase_if(f.exact, [mask](const MemOperand& m) { return (MemRegMask(m) & mask) != 0; });
      f.exact_regs = 0;
      for (const MemOperand& m : f.exact) {
        f.exact_regs |= MemRegMask(m);
      }
    }
    for (uint16_t held = lea.held; held != 0; held &= held - 1) {
      const int r = std::countr_zero(held);
      if ((((1u << r) | MemRegMask(lea.ea[r])) & mask) != 0) {
        lea.held &= static_cast<uint16_t>(~(1u << r));
      }
    }
    if (pending.valid) {
      if ((RegBit(pending.reg) & mask) != 0) {
        pending.reg_intact = false;
      }
      if (pending.has_exact && (MemRegMask(pending.exact) & mask) != 0) {
        pending.exact_intact = false;
      }
    }
  }

  // Mirrors ApplySfiPass's ApplyInstructionKills: calls clear everything
  // (or, with byte-level callee-clobber masks, exactly the registers the
  // callee may write), register writes kill per-register facts, and a
  // store/push of a register spill-kills it (its value escapes to writable
  // memory, §5.1.2).
  void ApplyKills(Facts& f, LeaFacts& lea, PendingCheck& pending, const DecodedInst& di) {
    if (!di.is_call) {
      KillRegs(f, lea, pending, di.kill_mask);
      return;
    }
    if (di.inst.op == Opcode::kCallRel && params_.callee_clobbers != nullptr) {
      if (const uint16_t* mask = params_.callee_clobbers->Find(di.BranchTarget())) {
        KillRegs(f, lea, pending, *mask);
        // The callee's flags are not summarized: any pending cmp's flags
        // are stale after the call regardless of the register mask.
        pending.valid = false;
        return;
      }
    }
    f.covered = 0;
    f.exact.clear();
    f.exact_regs = 0;
    lea.held = 0;
    pending.valid = false;
  }

  void Diagnose(RuleId rule, uint64_t address, std::string message) {
    Diagnostic d;
    d.rule = rule;
    d.function = fn_.name;
    d.address = address;
    d.snippet = fn_.SnippetAt(address);
    d.message = std::move(message);
    report_->Add(std::move(d));
  }

  // Records a recognized range check's coverage and enforces the
  // coalescing bound: a dominating check may have had its displacement
  // raised, but never past the guard-section size (the distance overshoot
  // the layout can absorb).
  void NoteCheck(bool verify, uint64_t address, int64_t coverage) {
    if (!verify) {
      return;
    }
    ++report_->counters.range_checks_seen;
    if (params_.guard_size > 0 && coverage > static_cast<int64_t>(params_.guard_size)) {
      Diagnose(RuleId::kRxCheckDisp, address,
               "check coverage " + std::to_string(coverage) + " exceeds guard size " +
                   std::to_string(params_.guard_size));
    }
  }

  // True if reading through `mem` is proven in-bounds by current facts.
  bool Justified(const Facts& f, const MemOperand& mem) const {
    if (mem.has_base() && !mem.has_index()) {
      const CoverWindow* w = f.Find(mem.base);
      if (w != nullptr && w->lo <= mem.disp && mem.disp <= w->hi) {
        return true;
      }
    }
    return HasExact(f, mem);
  }

  // Peephole for rep-prefixed string reads: the paper places their check
  // *after* the instruction ("postmortem detection", §5.1.2), so look
  // forward for [pushfq]? cmp <base>, imm ; ja <viol>  (or a bndcu).
  bool StringCheckFollows(size_t i, Reg base) const {
    size_t j = i + 1;
    auto skippable = [&](const DecodedInst& di) {
      if (di.inst.op == Opcode::kPushfq) {
        return true;
      }
      return !di.writes_flags && !di.is_call && !di.reads_memory && !di.inst.WritesMemory() &&
             (di.reg_writes & RegBit(base)) == 0;
    };
    for (int steps = 0; steps < 8 && j < fn_.insts.size(); ++steps, ++j) {
      const Instruction& inst = fn_.insts[j].inst;
      if (inst.op == Opcode::kBndcu) {
        return inst.mem.base == base && !inst.mem.has_index() && inst.mem.disp >= 0;
      }
      if (inst.op == Opcode::kCmpRI) {
        if (inst.r1 != base ||
            static_cast<uint64_t>(inst.imm) > params_.edata) {
          return false;
        }
        // Find the ja consuming these flags.
        for (size_t k = j + 1; k < fn_.insts.size() && k < j + 4; ++k) {
          const Instruction& next = fn_.insts[k].inst;
          if (next.op == Opcode::kJcc) {
            return next.cond == Cond::kA &&
                   IsViolationTarget(fn_, fn_.insts[k].BranchTarget(), params_.handler_address);
          }
          if (!skippable(fn_.insts[k])) {
            return false;
          }
        }
        return false;
      }
      if (!skippable(fn_.insts[j])) {
        return false;
      }
    }
    return false;
  }

  void VerifyRead(const Facts& f, size_t i) {
    const DecodedInst& di = fn_.insts[i];
    const Instruction& inst = di.inst;
    ++report_->counters.reads_seen;
    if (inst.IsString()) {
      Reg base = inst.StringReadBase();
      const CoverWindow* w = f.Find(base);
      // A string read starts at displacement 0: the window must contain it.
      bool ok = (w != nullptr && w->lo <= 0 && w->hi >= 0) || StringCheckFollows(i, base);
      if (ok) {
        ++report_->counters.justified_reads;
      } else {
        Diagnose(RuleId::kRxRead, di.address,
                 std::string("string read through %") + RegName(base) +
                     " has no dominating or postmortem range check");
      }
      return;
    }
    const MemOperand& mem = inst.mem;
    if (mem.IsSafeAddress()) {
      ++report_->counters.safe_reads;
      return;
    }
    if (mem.IsPlainRspAccess()) {
      ++report_->counters.rsp_reads;
      report_->counters.max_rsp_disp = std::max(report_->counters.max_rsp_disp, mem.disp);
      return;
    }
    if (Justified(f, mem)) {
      ++report_->counters.justified_reads;
    } else {
      Diagnose(RuleId::kRxRead, di.address,
               "read " + FormatMemOperand(mem) + " not dominated by a range check");
    }
  }

  // Walks one block from `in` into `*out`, producing the exit facts and any
  // fallthrough-edge extra from a trailing check's cmp/ja pair. With
  // `verify` set, also validates every read against the incoming facts.
  void Transfer(size_t b, const Facts& in, bool verify, Facts* out, FallExtra* extra) {
    const VerifierBlock& blk = fn_.blocks[b];
    Facts& f = *out;
    f = in;
    LeaFacts& lea = lea_;
    lea.held = 0;
    PendingCheck pending;

    for (size_t i = blk.first; i < blk.first + blk.count; ++i) {
      const DecodedInst& di = fn_.insts[i];
      const Instruction& inst = di.inst;

      if (verify && di.reads_memory) {
        VerifyRead(f, i);
      }

      // A flag-writing instruction invalidates any pending cmp (the ja
      // would consume the newer flags). The cmp handled below re-arms it.
      if (di.writes_flags && inst.op != Opcode::kCmpRI) {
        pending.valid = false;
      }

      // Congruence derivation against the *pre-kill* facts: `add $8, %rdi`
      // both redefines %rdi and re-derives it from its own old value.
      bool has_derived = false;
      Reg derived_dst = Reg::kNone;
      CoverWindow derived_cover;
      {
        Reg dst = Reg::kNone;
        Reg src = Reg::kNone;
        int64_t delta = 0;
        if (DeriveRegOffset(inst, &dst, &src, &delta) && delta <= kMaxDerivationDelta &&
            delta >= -kMaxDerivationDelta) {
          if (const CoverWindow* w = f.Find(src)) {
            has_derived = true;
            derived_dst = dst;
            derived_cover = {w->lo - delta, w->hi - delta};
          }
        }
      }

      ApplyKills(f, lea, pending, di);

      if (has_derived) {
        Strengthen(f, derived_dst, derived_cover);
      }

      switch (inst.op) {
        case Opcode::kBndcu:
          // bndcu traps if EA > %bnd0.ub (= edata, installed at kernel
          // entry): the full operand is proven, and for base-only forms
          // the base is covered up to the checked displacement.
          NoteCheck(verify, di.address, inst.mem.has_index() ? 0 : inst.mem.disp);
          AddExact(f, inst.mem);
          if (inst.mem.has_base() && !inst.mem.has_index() && inst.mem.disp >= 0) {
            Strengthen(f, inst.mem.base, {0, inst.mem.disp});
          }
          // The trap only fires architecturally; a mispredicted path still
          // issues the guarded load transiently, so the hardening contracts
          // constrain the bndcu itself.
          if (verify && params_.mitigation == SpecMitigation::kBarrier) {
            const bool fenced = i + 1 < blk.first + blk.count &&
                                fn_.insts[i + 1].inst.op == Opcode::kSpecFence;
            if (!fenced) {
              Diagnose(RuleId::kSpecBarrier, di.address,
                       "bndcu check not immediately followed by lfence");
            }
          }
          if (verify && params_.mitigation == SpecMitigation::kMask) {
            Diagnose(RuleId::kSpecMask, di.address,
                     "speculation-prone bndcu check survives under spec-mask");
          }
          break;
        case Opcode::kMaskRI: {
          // mask clamps r1 into [0, imm] unconditionally — the same
          // post-state the ja-not-taken edge of a cmp/ja check proves, but
          // branchless, so there is no predictor window to steer. r1 + d
          // stays within [0, edata] for d in [0, edata - imm]. The bound is
          // an address, compared unsigned exactly as the Cpu clamps it (the
          // sign-extended imm32 is negative as int64 under high layouts).
          const uint64_t bound = static_cast<uint64_t>(inst.imm);
          if (bound <= params_.edata) {
            const int64_t coverage = static_cast<int64_t>(params_.edata - bound);
            NoteCheck(verify, di.address, coverage);
            f.Set(inst.r1, {0, coverage});
          }
          break;
        }
        case Opcode::kLea:
          // Remember the EA the destination now holds, unless the operand
          // involves the destination itself (the value would be stale).
          if (!inst.mem.rip_relative && !inst.mem.is_absolute() &&
              (MemRegMask(inst.mem) & RegBit(inst.r1)) == 0) {
            lea.held |= RegBit(inst.r1);
            lea.ea[RegIndex(inst.r1)] = inst.mem;
          }
          break;
        case Opcode::kMovRI:
          // The register now holds a known constant: if it is within the
          // data region, any displacement in [-imm, edata - imm] stays
          // within it.
          if (inst.imm >= 0 && static_cast<uint64_t>(inst.imm) <= params_.edata) {
            f.Set(inst.r1, {-inst.imm, static_cast<int64_t>(params_.edata) - inst.imm});
          }
          break;
        case Opcode::kCmpRI: {
          pending.valid = true;
          pending.reg = inst.r1;
          pending.imm = inst.imm;
          pending.reg_intact = true;
          pending.has_exact = (lea.held & RegBit(inst.r1)) != 0;
          pending.exact_intact = pending.has_exact;
          if (pending.has_exact) {
            pending.exact = lea.ea[RegIndex(inst.r1)];
          }
          break;
        }
        default:
          break;
      }
    }

    *extra = FallExtra{};
    const DecodedInst& last = fn_.insts[blk.first + blk.count - 1];
    if (last.inst.op == Opcode::kJcc && last.inst.cond == Cond::kA && pending.valid &&
        static_cast<uint64_t>(pending.imm) <= params_.edata &&
        IsViolationTarget(fn_, last.BranchTarget(), params_.handler_address)) {
      // ja-not-taken proves reg <=u imm: the fallthrough edge learns the
      // coverage fact (and the lea'd operand fact, if any).
      int64_t coverage = static_cast<int64_t>(params_.edata) - pending.imm;
      NoteCheck(verify, last.address, coverage);
      // The architectural proof above says nothing about the wrong path: a
      // trained predictor can fall through transiently with reg > imm. The
      // hardening contracts are enforced on the recognized check itself.
      if (verify && params_.mitigation == SpecMitigation::kBarrier) {
        const VerifierBlock* fall_blk =
            blk.fall >= 0 ? &fn_.blocks[static_cast<size_t>(blk.fall)] : nullptr;
        const bool fenced = fall_blk != nullptr && fall_blk->count > 0 &&
                            fn_.insts[fall_blk->first].inst.op == Opcode::kSpecFence;
        if (!fenced) {
          Diagnose(RuleId::kSpecBarrier, last.address,
                   "range check's fallthrough path does not begin with lfence");
        }
      }
      if (verify && params_.mitigation == SpecMitigation::kMask) {
        Diagnose(RuleId::kSpecMask, last.address,
                 "speculation-prone cmp/ja check survives under spec-mask");
      }
      if (pending.reg_intact) {
        // ja-not-taken proves reg <=u imm (so reg + d cannot wrap for
        // d >= 0, nor exceed edata for d <= coverage).
        extra->has_cover = true;
        extra->reg = pending.reg;
        extra->cover = {0, coverage};
      }
      if (pending.has_exact && pending.exact_intact) {
        extra->has_exact = true;
        extra->exact = pending.exact;
      }
    }
  }

  const DecodedFunction& fn_;
  const ConfinementParams& params_;
  VerifyReport* report_;
  // Every Transfer's exit facts and lea'd addresses; their storage is
  // reused from block to block.
  Facts out_;
  LeaFacts lea_;
};

// Index of the clobber-table entry for `address` (entries sorted by
// address), or -1.
int64_t ClobberEntryIndex(const std::vector<CalleeClobberTable::Entry>& entries, uint64_t address) {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), address,
      [](const CalleeClobberTable::Entry& e, uint64_t a) { return e.address < a; });
  return it != entries.end() && it->address == address ? it - entries.begin() : -1;
}

}  // namespace

const uint16_t* CalleeClobberTable::Find(uint64_t address) const {
  const int64_t i = ClobberEntryIndex(entries, address);
  return i < 0 ? nullptr : &entries[static_cast<size_t>(i)].mask;
}

void CheckReadConfinement(const DecodedFunction& fn, const ConfinementParams& params,
                          VerifyReport* report) {
  const VerifyCounters before = report->counters;
  ConfinementChecker(fn, params, report).Run();
  FunctionReadCensus census;
  census.reads_seen = report->counters.reads_seen - before.reads_seen;
  census.justified_reads = report->counters.justified_reads - before.justified_reads;
  census.range_checks_seen = report->counters.range_checks_seen - before.range_checks_seen;
  report->per_function.emplace_back(fn.name, census);
}

CalleeClobberTable ComputeByteCalleeClobbers(const KernelImage& image,
                                             const std::vector<const Symbol*>& functions,
                                             uint64_t handler_address) {
  constexpr uint16_t kAllRegs = 0xFFFF;
  static_assert(kNumGpRegs == 16, "one mask bit per general-purpose register");

  // Sweep every function once: registers written, indirect transfers, and
  // the targets of direct calls and out-of-function jumps. A function whose
  // bytes do not decode gets no summary, so calls to it clobber everything.
  struct Swept {
    uint64_t address = 0;
    uint16_t writes = 0;
    bool indirect = false;
    size_t targets_begin = 0;
    size_t targets_end = 0;
  };
  std::vector<Swept> swept;
  swept.reserve(functions.size());
  std::vector<uint64_t> targets;
  std::vector<uint8_t> bytes;
  for (const Symbol* sym : functions) {
    Swept fn;
    fn.address = sym->address;
    fn.targets_begin = targets.size();
    Status st = SweepFunctionBytes(
        image, sym->name, sym->address, sym->size, &bytes, [&](size_t pos, const Decoded& dec) {
          fn.writes |= InstructionRegWrites(dec.inst);
          const uint64_t target =
              sym->address + pos + dec.size + static_cast<uint64_t>(dec.inst.imm);
          switch (dec.inst.op) {
            case Opcode::kCallRel:
              targets.push_back(target);
              break;
            case Opcode::kJmpRel:  // a tail transfer when it leaves the function
              if (target < sym->address || target - sym->address >= sym->size) {
                targets.push_back(target);
              }
              break;
            case Opcode::kCallR:
            case Opcode::kCallM:
            case Opcode::kJmpR:
            case Opcode::kJmpM:
              fn.indirect = true;
              break;
            default:
              break;
          }
        });
    if (!st.ok()) {
      targets.resize(fn.targets_begin);
      continue;
    }
    fn.targets_end = targets.size();
    swept.push_back(fn);
  }

  CalleeClobberTable table;
  table.entries.reserve(swept.size());
  for (const Swept& fn : swept) {
    table.entries.push_back({fn.address, 0});
  }
  std::sort(table.entries.begin(), table.entries.end(),
            [](const auto& a, const auto& b) { return a.address < b.address; });
  // Aliased entries share one mask: the union over every body at that address.
  table.entries.erase(
      std::unique(table.entries.begin(), table.entries.end(),
                  [](const auto& a, const auto& b) { return a.address == b.address; }),
      table.entries.end());

  // Direct call / tail-jump edges between summarized entries (caller node,
  // callee node).
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (const Swept& fn : swept) {
    const auto node = static_cast<uint32_t>(ClobberEntryIndex(table.entries, fn.address));
    uint16_t& mask = table.entries[node].mask;
    mask |= fn.writes;
    bool unknown = fn.indirect;
    for (size_t t = fn.targets_begin; t < fn.targets_end; ++t) {
      if (handler_address != 0 && targets[t] == handler_address) {
        continue;  // violation path: call; hlt — never returns
      }
      const int64_t callee = ClobberEntryIndex(table.entries, targets[t]);
      if (callee < 0) {
        unknown = true;
      } else {
        edges.emplace_back(node, static_cast<uint32_t>(callee));
      }
    }
    if (unknown) {
      mask = kAllRegs;
    }
  }
  // Transitive closure: masks only grow and are bounded, so this converges.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [caller, callee] : edges) {
      const uint16_t m = table.entries[caller].mask | table.entries[callee].mask;
      if (m != table.entries[caller].mask) {
        table.entries[caller].mask = m;
        changed = true;
      }
    }
  }
  return table;
}

}  // namespace krx
