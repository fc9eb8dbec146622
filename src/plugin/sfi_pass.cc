#include "src/plugin/sfi_pass.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "src/ir/analysis.h"
#include "src/ir/liveness.h"
#include "src/kernel/layout.h"

namespace krx {
namespace {

struct ReadSite {
  int32_t layout_idx = 0;  // block layout index at collection time
  size_t inst_idx = 0;
  bool is_string = false;
  bool place_after = false;  // rep-prefixed string: check lands after
  Reg base = Reg::kNone;     // base register for the O2/O3 check form
  int64_t disp = 0;          // original displacement
  int64_t check_disp = 0;    // possibly raised by coalescing
  MemOperand mem;            // original operand (lea form / MPX)
  bool coalescible = false;  // base-only non-string reads
  bool removed = false;
  bool hoisted = false;        // O4: synthetic loop-preheader check
  bool hoist_covered = false;  // O4: a preheader check was created for it
};

// State of the O3 availability analysis: per base register, the set of kept
// check sites that dominate the current point with no intervening
// redefinition, spill or call.
using AvailState = std::map<Reg, std::set<ReadSite*>>;

// Drops the facts of every register in `regs` from a per-register state.
template <typename State>
void KillRegs(State& state, RegMask regs) {
  std::erase_if(state, [regs](const auto& entry) { return (regs & RegBit(entry.first)) != 0; });
}

void ApplyInstructionKills(AvailState& state, const Instruction& inst) {
  if (inst.IsCall()) {
    // Conservative: a callee may clobber or spill anything.
    state.clear();
    return;
  }
  // Redefinitions.
  RegMask killed = InstructionRegWrites(inst);
  // Spills: the register's value escapes to (attacker-writable) memory.
  // A subsequent fill is a redefinition, but the paper additionally requires
  // no spill between check and use (temporal attacks, §5.1.2 / [24]).
  if (inst.op == Opcode::kStore || inst.op == Opcode::kPushR) {
    killed |= RegBit(inst.r1);
  }
  KillRegs(state, killed);
}

AvailState MeetPredecessors(const std::vector<AvailState>& exit_states,
                            const std::vector<std::vector<int32_t>>& preds, int32_t idx) {
  AvailState out;
  const auto& ps = preds[static_cast<size_t>(idx)];
  if (ps.empty()) {
    return out;
  }
  for (int32_t p : ps) {
    if (p >= idx) {
      return {};  // back edge: loop header gets the empty state (conservative)
    }
  }
  out = exit_states[static_cast<size_t>(ps[0])];
  for (size_t i = 1; i < ps.size(); ++i) {
    const AvailState& other = exit_states[static_cast<size_t>(ps[i])];
    AvailState merged;
    for (const auto& [reg, sites] : out) {
      auto it = other.find(reg);
      if (it == other.end()) {
        continue;  // not checked on every path
      }
      std::set<ReadSite*> u = sites;
      u.insert(it->second.begin(), it->second.end());
      merged[reg] = std::move(u);
    }
    out = std::move(merged);
  }
  return out;
}

// ---------------------------------------------------------------------------
// O4: dominance/value-range check elision and loop-invariant hoisting.
//
// The O3 analysis above is a single layout-order pass that drops all facts
// at loop back edges. O4 replaces it with a greatest-fixpoint dataflow whose
// facts are *congruence-derived* coverage sources: `state[r] = {(S, span)}`
// means that on every path to this point, kept check site S proved some
// value v <= edata - check_disp(S), and r == v + off for some path-dependent
// off in [span.min, span.max] (r was derived from the checked value by
// mov/add/sub/lea per RegOffsetDerivation and has not been redefined,
// spilled or survived a call since). A read through r at displacement d is
// then covered by raising every source's check to span.max + d — capped by
// the phantom-guard size, which bounds how far a check's displacement may
// legally be widened (the post-link verifier enforces the same bound,
// RuleId::kRxCheckDisp) — provided span.min + d >= 0: the checks are
// unsigned compares, and a sub-derived value below the checked one could
// wrap unless the displacement provably restores it. Tracking the lower
// edge is exactly what makes the negative kSubRI delta sound, mirroring
// the verifier's CoverWindow.
//
// The verifier re-derives all of this from the linked bytes with an
// interval-domain abstract interpreter (src/verify/confinement.cc); any
// elision it cannot re-prove fails the build, so this analysis only has to
// be *sound*, never trusted.

// Coverage cap: check displacements may not be raised past the guard that
// absorbs the distance overshoot. The pipeline's guard is always at least
// this large (GuardSizeFor), so the constant is a safe static bound.
constexpr int64_t kO4CoverCap = static_cast<int64_t>(kDefaultPhantomGuardSize);

// Accumulated derivation offset over every path: off in [min, max].
struct O4Span {
  int64_t min = 0;
  int64_t max = 0;

  bool operator==(const O4Span& o) const { return min == o.min && max == o.max; }
  bool operator!=(const O4Span& o) const { return !(*this == o); }
};

// Per register: kept check site -> derivation-offset span along any path.
using O4State = std::map<Reg, std::map<ReadSite*, O4Span>>;

// Intersection meet with per-source span widening to the hull (the weakest
// derivation seen on any path, at both edges).
O4State O4Meet(const O4State& a, const O4State& b) {
  O4State out;
  for (const auto& [reg, sources] : a) {
    auto it = b.find(reg);
    if (it == b.end()) {
      continue;
    }
    std::map<ReadSite*, O4Span> u = sources;
    for (const auto& [site, span] : it->second) {
      auto [slot, fresh] = u.emplace(site, span);
      if (!fresh) {
        slot->second.min = std::min(slot->second.min, span.min);
        slot->second.max = std::max(slot->second.max, span.max);
      }
    }
    out[reg] = std::move(u);
  }
  return out;
}

// Kills + congruence transfer for one instruction.
void O4ApplyInst(O4State& state, const Instruction& inst,
                 const CalleeClobberSummary* clobbers) {
  if (inst.IsCall()) {
    // With a callee-clobber summary, a direct call to a summarized callee
    // kills only the registers the callee (transitively) may write. The
    // summary always contains %rsp and the check scratch, so the call's own
    // push and the callee's instrumentation are covered; anything else —
    // indirect calls, un-summarized targets — stays conservative.
    if (clobbers != nullptr && inst.op == Opcode::kCallRel && inst.target_symbol >= 0 &&
        clobbers->Known(inst.target_symbol)) {
      for (auto it = state.begin(); it != state.end();) {
        if (clobbers->MayClobber(inst.target_symbol, it->first)) {
          it = state.erase(it);
        } else {
          ++it;
        }
      }
      return;
    }
    state.clear();
    return;
  }
  // Derivations are computed against the pre-kill state: `add $8, %rdi`
  // both redefines %rdi and re-derives it from its own old value.
  Reg dst = Reg::kNone;
  Reg src = Reg::kNone;
  int64_t delta = 0;
  std::map<ReadSite*, O4Span> derived;
  if (RegOffsetDerivation(inst, &dst, &src, &delta)) {
    auto it = state.find(src);
    if (it != state.end()) {
      for (const auto& [site, span] : it->second) {
        // Both edges shift by the delta; sources drifting past the cover
        // cap (or symmetrically far below it, keeping the arithmetic far
        // from overflow) are dropped.
        if (span.max + delta <= kO4CoverCap && span.min + delta >= -kO4CoverCap) {
          derived[site] = O4Span{span.min + delta, span.max + delta};
        }
      }
    }
  }
  RegMask killed = InstructionRegWrites(inst);
  if (inst.op == Opcode::kStore || inst.op == Opcode::kPushR) {
    killed |= RegBit(inst.r1);
  }
  KillRegs(state, killed);
  if (!derived.empty()) {
    state[dst] = std::move(derived);
  }
}

// Walks one block. Without `commit`, this is the fixpoint transfer; with
// `commit`, elision decisions are written into the sites (removed flags and
// raised check displacements). Site entries at inst_idx == insts.size()
// (synthetic checks in an otherwise empty preheader) are handled by the
// trailing loop iteration.
O4State O4TransferBlock(const BasicBlock& b, std::vector<ReadSite>& block_sites, O4State state,
                        const CalleeClobberSummary* clobbers, bool commit) {
  size_t next_site = 0;
  for (size_t j = 0; j <= b.insts.size(); ++j) {
    while (next_site < block_sites.size() && block_sites[next_site].inst_idx == j) {
      ReadSite& site = block_sites[next_site];
      ++next_site;
      if (!site.coalescible || site.place_after) {
        continue;
      }
      auto it = state.find(site.base);
      bool covered = it != state.end() && !it->second.empty();
      if (covered) {
        for (const auto& [dom, span] : it->second) {
          (void)dom;
          // The raised check must absorb the largest offset (cap-bounded),
          // and the smallest offset must keep the address non-negative —
          // the no-wrap half of the proof for sub-derived values.
          if (span.max + site.disp > kO4CoverCap || span.min + site.disp < 0) {
            covered = false;  // keep this check
            break;
          }
        }
      }
      if (covered) {
        if (commit) {
          site.removed = true;
          for (const auto& [dom, span] : it->second) {
            dom->check_disp = std::max(dom->check_disp, span.max + site.disp);
          }
        }
      } else {
        state[site.base] = {{&site, O4Span{0, 0}}};
      }
    }
    if (j < b.insts.size()) {
      O4ApplyInst(state, b.insts[j], clobbers);
    }
  }
  return state;
}

// Interval widening between rounds: a source whose span is still growing
// at the same block entry — max climbing (an `add $8, %rdi` cycle) or min
// descending (a `sub $8, %rdi` cycle) — will never stabilize: drop it,
// keeping the in-loop check. Stable facts are never touched.
void O4Widen(O4State& in, const O4State& prev) {
  for (auto it = in.begin(); it != in.end();) {
    auto pit = prev.find(it->first);
    if (pit != prev.end()) {
      for (auto sit = it->second.begin(); sit != it->second.end();) {
        auto ps = pit->second.find(sit->first);
        if (ps != pit->second.end() &&
            (sit->second.max > ps->second.max || sit->second.min < ps->second.min)) {
          sit = it->second.erase(sit);
        } else {
          ++sit;
        }
      }
    }
    if (it->second.empty()) {
      it = in.erase(it);
    } else {
      ++it;
    }
  }
}

// Greatest-fixpoint elision over the whole CFG. Returns false if the
// iteration failed to converge within the (generous) round budget — the
// caller then falls back to the O3 analysis, which is always sound.
bool O4Coalesce(Function& fn, std::vector<std::vector<ReadSite>>& sites_by_block,
                const CalleeClobberSummary* clobbers) {
  const size_t n = fn.blocks().size();
  std::vector<std::vector<int32_t>> preds = PredecessorsOf(fn);
  std::vector<O4State> exit_states(n);
  std::vector<O4State> in_states(n);
  std::vector<bool> visited(n, false);

  const size_t widen_after = n + 8;
  const size_t max_rounds = 8 * n + 64;
  size_t round = 0;
  bool changed = true;
  while (changed) {
    if (round++ >= max_rounds) {
      return false;
    }
    changed = false;
    for (size_t bi = 0; bi < n; ++bi) {
      O4State in;
      if (bi != 0) {  // the entry block always meets the caller's empty state
        bool first = true;
        for (int32_t p : preds[bi]) {
          if (!visited[static_cast<size_t>(p)]) {
            continue;  // optimistic: an unvisited predecessor contributes top
          }
          if (first) {
            in = exit_states[static_cast<size_t>(p)];
            first = false;
          } else {
            in = O4Meet(in, exit_states[static_cast<size_t>(p)]);
          }
        }
      }
      if (round > widen_after) {
        O4Widen(in, in_states[bi]);
      }
      in_states[bi] = in;
      O4State out = O4TransferBlock(fn.blocks()[bi], sites_by_block[bi], std::move(in),
                                    clobbers, /*commit=*/false);
      if (!visited[bi] || out != exit_states[bi]) {
        visited[bi] = true;
        exit_states[bi] = std::move(out);
        changed = true;
      }
    }
  }

  // Converged: replay once, committing elisions and raising the survivors.
  for (size_t bi = 0; bi < n; ++bi) {
    O4TransferBlock(fn.blocks()[bi], sites_by_block[bi], in_states[bi], clobbers,
                    /*commit=*/true);
  }
  return true;
}

// Hoists loop-invariant checks: for every natural loop whose body never
// clobbers a checked base register (no redefinition, no spill, and no call
// beyond those whose callee-clobber summary spares the base), a
// synthetic check site is placed in a freshly inserted preheader block. The
// in-loop sites then sit in its coverage and are elided by O4Coalesce,
// which also widens the preheader check to the maximum in-loop
// displacement. Loops are re-derived after each restructure; the chain
// terminates because every hoist marks its covered sites.
void O4HoistLoops(Function& fn, std::vector<std::vector<ReadSite>>& sites_by_block,
                  const CalleeClobberSummary* clobbers, SfiStats* local) {
  for (int iter = 0; iter < 32; ++iter) {
    DominatorTree dom(fn);
    std::vector<NaturalLoop> loops = FindNaturalLoops(fn, dom);
    bool applied = false;
    for (const NaturalLoop& loop : loops) {
      const int32_t h = loop.header;
      // Layout constraint: the block physically before the header must not
      // fall through into it from inside the loop, or the preheader would
      // intercept the back edge.
      if (h > 0 && loop.body.count(h - 1) > 0 &&
          !fn.blocks()[static_cast<size_t>(h - 1)].ends_with_unconditional_transfer()) {
        continue;
      }
      // Clobber summary of the whole loop body.
      bool has_call = false;
      RegMask clobbered = 0;
      for (int32_t b : loop.body) {
        for (const Instruction& inst : fn.blocks()[static_cast<size_t>(b)].insts) {
          if (inst.IsCall()) {
            // A summarized direct callee clobbers exactly its summary mask
            // (which already includes %rsp and the check scratch); any
            // other call is an analysis horizon and blocks the hoist.
            if (clobbers != nullptr && inst.op == Opcode::kCallRel &&
                inst.target_symbol >= 0 && clobbers->Known(inst.target_symbol)) {
              clobbered |= static_cast<RegMask>(clobbers->MaskOf(inst.target_symbol));
              continue;
            }
            has_call = true;
            break;
          }
          clobbered |= InstructionRegWrites(inst);
          if (inst.op == Opcode::kStore || inst.op == Opcode::kPushR) {
            clobbered |= RegBit(inst.r1);
          }
        }
        if (has_call) {
          break;
        }
      }
      if (has_call) {
        continue;
      }
      // Eligible bases: loop-invariant, all displacements within the cap.
      std::set<Reg> hoistable;
      for (int32_t b : loop.body) {
        for (const ReadSite& site : sites_by_block[static_cast<size_t>(b)]) {
          if (!site.coalescible || site.place_after || site.hoist_covered ||
              (clobbered & RegBit(site.base)) != 0 || site.disp > kO4CoverCap) {
            continue;
          }
          hoistable.insert(site.base);
        }
      }
      if (hoistable.empty()) {
        continue;
      }

      // Insert the preheader at the header's layout position and steer
      // every entry edge from outside the loop through it (back edges keep
      // targeting the header; an out-of-loop layout predecessor now falls
      // through the preheader into the header).
      const int32_t header_id = fn.blocks()[static_cast<size_t>(h)].id;
      const int32_t preheader_id = fn.AllocateBlockId();
      BasicBlock pb;
      pb.id = preheader_id;
      fn.blocks().insert(fn.blocks().begin() + h, std::move(pb));
      std::set<int32_t> body_shifted;
      for (int32_t b : loop.body) {
        body_shifted.insert(b >= h ? b + 1 : b);
      }
      for (size_t bi = 0; bi < fn.blocks().size(); ++bi) {
        if (static_cast<int32_t>(bi) == h || body_shifted.count(static_cast<int32_t>(bi)) > 0) {
          continue;
        }
        for (Instruction& inst : fn.blocks()[bi].insts) {
          if (inst.target_block == header_id) {
            inst.target_block = preheader_id;
          }
        }
      }

      // Site bookkeeping: shift, then add one synthetic check per base. The
      // synthetic starts at displacement 0 — O4Coalesce widens it while
      // eliding the in-loop sites it covers.
      for (auto& bs : sites_by_block) {
        for (ReadSite& s : bs) {
          if (s.layout_idx >= h) {
            ++s.layout_idx;
          }
        }
      }
      sites_by_block.emplace(sites_by_block.begin() + h);
      for (Reg base : hoistable) {
        ReadSite syn;
        syn.layout_idx = h;
        syn.inst_idx = 0;
        syn.base = base;
        syn.disp = 0;
        syn.check_disp = 0;
        syn.mem = MemOperand::Base(base, 0);
        syn.coalescible = true;
        syn.hoisted = true;
        sites_by_block[static_cast<size_t>(h)].push_back(syn);
      }
      for (int32_t b : body_shifted) {
        for (ReadSite& s : sites_by_block[static_cast<size_t>(b)]) {
          if (s.coalescible && !s.place_after && hoistable.count(s.base) > 0) {
            s.hoist_covered = true;
          }
        }
      }
      (void)local;
      applied = true;
      break;  // re-derive dominators and loops after the restructure
    }
    if (!applied) {
      break;
    }
  }
}

}  // namespace

void SfiStats::Accumulate(const SfiStats& o) {
  read_sites += o.read_sites;
  safe_reads += o.safe_reads;
  rsp_reads += o.rsp_reads;
  string_checks += o.string_checks;
  checks_emitted += o.checks_emitted;
  checks_coalesced += o.checks_coalesced;
  checks_hoisted += o.checks_hoisted;
  wrappers_kept += o.wrappers_kept;
  wrappers_eliminated += o.wrappers_eliminated;
  lea_kept += o.lea_kept;
  lea_eliminated += o.lea_eliminated;
  spec_barriers += o.spec_barriers;
  spec_masks += o.spec_masks;
  max_rsp_disp = std::max(max_rsp_disp, o.max_rsp_disp);
}

double SfiStats::WrapperEliminationRate() const {
  uint64_t total = wrappers_kept + wrappers_eliminated;
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(wrappers_eliminated) /
                                static_cast<double>(total);
}

double SfiStats::LeaEliminationRate() const {
  uint64_t total = lea_kept + lea_eliminated;
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(lea_eliminated) /
                                static_cast<double>(total);
}

double SfiStats::CoalescingRate() const {
  uint64_t total = checks_emitted + checks_coalesced;
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(checks_coalesced) /
                                static_cast<double>(total);
}

double SfiStats::SafeReadRate() const {
  return read_sites == 0 ? 0.0 : 100.0 * static_cast<double>(safe_reads) /
                                     static_cast<double>(read_sites);
}

Status ApplySfiPass(Function& fn, const ProtectionConfig& config, int32_t krx_handler_sym,
                    int64_t edata_imm, SfiStats* stats,
                    const CalleeClobberSummary* callee_clobbers) {
  if (!config.HasRangeChecks() && !config.mpx) {
    return Status::Ok();
  }
  const bool mpx = config.mpx;
  const SfiLevel level = config.sfi;
  const bool o4 = level == SfiLevel::kO4;
  const bool do_lea_elim = mpx || level == SfiLevel::kO2 || level == SfiLevel::kO3 || o4;
  const bool do_coalesce = mpx || level == SfiLevel::kO3 || o4;
  const bool spec_barrier = config.spec == SpecMitigation::kBarrier;
  // The mask flavour replaces every check — including bndcu under MPX —
  // with the branchless clamp; there is no trap path at all.
  const bool spec_mask = config.spec == SpecMitigation::kMask;

  SfiStats local;

  // ---- Collect read sites. ----
  std::vector<std::vector<ReadSite>> sites_by_block(fn.blocks().size());
  for (size_t bi = 0; bi < fn.blocks().size(); ++bi) {
    const BasicBlock& b = fn.blocks()[bi];
    for (size_t j = 0; j < b.insts.size(); ++j) {
      const Instruction& inst = b.insts[j];
      if (!inst.ReadsMemory()) {
        continue;
      }
      ++local.read_sites;
      ReadSite site;
      site.layout_idx = static_cast<int32_t>(bi);
      site.inst_idx = j;
      if (inst.IsString()) {
        site.is_string = true;
        site.place_after = inst.rep;
        site.base = inst.StringReadBase();
        site.disp = 0;
        site.check_disp = 0;
        site.mem = MemOperand::Base(site.base, 0);
        ++local.string_checks;
        sites_by_block[bi].push_back(site);
        continue;
      }
      const MemOperand& mem = inst.mem;
      if (mem.IsSafeAddress()) {
        ++local.safe_reads;
        continue;
      }
      if (mem.IsPlainRspAccess()) {
        ++local.rsp_reads;
        local.max_rsp_disp = std::max(local.max_rsp_disp, mem.disp);
        continue;
      }
      site.mem = mem;
      if (mem.has_base() && !mem.has_index()) {
        site.base = mem.base;
        site.disp = mem.disp;
        site.coalescible = true;
      } else {
        site.base = Reg::kNone;  // needs lea (or a full-operand bndcu)
        site.disp = mem.disp;
      }
      site.check_disp = site.disp;
      sites_by_block[bi].push_back(site);
    }
  }

  // ---- O4: loop hoisting + cross-block dominance elision. ----
  bool o4_done = false;
  if (o4) {
    O4HoistLoops(fn, sites_by_block, callee_clobbers, &local);
    o4_done = O4Coalesce(fn, sites_by_block, callee_clobbers);
    // On (theoretical) non-convergence the O3 single-pass analysis below
    // runs instead; any synthetic preheader checks are simply kept, which
    // is redundant but sound.
  }

  // ---- O3: cmp/ja coalescing. ----
  if (do_coalesce && !o4_done) {
    const size_t n = fn.blocks().size();
    std::vector<std::vector<int32_t>> preds(n);
    for (size_t bi = 0; bi < n; ++bi) {
      for (int32_t succ_id : fn.SuccessorsOf(static_cast<int32_t>(bi))) {
        int32_t sidx = fn.IndexOfBlock(succ_id);
        if (sidx >= 0) {
          preds[static_cast<size_t>(sidx)].push_back(static_cast<int32_t>(bi));
        }
      }
    }
    std::vector<AvailState> exit_states(n);
    for (size_t bi = 0; bi < n; ++bi) {
      AvailState state = MeetPredecessors(exit_states, preds, static_cast<int32_t>(bi));
      auto& block_sites = sites_by_block[bi];
      size_t next_site = 0;
      const BasicBlock& b = fn.blocks()[bi];
      for (size_t j = 0; j < b.insts.size(); ++j) {
        // Check site placed *before* this instruction.
        while (next_site < block_sites.size() && block_sites[next_site].inst_idx == j) {
          ReadSite& site = block_sites[next_site];
          ++next_site;
          if (!site.coalescible || site.place_after) {
            continue;
          }
          auto it = state.find(site.base);
          if (it != state.end()) {
            // Dominated on every path: fold into the dominating checks.
            site.removed = true;
            for (ReadSite* dom : it->second) {
              dom->check_disp = std::max(dom->check_disp, site.disp);
            }
          } else {
            state[site.base] = {&site};
          }
        }
        ApplyInstructionKills(state, b.insts[j]);
      }
      exit_states[bi] = std::move(state);
    }
  }

  // ---- Materialize. ----
  FlagsLiveness liveness(fn);

  bool any_kept = false;
  for (const auto& bs : sites_by_block) {
    for (const ReadSite& s : bs) {
      if (!s.removed) {
        any_kept = true;
      }
    }
  }

  // Violation block (SFI flavour only): callq krx_handler, then halt.
  // Created before the rebuild so block references below stay stable.
  // spec-mask emits no branches, so it never needs the handler block.
  int32_t viol_block = -1;
  if (any_kept && !mpx && !spec_mask) {
    viol_block = fn.AddBlock();
    BasicBlock& vb = fn.block_by_id(viol_block);
    Instruction call = Instruction::CallSym(krx_handler_sym);
    call.origin = InstOrigin::kRangeCheck;
    Instruction hlt = Instruction::Hlt();
    hlt.origin = InstOrigin::kRangeCheck;
    vb.insts.push_back(call);
    vb.insts.push_back(hlt);
  }
  auto violation_target = [&]() {
    KRX_CHECK(viol_block >= 0);
    return viol_block;
  };

  // Rebuild blocks that have sites; layout indices of the blocks the sites
  // refer to are unchanged by the violation-block append.
  for (size_t bi = 0; bi < sites_by_block.size(); ++bi) {
    auto& block_sites = sites_by_block[bi];
    bool any = false;
    for (const ReadSite& s : block_sites) {
      if (!s.removed) {
        any = true;
        break;
      }
    }
    if (!any) {
      continue;
    }
    BasicBlock& b = fn.blocks()[bi];
    std::vector<Instruction> out;
    out.reserve(b.insts.size() + block_sites.size() * 5);
    size_t next_site = 0;

    // `read_inst` points at the pending copy of the guarded instruction
    // (nullptr for postmortem and synthetic preheader checks): the mask
    // flavour's lea form rewrites its operand to go through the clamped
    // scratch register.
    auto emit_check = [&](const ReadSite& site, size_t liveness_point,
                          Instruction* read_inst) {
      ++local.checks_emitted;
      if (site.hoisted) {
        ++local.checks_hoisted;
      }
      const bool base_form = site.is_string || (do_lea_elim && site.coalescible);
      if (spec_mask) {
        // Branchless clamp: the address register is forced into
        // [0, edata - check_disp], the exact post-state the ja-not-taken
        // edge would have proven — with no branch for a predictor to
        // missteer. kMaskRI writes no flags, so no pushfq/popfq either.
        ++local.spec_masks;
        if (base_form) {
          if (!site.is_string && !site.hoisted) {
            ++local.lea_eliminated;
          }
          Instruction m = Instruction::MaskRI(site.base, edata_imm - site.check_disp);
          m.origin = InstOrigin::kRangeCheck;
          out.push_back(m);
        } else {
          ++local.lea_kept;
          Instruction lea = Instruction::Lea(kRangeCheckScratch, site.mem);
          lea.origin = InstOrigin::kRangeCheck;
          out.push_back(lea);
          Instruction m = Instruction::MaskRI(kRangeCheckScratch, edata_imm);
          m.origin = InstOrigin::kRangeCheck;
          out.push_back(m);
          // The read must go through the clamped address, not recompute
          // the raw one.
          if (read_inst != nullptr) {
            read_inst->mem = MemOperand::Base(kRangeCheckScratch, 0);
          }
        }
        return;
      }
      auto emit_fence = [&]() {
        if (spec_barrier) {
          ++local.spec_barriers;
          Instruction f = Instruction::SpecFence();
          f.origin = InstOrigin::kRangeCheck;
          out.push_back(f);
        }
      };
      if (mpx) {
        MemOperand checked = site.coalescible || site.is_string
                                 ? MemOperand::Base(site.base, site.check_disp)
                                 : site.mem;
        Instruction b1 = Instruction::Bndcu(checked);
        b1.origin = InstOrigin::kRangeCheck;
        out.push_back(b1);
        emit_fence();
        return;
      }
      bool preserve;
      if (level == SfiLevel::kO0) {
        preserve = true;
      } else {
        preserve = liveness.LiveBefore(static_cast<int32_t>(bi), liveness_point);
      }
      if (preserve) {
        ++local.wrappers_kept;
        Instruction p = Instruction::Pushfq();
        p.origin = InstOrigin::kRangeCheck;
        out.push_back(p);
      } else {
        ++local.wrappers_eliminated;
      }
      if (base_form) {
        if (!site.is_string && !site.hoisted) {
          ++local.lea_eliminated;
        }
        Instruction cmp = Instruction::CmpRI(site.base, edata_imm - site.check_disp);
        cmp.origin = InstOrigin::kRangeCheck;
        out.push_back(cmp);
      } else {
        ++local.lea_kept;
        Instruction lea = Instruction::Lea(kRangeCheckScratch, site.mem);
        lea.origin = InstOrigin::kRangeCheck;
        out.push_back(lea);
        Instruction cmp = Instruction::CmpRI(kRangeCheckScratch, edata_imm);
        cmp.origin = InstOrigin::kRangeCheck;
        out.push_back(cmp);
      }
      Instruction ja = Instruction::JccBlock(Cond::kA, violation_target());
      ja.origin = InstOrigin::kRangeCheck;
      out.push_back(ja);
      // The fence lands on the fallthrough (not-taken) path, before any
      // popfq: a mispredicted-not-taken window dies here, before the
      // guarded read can issue.
      emit_fence();
      if (preserve) {
        Instruction p = Instruction::Popfq();
        p.origin = InstOrigin::kRangeCheck;
        out.push_back(p);
      }
    };

    for (size_t j = 0; j < b.insts.size(); ++j) {
      // The guarded instruction is copied so a mask-form check can rewrite
      // its operand before it is appended.
      Instruction cur = b.insts[j];
      // Before-checks for this instruction. Under spec-mask, postmortem
      // (rep string) sites clamp *before* the instruction too: the trap
      // has no branchless equivalent.
      size_t si = next_site;
      while (si < block_sites.size() && block_sites[si].inst_idx == j) {
        const ReadSite& site = block_sites[si];
        if (!site.removed && (!site.place_after || spec_mask)) {
          emit_check(site, j, &cur);
        }
        ++si;
      }
      out.push_back(cur);
      // After-checks (rep string postmortem check).
      while (next_site < block_sites.size() && block_sites[next_site].inst_idx == j) {
        const ReadSite& site = block_sites[next_site];
        if (!site.removed && site.place_after && !spec_mask) {
          emit_check(site, j + 1, nullptr);
        }
        ++next_site;
      }
    }
    // Synthetic preheader checks land in an otherwise empty block (inst_idx
    // == insts.size()), which the loop above never reaches.
    while (next_site < block_sites.size()) {
      const ReadSite& site = block_sites[next_site];
      if (!site.removed) {
        emit_check(site, b.insts.size(), nullptr);
      }
      ++next_site;
    }
    b.insts = std::move(out);
  }

  local.checks_coalesced = 0;
  for (const auto& bs : sites_by_block) {
    for (const ReadSite& s : bs) {
      if (s.removed) {
        ++local.checks_coalesced;
      }
    }
  }

  if (stats != nullptr) {
    stats->Accumulate(local);
  }
  return fn.Validate();
}

}  // namespace krx
