// Superblock engine: chain construction, the chained dispatch loop, and the
// per-opcode handlers (Cpu::SbOps).
//
// The handlers hold no semantics of their own: each hot opcode's handler is
// the shared opcode switch (src/cpu/semantics.h) instantiated on
// SbOps::Machine with the opcode fixed at compile time. Machine is the
// architectural machine with two differences — the deci-cycle cost was
// precomputed at chain build time, and in-page data accesses go through
// the chain's inline TLB — so bit-identity with the other engines holds by
// construction. The step observer is never consulted: installing one makes
// the run ineligible for this engine, exactly as for the block cache.
// Anything without a hot handler retires through Generic, which delegates
// wholesale to ExecuteInst (the dispatcher accounts nothing).
#include "src/cpu/cpu.h"
#include "src/cpu/semantics.h"

namespace krx {

struct Cpu::SbOps {
  // The architectural machine with the superblock's memory path. The
  // accesses forward the Cpu, not the machine, so the machine stays in
  // registers.
  struct Machine : ArchMachine {
    bool Read(uint64_t vaddr, uint64_t* value) { return ReadMem(c, vaddr, value); }
    bool Write(uint64_t vaddr, uint64_t value) { return WriteMem(c, vaddr, value); }
  };

  // Fills a direct-mapped TLB slot for the page containing `vaddr`.
  // `gen` must have been read from the page table *before* the walk: a
  // concurrent remap between the two then leaves the entry conservatively
  // stale (it revalidates against the newer generation and misses) instead
  // of dangerously fresh. User pages are never cached, though the walk
  // allows them with SMAP off: the canonical path owns SMAP fault semantics.
  static bool FillTlb(Cpu& c, SbTlbEntry& e, uint64_t vaddr, uint64_t gen) {
    const Translation t = c.mmu_.Walk(vaddr, Access::kRead);
    if (!t.ok() || t.flags.user) {
      return false;
    }
    e.vpage = vaddr >> kPageShift;
    e.page_gen = gen;
    e.paddr_base = PageFloor(t.paddr);
    e.writable = t.flags.writable;
    // A store through this entry writes this frame, so it decides code
    // aliasing here exactly as Cpu::DataWrite64 decides it from the frame an
    // in-page store wrote.
    e.aliases_code = c.image_->FrameIsCode(t.paddr >> kPageShift);
    return true;
  }

  // 8-byte data read through the inline TLB. Page-crossing accesses and
  // uncacheable/unmapped pages take Cpu::DataRead64, which owns the exact
  // fault semantics (and the XnR/destructive hooks, both disabled under
  // superblock eligibility).
  static bool ReadMem(Cpu& c, uint64_t vaddr, uint64_t* value) {
    if (PageOffset(vaddr) + 8 <= kPageSize) {
      SbTlbEntry& e = c.sb_current_->tlb.EntryFor(vaddr);
      const uint64_t gen = c.image_->page_table().generation();
      const bool valid = e.vpage == (vaddr >> kPageShift) && e.page_gen == gen;
      if (valid || FillTlb(c, e, vaddr, gen)) {
        ++(valid ? c.sb_cache_.stats().tlb_hits : c.sb_cache_.stats().tlb_misses);
        *value = c.image_->phys().Read64(e.paddr_base | PageOffset(vaddr));
        return true;
      }
    }
    ++c.sb_cache_.stats().tlb_misses;
    return c.DataRead64(vaddr, value);
  }

  // 8-byte data write through the inline TLB. A hit on a read-only page
  // falls back so the write-protect #PF surfaces exactly as uncached; a hit
  // on a code-aliasing page bumps the text generation, exactly like
  // Cpu::DataWrite64 (the SMC hook the dispatcher's mid-chain generation
  // re-check depends on).
  static bool WriteMem(Cpu& c, uint64_t vaddr, uint64_t value) {
    if (PageOffset(vaddr) + 8 <= kPageSize) {
      SbTlbEntry& e = c.sb_current_->tlb.EntryFor(vaddr);
      const uint64_t gen = c.image_->page_table().generation();
      const bool valid = e.vpage == (vaddr >> kPageShift) && e.page_gen == gen;
      if ((valid || FillTlb(c, e, vaddr, gen)) && e.writable) {
        ++(valid ? c.sb_cache_.stats().tlb_hits : c.sb_cache_.stats().tlb_misses);
        c.image_->phys().Write64(e.paddr_base | PageOffset(vaddr), value);
        if (e.aliases_code) {
          c.image_->BumpTextGeneration();
        }
        return true;
      }
    }
    ++c.sb_cache_.stats().tlb_misses;
    return c.DataWrite64(vaddr, value);
  }

  // A hot opcode's handler: the shared semantics with `kOp` a compile-time
  // constant, accounted with the cost precomputed at chain build time.
  template <Opcode kOp>
  static bool Fast(Cpu& c, const SbInst& si) {
    Machine m{{c}};
    m.Account(kOp, si.cost);
    ExecuteOp(m, kOp, si.inst, si.rip, si.rip_next);
    return m.Retire();
  }

  // Everything else: delegate to the canonical decoded-execute path, which
  // does its own accounting and retirement (the dispatcher adds nothing).
  static bool Generic(Cpu& c, const SbInst& si) {
    return c.ExecuteInst(si.inst, si.size);
  }

  // The hot ops by bench instruction mix: the SFI cmp/ja range check and
  // mask clamp, the MPX bndcu, mov rr/ri/load/store, push/pop, call/ret
  // and the xkey return-address xor (xor %key, (%rsp)).
  static SbHandler HandlerFor(Opcode op) {
    switch (op) {
      case Opcode::kNop: return &Fast<Opcode::kNop>;
      case Opcode::kMovRR: return &Fast<Opcode::kMovRR>;
      case Opcode::kMovRI: return &Fast<Opcode::kMovRI>;
      case Opcode::kLea: return &Fast<Opcode::kLea>;
      case Opcode::kLoad: return &Fast<Opcode::kLoad>;
      case Opcode::kStore: return &Fast<Opcode::kStore>;
      case Opcode::kStoreImm: return &Fast<Opcode::kStoreImm>;
      case Opcode::kPushR: return &Fast<Opcode::kPushR>;
      case Opcode::kPopR: return &Fast<Opcode::kPopR>;
      case Opcode::kAddRR: return &Fast<Opcode::kAddRR>;
      case Opcode::kAddRI: return &Fast<Opcode::kAddRI>;
      case Opcode::kSubRR: return &Fast<Opcode::kSubRR>;
      case Opcode::kSubRI: return &Fast<Opcode::kSubRI>;
      case Opcode::kCmpRR: return &Fast<Opcode::kCmpRR>;
      case Opcode::kCmpRI: return &Fast<Opcode::kCmpRI>;
      case Opcode::kTestRR: return &Fast<Opcode::kTestRR>;
      case Opcode::kMaskRI: return &Fast<Opcode::kMaskRI>;
      case Opcode::kBndcu: return &Fast<Opcode::kBndcu>;
      case Opcode::kJcc: return &Fast<Opcode::kJcc>;
      case Opcode::kJmpRel: return &Fast<Opcode::kJmpRel>;
      case Opcode::kCallRel: return &Fast<Opcode::kCallRel>;
      case Opcode::kRet: return &Fast<Opcode::kRet>;
      case Opcode::kXorMR: return &Fast<Opcode::kXorMR>;
      default: return &Generic;
    }
  }
};

// Chains predecoded basic blocks starting at `entry`. Chain continuation:
//  - jmp/call rel32: always, to the exact static target;
//  - jcc: the BTFN-predicted direction (backward displacement => taken) —
//    the static heuristic that makes loop back-edges chain;
//  - a block split by the predecode length cap: its fall-through;
//  - indirect transfers, ret, traps: never (the chain exits).
// A predicted edge landing on an already-chained block start becomes an
// internal loop edge (the superblock's whole point); anything else appends
// the target block, within the block/instruction budgets.
Superblock Cpu::BuildSuperblock(uint64_t entry) {
  Superblock sb;
  sb.entry = entry;
  // Block start rip -> index of its first SbInst, for closing loop edges.
  std::unordered_map<uint64_t, int32_t> starts;
  uint64_t rip = entry;
  while (sb.blocks < kMaxSuperblockBlocks) {
    DecodedBlock block = BuildBlock(rip);
    if (block.insts.empty() ||
        sb.insts.size() + block.insts.size() > kMaxSuperblockInsts) {
      break;
    }
    starts.emplace(rip, static_cast<int32_t>(sb.insts.size()));
    ++sb.blocks;
    uint64_t r = rip;
    for (const PredecodedInst& pi : block.insts) {
      SbInst si;
      si.inst = pi.inst;
      si.size = pi.size;
      si.rip = r;
      si.rip_next = r + pi.size;
      si.cost = cost_.CostOf(pi.inst);
      si.handler = SbOps::HandlerFor(pi.inst.op);
      si.fast = si.handler != &SbOps::Generic;
      si.next = static_cast<int32_t>(sb.insts.size()) + 1;  // straight-line
      sb.insts.push_back(si);
      r = si.rip_next;
    }
    SbInst& last = sb.insts.back();
    last.end_of_block = true;
    const Instruction& in = last.inst;
    uint64_t target = 0;
    bool chain = false;
    if (in.op == Opcode::kJmpRel || in.op == Opcode::kCallRel) {
      target = last.rip_next + static_cast<uint64_t>(in.imm);
      chain = true;
    } else if (in.op == Opcode::kJcc) {
      target = in.imm < 0 ? last.rip_next + static_cast<uint64_t>(in.imm)
                          : last.rip_next;
      chain = true;
    } else if (!EndsBlock(in.op)) {
      target = last.rip_next;  // length-split block: chain its fall-through
      chain = true;
    }
    if (!chain || target == kReturnSentinel) {
      last.next = kSbExit;
      break;
    }
    last.expected_next = target;
    if (auto it = starts.find(target); it != starts.end()) {
      last.next = it->second;  // internal loop edge
      break;
    }
    last.next = static_cast<int32_t>(sb.insts.size());  // appended next
    rip = target;
  }
  // A budget-terminated construction leaves the final transfer pointing one
  // past the end; it exits the chain instead.
  if (!sb.insts.empty()) {
    SbInst& last = sb.insts.back();
    if (last.next == static_cast<int32_t>(sb.insts.size())) {
      last.next = kSbExit;
    }
    last.end_of_block = true;
  }
  return sb;
}

// The chained dispatch loop. Contracts mirrored from RunCached:
//  - krx_handler extent checked at every instruction's %rip (violation
//    latching must not depend on the engine);
//  - step budget counted per retired instruction (rep iterations are
//    bounded inside ExecuteInst, as everywhere);
//  - preempt/deadline sampled at the top (superblock entry) and at every
//    chain continuation — at least once per chained block;
//  - the image text generation is re-checked after every retired
//    instruction; a mid-chain bump (guest SMC, a module load triggered by
//    the run) abandons the stale predecode and re-looks-up, which flushes;
//  - unfetchable/undecodable bytes at %rip take one canonical Step() so the
//    fault surfaces exactly as single-stepped.
RunResult Cpu::RunSuperblocked() {
  SuperblockStats& st = sb_cache_.stats();
  uint64_t steps = 0;
  while (steps < max_steps_) {
    if (PreemptDue(0)) {
      pending_.reason = StopReason::kDeadlineExceeded;
      return pending_;
    }
    const uint64_t generation = image_->text_generation();
    Superblock* sb = sb_cache_.Lookup(rip_, generation);
    if (sb == nullptr) {
      Superblock built = BuildSuperblock(rip_);
      if (built.insts.empty()) {
        if (!Step()) {
          return pending_;
        }
        ++steps;
        continue;
      }
      sb = sb_cache_.Insert(std::move(built));
    }
    ++st.entries;
    ++sb->entered;
    sb_current_ = sb;
    int32_t i = 0;
    bool stop = false;
    while (steps < max_steps_) {
      const SbInst& si = sb->insts[static_cast<size_t>(i)];
      if (krx_handler_lo_ != 0 && rip_ >= krx_handler_lo_ && rip_ < krx_handler_hi_) {
        pending_.krx_violation = true;
      }
      ++steps;
      ++st.executed_insts;
      ++sb->total_insts;
      if (si.fast) {
        ++st.fastpath_insts;
        ++sb->fast_insts;
      }
      if (!si.handler(*this, si)) {
        stop = true;
        break;
      }
      if (image_->text_generation() != generation) {
        break;  // predecode went stale mid-chain; re-lookup flushes
      }
      if (!si.end_of_block) {
        ++i;
        continue;
      }
      if (si.next == kSbExit) {
        break;
      }
      if (rip_ != si.expected_next) {
        ++st.chain_breaks;  // guard mispredict: leave the chain
        break;
      }
      if (PreemptDue(0)) {  // chain continuation: block-boundary cadence
        pending_.reason = StopReason::kDeadlineExceeded;
        sb_current_ = nullptr;
        return pending_;
      }
      i = si.next;
    }
    sb_current_ = nullptr;
    if (stop) {
      return pending_;
    }
  }
  pending_.reason = StopReason::kStepLimit;
  return pending_;
}

}  // namespace krx
