// krx64 instruction semantics, written once (internal to src/cpu).
//
// ExecuteOp is the one opcode switch every engine retires through. It is a
// template over a machine policy passed as a type and is force-inlined into
// each caller, so the per-instruction path has no virtual call, no
// std::function and no runtime mode flag: every instantiation compiles to a
// plain switch over its own machine's state. The policies are nested in Cpu
// so they reach its private state:
//
//   Cpu::ArchMachine       (below) the architectural machine: registers,
//                          flags and %bnd0, Cpu::DataRead64/DataWrite64,
//                          RaiseException and the Jcc speculation hook.
//                          Cpu::ExecuteInst runs it for the single-step and
//                          block-cache engines and the superblock fallback.
//   Cpu::SbOps::Machine    (superblock/sb_exec.cc) ArchMachine whose data
//                          accesses go through the chain's inline TLB. Each
//                          hot-op handler instantiates ExecuteOp with its
//                          opcode fixed at compile time, so the switch folds
//                          to that one case.
//   Cpu::TransientMachine  (cpu.cc) the speculation window: shadow registers,
//                          flags and %bnd0, a store overlay over a
//                          side-effect-free page walk, silent faults,
//                          predictor-steered nested branches, deferred #BR.
//
// A policy M provides:
//   uint64_t next                      successor %rip (preset to the
//                                      fall-through by ExecuteOp)
//   uint64_t& R(Reg), RFlags& Flags(), uint64_t& Bnd0()
//   bool Read(vaddr, uint64_t* value)  8-byte data accesses; false means the
//   bool Write(vaddr, value)           access faulted, the policy recorded it
//                                      and the instruction ends there
//   void Jump(target)                  taken control transfer
//   bool Branch(cond, rip, taken_rip, fallthrough_rip)
//                                      direction of a conditional branch
//   void BoundRange(ea)                failing bndcu
//   void Trap(kind, addr)              int3, ud2, undecodable opcode
//   void Halt()
//   bool StringIter(n)                 admits and charges iteration n (from
//                                      1) of a string op; false ends it
//
// Accounting (retired count, mix, cost) and retirement (%rip update, slots,
// step observer) belong to the callers, not to the semantics.
#ifndef KRX_SRC_CPU_SEMANTICS_H_
#define KRX_SRC_CPU_SEMANTICS_H_

#include <atomic>
#include <cstdint>

#include "src/cpu/cpu.h"

#define KRX_ALWAYS_INLINE inline __attribute__((always_inline))

namespace krx {

KRX_ALWAYS_INLINE void FlagsSub(RFlags& f, uint64_t a, uint64_t b) {
  const uint64_t res = a - b;
  f.zf = res == 0;
  f.sf = (res >> 63) != 0;
  f.cf = a < b;
  f.of = (((a ^ b) & (a ^ res)) >> 63) != 0;
}

KRX_ALWAYS_INLINE void FlagsAdd(RFlags& f, uint64_t a, uint64_t b) {
  const uint64_t res = a + b;
  f.zf = res == 0;
  f.sf = (res >> 63) != 0;
  f.cf = res < a;
  f.of = ((~(a ^ b) & (a ^ res)) >> 63) != 0;
}

KRX_ALWAYS_INLINE void FlagsLogic(RFlags& f, uint64_t result) {
  f.zf = result == 0;
  f.sf = (result >> 63) != 0;
  f.cf = false;
  f.of = false;
}

KRX_ALWAYS_INLINE bool EvalCond(const RFlags& f, Cond c) {
  switch (c) {
    case Cond::kE: return f.zf;
    case Cond::kNe: return !f.zf;
    case Cond::kA: return !f.cf && !f.zf;
    case Cond::kAe: return !f.cf;
    case Cond::kB: return f.cf;
    case Cond::kBe: return f.cf || f.zf;
    case Cond::kG: return !f.zf && f.sf == f.of;
    case Cond::kGe: return f.sf == f.of;
    case Cond::kL: return f.sf != f.of;
    case Cond::kLe: return f.zf || f.sf != f.of;
    case Cond::kS: return f.sf;
    case Cond::kNs: return !f.sf;
  }
  return false;
}

// The instruction-mix bucket(s) of one retired instruction. Inline so a
// handler with a compile-time opcode reduces it to one increment.
KRX_ALWAYS_INLINE void CountMix(InstMix& mix, Opcode op) {
  switch (op) {
    case Opcode::kLoad:
    case Opcode::kAddRM:
    case Opcode::kCmpRM:
    case Opcode::kCmpMI:
      ++mix.loads;
      break;
    case Opcode::kXorMR:
      ++mix.loads;  // read-modify-write: counts as a load and a store
      ++mix.stores;
      break;
    case Opcode::kStore:
    case Opcode::kStoreImm:
      ++mix.stores;
      break;
    case Opcode::kLea:
      ++mix.lea;
      break;
    case Opcode::kJcc:
      ++mix.branches;
      break;
    case Opcode::kJmpRel:
    case Opcode::kJmpR:
    case Opcode::kJmpM:
      ++mix.jumps;
      break;
    case Opcode::kCallRel:
    case Opcode::kCallR:
    case Opcode::kCallM:
      ++mix.calls;
      break;
    case Opcode::kRet:
      ++mix.rets;
      break;
    case Opcode::kPushR:
    case Opcode::kPopR:
      ++mix.pushpop;
      break;
    case Opcode::kPushfq:
      ++mix.pushfq;
      break;
    case Opcode::kPopfq:
      ++mix.popfq;
      break;
    case Opcode::kBndcu:
      ++mix.bndcu;
      break;
    case Opcode::kMovsq:
    case Opcode::kLodsq:
    case Opcode::kStosq:
    case Opcode::kCmpsq:
    case Opcode::kScasq:
      ++mix.string_ops;
      break;
    case Opcode::kMovRR:
    case Opcode::kMovRI:
    case Opcode::kAddRR:
    case Opcode::kAddRI:
    case Opcode::kSubRR:
    case Opcode::kSubRI:
    case Opcode::kAndRR:
    case Opcode::kAndRI:
    case Opcode::kOrRR:
    case Opcode::kOrRI:
    case Opcode::kXorRR:
    case Opcode::kXorRI:
    case Opcode::kShlRI:
    case Opcode::kShrRI:
    case Opcode::kImulRR:
    case Opcode::kCmpRR:
    case Opcode::kCmpRI:
    case Opcode::kTestRR:
    case Opcode::kMaskRI:
      ++mix.alu;
      break;
    default:
      ++mix.other;
      break;
  }
}

template <class M>
KRX_ALWAYS_INLINE uint64_t EffectiveAddress(M& m, const MemOperand& mem, uint64_t rip_next) {
  if (mem.rip_relative) {
    return rip_next + static_cast<uint64_t>(mem.disp);
  }
  uint64_t ea = static_cast<uint64_t>(mem.disp);
  if (mem.has_base()) {
    ea += m.R(mem.base);
  }
  if (mem.has_index()) {
    ea += m.R(mem.index) * mem.scale;
  }
  return ea;
}

// One iteration of a string op; false when an access faulted.
template <class M>
KRX_ALWAYS_INLINE bool StringStep(M& m, Opcode op) {
  const uint64_t step = m.Flags().df ? static_cast<uint64_t>(-8) : 8;
  uint64_t v = 0, w = 0;
  switch (op) {
    case Opcode::kMovsq:
      if (!m.Read(m.R(Reg::kRsi), &v) || !m.Write(m.R(Reg::kRdi), v)) {
        return false;
      }
      m.R(Reg::kRsi) += step;
      m.R(Reg::kRdi) += step;
      return true;
    case Opcode::kLodsq:
      if (!m.Read(m.R(Reg::kRsi), &v)) {
        return false;
      }
      m.R(Reg::kRax) = v;
      m.R(Reg::kRsi) += step;
      return true;
    case Opcode::kStosq:
      if (!m.Write(m.R(Reg::kRdi), m.R(Reg::kRax))) {
        return false;
      }
      m.R(Reg::kRdi) += step;
      return true;
    case Opcode::kCmpsq:
      if (!m.Read(m.R(Reg::kRsi), &v) || !m.Read(m.R(Reg::kRdi), &w)) {
        return false;
      }
      FlagsSub(m.Flags(), v, w);
      m.R(Reg::kRsi) += step;
      m.R(Reg::kRdi) += step;
      return true;
    case Opcode::kScasq:
      if (!m.Read(m.R(Reg::kRdi), &v)) {
        return false;
      }
      FlagsSub(m.Flags(), m.R(Reg::kRax), v);
      m.R(Reg::kRdi) += step;
      return true;
    default:
      return false;
  }
}

// Executes `in` (at `rip`, falling through to `rip_next`) against machine
// `m`. `op` is in.op, passed separately so a caller with a compile-time
// opcode gets the switch folded away.
template <class M>
KRX_ALWAYS_INLINE void ExecuteOp(M& m, Opcode op, const Instruction& in, uint64_t rip,
                                 uint64_t rip_next) {
  m.next = rip_next;
  const uint64_t imm = static_cast<uint64_t>(in.imm);
  auto ea = [&] { return EffectiveAddress(m, in.mem, rip_next); };
  uint64_t v = 0;

  switch (op) {
    case Opcode::kNop:
    case Opcode::kWrmsr:
    case Opcode::kSyscall:
    case Opcode::kSysret:
    case Opcode::kSpecFence:  // a serializing nop; it ends speculation windows
      break;
    case Opcode::kHlt:
      m.Halt();
      break;
    case Opcode::kInt3:
      m.Trap(ExceptionKind::kBreakpoint, rip);
      break;
    case Opcode::kUd2:
    case Opcode::kNumOpcodes:
      m.Trap(ExceptionKind::kInvalidOpcode, rip);
      break;

    case Opcode::kMovRR:
      m.R(in.r1) = m.R(in.r2);
      break;
    case Opcode::kMovRI:
      m.R(in.r1) = imm;
      break;
    case Opcode::kLoad:
      if (m.Read(ea(), &v)) {
        m.R(in.r1) = v;
      }
      break;
    case Opcode::kStore:
      m.Write(ea(), m.R(in.r1));
      break;
    case Opcode::kStoreImm:
      m.Write(ea(), imm);
      break;
    case Opcode::kLea:
      m.R(in.r1) = ea();
      break;
    case Opcode::kPushR:
      // The %rsp decrement persists when the store faults.
      m.R(Reg::kRsp) -= 8;
      m.Write(m.R(Reg::kRsp), m.R(in.r1));
      break;
    case Opcode::kPopR:
      if (m.Read(m.R(Reg::kRsp), &v)) {
        m.R(in.r1) = v;
        m.R(Reg::kRsp) += 8;
      }
      break;
    case Opcode::kPushfq:
      m.R(Reg::kRsp) -= 8;
      m.Write(m.R(Reg::kRsp), m.Flags().ToBits());
      break;
    case Opcode::kPopfq:
      if (m.Read(m.R(Reg::kRsp), &v)) {
        m.Flags().FromBits(v);
        m.R(Reg::kRsp) += 8;
      }
      break;

    case Opcode::kAddRR:
      FlagsAdd(m.Flags(), m.R(in.r1), m.R(in.r2));
      m.R(in.r1) += m.R(in.r2);
      break;
    case Opcode::kAddRI:
      FlagsAdd(m.Flags(), m.R(in.r1), imm);
      m.R(in.r1) += imm;
      break;
    case Opcode::kSubRR:
      FlagsSub(m.Flags(), m.R(in.r1), m.R(in.r2));
      m.R(in.r1) -= m.R(in.r2);
      break;
    case Opcode::kSubRI:
      FlagsSub(m.Flags(), m.R(in.r1), imm);
      m.R(in.r1) -= imm;
      break;
    case Opcode::kAndRR:
      m.R(in.r1) &= m.R(in.r2);
      FlagsLogic(m.Flags(), m.R(in.r1));
      break;
    case Opcode::kAndRI:
      m.R(in.r1) &= imm;
      FlagsLogic(m.Flags(), m.R(in.r1));
      break;
    case Opcode::kOrRR:
      m.R(in.r1) |= m.R(in.r2);
      FlagsLogic(m.Flags(), m.R(in.r1));
      break;
    case Opcode::kOrRI:
      m.R(in.r1) |= imm;
      FlagsLogic(m.Flags(), m.R(in.r1));
      break;
    case Opcode::kXorRR:
      m.R(in.r1) ^= m.R(in.r2);
      FlagsLogic(m.Flags(), m.R(in.r1));
      break;
    case Opcode::kXorRI:
      m.R(in.r1) ^= imm;
      FlagsLogic(m.Flags(), m.R(in.r1));
      break;
    case Opcode::kShlRI: {
      const uint64_t k = imm & 63;
      RFlags& f = m.Flags();
      v = m.R(in.r1);
      f.cf = k > 0 && ((v >> (64 - k)) & 1) != 0;
      v <<= k;
      m.R(in.r1) = v;
      f.zf = v == 0;
      f.sf = (v >> 63) != 0;
      f.of = false;
      break;
    }
    case Opcode::kShrRI: {
      const uint64_t k = imm & 63;
      RFlags& f = m.Flags();
      v = m.R(in.r1);
      f.cf = k > 0 && ((v >> (k - 1)) & 1) != 0;
      v >>= k;
      m.R(in.r1) = v;
      f.zf = v == 0;
      f.sf = false;
      f.of = false;
      break;
    }
    case Opcode::kImulRR:
      v = m.R(in.r1) * m.R(in.r2);
      m.R(in.r1) = v;
      FlagsLogic(m.Flags(), v);
      break;
    case Opcode::kCmpRR:
      FlagsSub(m.Flags(), m.R(in.r1), m.R(in.r2));
      break;
    case Opcode::kCmpRI:
      FlagsSub(m.Flags(), m.R(in.r1), imm);
      break;
    case Opcode::kTestRR:
      FlagsLogic(m.Flags(), m.R(in.r1) & m.R(in.r2));
      break;
    case Opcode::kMaskRI:
      v = m.R(in.r1);
      m.R(in.r1) = v > imm ? 0 : v;
      break;

    case Opcode::kAddRM:
      if (m.Read(ea(), &v)) {
        FlagsAdd(m.Flags(), m.R(in.r1), v);
        m.R(in.r1) += v;
      }
      break;
    case Opcode::kCmpRM:
      if (m.Read(ea(), &v)) {
        FlagsSub(m.Flags(), m.R(in.r1), v);
      }
      break;
    case Opcode::kCmpMI:
      if (m.Read(ea(), &v)) {
        FlagsSub(m.Flags(), v, imm);
      }
      break;
    case Opcode::kXorMR: {
      const uint64_t addr = ea();
      if (m.Read(addr, &v)) {
        v ^= m.R(in.r1);
        FlagsLogic(m.Flags(), v);
        m.Write(addr, v);
      }
      break;
    }

    case Opcode::kJmpRel:
      m.Jump(rip_next + imm);
      break;
    case Opcode::kJcc:
      if (m.Branch(in.cond, rip, rip_next + imm, rip_next)) {
        m.Jump(rip_next + imm);
      }
      break;
    case Opcode::kJmpR:
      m.Jump(m.R(in.r1));
      break;
    case Opcode::kJmpM:
      if (m.Read(ea(), &v)) {
        m.Jump(v);
      }
      break;
    case Opcode::kCallRel:
      m.R(Reg::kRsp) -= 8;
      if (m.Write(m.R(Reg::kRsp), rip_next)) {
        m.Jump(rip_next + imm);
      }
      break;
    case Opcode::kCallR:
      m.R(Reg::kRsp) -= 8;
      if (m.Write(m.R(Reg::kRsp), rip_next)) {
        m.Jump(m.R(in.r1));
      }
      break;
    case Opcode::kCallM:
      if (m.Read(ea(), &v)) {
        m.R(Reg::kRsp) -= 8;
        if (m.Write(m.R(Reg::kRsp), rip_next)) {
          m.Jump(v);
        }
      }
      break;
    case Opcode::kRet:
      if (m.Read(m.R(Reg::kRsp), &v)) {
        m.R(Reg::kRsp) += 8;
        m.Jump(v);
      }
      break;

    case Opcode::kMovsq:
    case Opcode::kLodsq:
    case Opcode::kStosq:
    case Opcode::kCmpsq:
    case Opcode::kScasq: {
      // Without rep: one iteration. With rep: %rcx iterations (repe for
      // cmps/scas). A corrupted or hostile image can enter a rep with an
      // enormous %rcx; StringIter bounds the host-side loop by the run's
      // step budget so the interpreter always terminates (the run ends as
      // kStepLimit).
      const bool conditional = op == Opcode::kCmpsq || op == Opcode::kScasq;
      for (uint64_t n = 1; !in.rep || m.R(Reg::kRcx) != 0; ++n) {
        if (!m.StringIter(n) || !StringStep(m, op) || !in.rep) {
          break;
        }
        m.R(Reg::kRcx) -= 1;
        if (conditional && !m.Flags().zf) {  // repe semantics
          break;
        }
      }
      break;
    }

    case Opcode::kBndcu: {
      const uint64_t addr = ea();
      if (addr > m.Bnd0()) {
        m.BoundRange(addr);
      }
      break;
    }
    case Opcode::kLoadBnd0:
      m.Bnd0() = imm;
      break;
  }
}

// The architectural machine: the Cpu's own registers, flags and memory.
struct Cpu::ArchMachine {
  Cpu& c;
  uint64_t next = 0;

  uint64_t& R(Reg r) { return c.regs_[RegIndex(r)]; }
  RFlags& Flags() { return c.rflags_; }
  uint64_t& Bnd0() { return c.bnd0_ub_; }
  bool Read(uint64_t vaddr, uint64_t* value) { return c.DataRead64(vaddr, value); }
  bool Write(uint64_t vaddr, uint64_t value) { return c.DataWrite64(vaddr, value); }

  void Jump(uint64_t target) {
    if (target == kReturnSentinel) {
      c.pending_.reason = StopReason::kReturned;
      c.pending_.rax = R(Reg::kRax);
      c.stopped_ = true;
      return;
    }
    next = target;
  }

  bool Branch(Cond cond, uint64_t rip, uint64_t taken_rip, uint64_t fallthrough_rip) {
    const bool taken = EvalCond(c.rflags_, cond);
    if (c.options_.spec.enabled) {
      c.PredictBranch(rip, taken, taken_rip, fallthrough_rip);
    }
    return taken;
  }

  void BoundRange(uint64_t ea) { c.RaiseException(ExceptionKind::kBoundRange, ea); }
  void Trap(ExceptionKind kind, uint64_t addr) { c.RaiseException(kind, addr); }

  void Halt() {
    c.pending_.reason = StopReason::kHalted;
    c.stopped_ = true;
  }

  bool StringIter(uint64_t n) {
    if (n > c.max_steps_) {
      c.pending_.reason = StopReason::kStepLimit;
      c.stopped_ = true;
      return false;
    }
    c.pending_.deci_cycles += c.cost_.string_per_iter;
    return true;
  }

  // Accounting prologue of one retired instruction.
  KRX_ALWAYS_INLINE void Account(Opcode op, uint64_t cost) {
    ++c.pending_.instructions;
    CountMix(c.pending_.mix, op);
    c.pending_.deci_cycles += cost;
  }

  // Retirement epilogue: false when the run must stop (pending_ is filled).
  // The step observer, which forces single-step, is ExecuteInst's alone.
  KRX_ALWAYS_INLINE bool Retire() {
    if (c.stopped_) {
      return false;
    }
    c.rip_ = next;
    if (c.sample_pc_slot_ != nullptr) {
      c.sample_pc_slot_->store(next, std::memory_order_relaxed);
    }
    if (c.heartbeat_slot_ != nullptr) {
      // Watchdog heartbeat: pending_.instructions is never zero here (it was
      // incremented when this instruction retired), so a nonzero-and-frozen
      // slot across ticks distinguishes "wedged" from "idle" (slot == 0).
      c.heartbeat_slot_->store(c.pending_.instructions, std::memory_order_relaxed);
    }
    return true;
  }
};

}  // namespace krx

#endif  // KRX_SRC_CPU_SEMANTICS_H_
