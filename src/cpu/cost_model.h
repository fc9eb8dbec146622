// Cycle cost model for the krx64 interpreter.
//
// All costs are expressed in deci-cycles (tenths of a CPU cycle) so that
// sub-cycle costs — e.g. an MPX bounds check that retires on an otherwise
// idle port — are representable without floating point. The absolute values
// are a documented approximation of a Skylake-class core (the paper's
// testbed is an i7-6700K); the experiments report *relative* overheads, so
// what matters is the ordering: popfq is expensive (serializing flag
// restore), loads dominate ALU ops, and bndcu is nearly free.
#ifndef KRX_SRC_CPU_COST_MODEL_H_
#define KRX_SRC_CPU_COST_MODEL_H_

#include <cstdint>

#include "src/isa/instruction.h"
#include "src/isa/opcode.h"

namespace krx {

struct CostModel {
  // Deci-cycles per opcode class.
  uint64_t alu = 3;          // mov rr/ri, add, sub, logic, cmp, test, shifts
  uint64_t imul = 30;
  uint64_t lea = 5;
  uint64_t load = 40;        // L1 hit
  uint64_t load_riprel = 15; // constant-address load (xkey fetch): trivially prefetched
  uint64_t store = 10;       // store-buffer absorbed
  uint64_t rmw = 20;         // xor (%rsp),reg: store-forwarded read-modify-write
  uint64_t push = 15;
  uint64_t pop = 15;
  uint64_t pushfq = 30;
  uint64_t popfq = 210;      // flag restore is serializing
  uint64_t branch = 8;       // predicted conditional
  uint64_t jmp = 6;
  uint64_t call = 25;
  uint64_t ret = 25;
  uint64_t indirect = 35;    // indirect call/jmp through reg/mem
  uint64_t string_per_iter = 35;
  uint64_t string_setup = 20;
  uint64_t bndcu = 3;        // retires on a free port
  uint64_t bnd_load = 50;
  uint64_t int3 = 10;
  uint64_t nop = 3;
  uint64_t wrmsr = 600;
  uint64_t hlt = 10;
  uint64_t spec_fence = 40;  // lfence: drains the load queue before retiring

  // Mode-switch costs (syscall entry + sysret exit, deci-cycles).
  uint64_t mode_switch = 1500;
  // Extra per-switch cost when the kernel reserves %bnd0: spill and fill of
  // the user-mode bounds register (§5.1.3).
  uint64_t mpx_mode_switch_extra = 14;

  // Cost of one dynamic instruction (excluding per-iteration string costs,
  // which the interpreter adds per element).
  uint64_t CostOf(Opcode op) const;
  // The same, refined by operands: a rip-relative (constant-address) load
  // costs load_riprel.
  uint64_t CostOf(const Instruction& inst) const {
    return inst.op == Opcode::kLoad && inst.mem.rip_relative ? load_riprel : CostOf(inst.op);
  }
};

}  // namespace krx

#endif  // KRX_SRC_CPU_COST_MODEL_H_
