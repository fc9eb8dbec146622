// Opcodes and condition codes of the krx64 simulated ISA.
//
// The opcode set is the subset of x86-64 that the kR^X paper's
// transformations manipulate or generate: general data movement, the ALU
// operations that define %rflags, pushfq/popfq, string operations, control
// transfer (direct/indirect call/jmp, conditional jumps, ret), int3
// tripwires, and the MPX bndcu bounds check.
#ifndef KRX_SRC_ISA_OPCODE_H_
#define KRX_SRC_ISA_OPCODE_H_

#include <cstdint>

#include "src/isa/register.h"

namespace krx {

enum class Opcode : uint8_t {
  // Miscellaneous.
  kNop = 0,
  kHlt,
  kInt3,   // Tripwire: raises #BR-class exception when executed.
  kUd2,    // Invalid opcode: raises #UD.

  // Data movement.
  kMovRR,     // r1 <- r2
  kMovRI,     // r1 <- imm64
  kLoad,      // r1 <- [mem]                 (memory read)
  kStore,     // [mem] <- r1
  kStoreImm,  // [mem] <- imm32 (sign-extended)
  kLea,       // r1 <- effective_address(mem)
  kPushR,     // push r1
  kPopR,      // pop r1
  kPushfq,    // push %rflags
  kPopfq,     // pop %rflags

  // ALU, register/immediate operands.
  kAddRR,
  kAddRI,
  kSubRR,
  kSubRI,
  kAndRR,
  kAndRI,
  kOrRR,
  kOrRI,
  kXorRR,
  kXorRI,
  kShlRI,
  kShrRI,
  kImulRR,
  kCmpRR,
  kCmpRI,
  kTestRR,

  // ALU involving memory.
  kAddRM,   // r1 += [mem]                   (memory read)
  kCmpRM,   // flags(r1 - [mem])             (memory read)
  kCmpMI,   // flags([mem] - imm32)          (memory read)
  kXorMR,   // [mem] ^= r1                   (memory read + write)

  // Control transfer.
  kJmpRel,   // unconditional, label/rel32
  kJcc,      // conditional, label/rel32
  kJmpR,     // indirect through register
  kJmpM,     // indirect through memory      (memory read)
  kCallRel,  // direct call, symbol/rel32
  kCallR,    // indirect call through register
  kCallM,    // indirect call through memory (memory read)
  kRet,

  // String operations (quadword granularity; optionally rep-prefixed).
  kMovsq,  // [rdi] <- [rsi]; rsi,rdi advance    (memory read via %rsi)
  kLodsq,  // rax <- [rsi]; rsi advances         (memory read via %rsi)
  kStosq,  // [rdi] <- rax; rdi advances
  kCmpsq,  // flags([rsi] - [rdi]); both advance (memory read via %rsi)
  kScasq,  // flags(rax - [rdi]); rdi advances   (memory read via %rdi)

  // MPX.
  kBndcu,     // #BR if effective_address(mem) > bnd0.ub; does not touch flags
  kLoadBnd0,  // bnd0.ub <- imm64 (privileged; used at boot / mode switch)

  // System.
  kSyscall,
  kSysret,
  kWrmsr,  // model of a serializing privileged write; no memory access

  // Transient execution (src/spec).
  kSpecFence,  // speculation barrier: architectural nop; kills a wrong-path
               // window in the spec engine (spec-barrier mitigation)
  kMaskRI,     // r1 <- (r1 >u imm32) ? 0 : r1; branchless address clamp,
               // writes no flags (spec-mask mitigation)

  kNumOpcodes,
};

enum class Cond : uint8_t {
  kE = 0,  // ZF
  kNe,     // !ZF
  kA,      // !CF && !ZF  (unsigned above)
  kAe,     // !CF
  kB,      // CF
  kBe,     // CF || ZF
  kG,      // !ZF && SF==OF (signed greater)
  kGe,     // SF==OF
  kL,      // SF!=OF
  kLe,     // ZF || SF!=OF
  kS,      // SF
  kNs,     // !SF
};

// Operand forms. Each opcode has exactly one; the encoder, the decoder and
// the printer all dispatch on it, so encode/decode are symmetric by
// construction.
enum class Format : uint8_t {
  kNone,   // [op]
  kR,      // [op][reg]
  kRR,     // [op][r1<<4 | r2]
  kRI64,   // [op][reg][imm64]
  kRI32,   // [op][reg][imm32]
  kRM,     // [op][reg][mem]
  kMI32,   // [op][mem][imm32]
  kM,      // [op][mem]
  kRel32,  // [op][rel32]
  kJcc,    // [op][cond][rel32]
  kStr,    // [op][rep]
  kI64,    // [op][imm64]
};

// Forms that carry an explicit memory operand.
inline constexpr bool FormatHasMem(Format f) {
  return f == Format::kRM || f == Format::kMI32 || f == Format::kM;
}

// How an opcode moves %rip.
enum class Flow : uint8_t {
  kNone,          // falls through to the next instruction
  kBranch,        // conditional rel32 (jcc)
  kJump,          // unconditional rel32
  kIndirectJump,  // through a register or memory
  kCall,          // direct rel32
  kIndirectCall,  // through a register or memory
  kRet,
  kTrap,          // raises an exception (int3, ud2)
  kHalt,
};

// Everything the ISA states about one opcode. src/isa/opcode.cc holds one
// constexpr row per opcode, in enum order; every static opcode property
// (name, encoding form, predicates, register sets, block and speculation
// boundaries, gadget disqualification) is derived from these rows.
struct OpcodeInfo {
  // Fact bits (`facts`).
  //
  // A data-memory read that is subject to R^X confinement when its
  // effective address is attacker influenced. Push/pop and the implicit
  // stack accesses of call/ret are not included: they go through %rsp and
  // are covered by the .krx_phantom guard, mirroring the paper's treatment
  // of stack reads.
  static constexpr uint16_t kReadsMemory = 1u << 0;
  static constexpr uint16_t kWritesMemory = 1u << 1;
  // Behaviour depends on %rflags. rep-prefixed cmps/scas also terminate on
  // ZF; that dependency is per instruction (Instruction::ReadsFlags).
  static constexpr uint16_t kReadsFlags = 1u << 2;
  // (Re)defines %rflags. Calls count: callees do not preserve %rflags under
  // the ABI the kernel uses, which the liveness analysis models as a
  // definition.
  static constexpr uint16_t kWritesFlags = 1u << 3;
  static constexpr uint16_t kTerminator = 1u << 4;  // ends an IR basic block
  static constexpr uint16_t kString = 1u << 5;      // implicit %rsi/%rdi, optional rep
  // Mode-switching and system-register writes: they end a speculation
  // window and disqualify a gadget.
  static constexpr uint16_t kPrivileged = 1u << 6;
  static constexpr uint16_t kReadsR1 = 1u << 7;
  static constexpr uint16_t kWritesR1 = 1u << 8;

  Opcode op;
  const char* mnemonic;
  Format format;
  Flow flow;
  uint16_t facts;
  // Registers read or written beyond the explicit operands (r1 per the fact
  // bits, r2 of the kRR form, the memory operand's base and index). A rep
  // prefix adds %rcx to both for string ops.
  RegMask implicit_reads;
  RegMask implicit_writes;

  // True if any of the bits in `fact` is set.
  constexpr bool Has(uint16_t fact) const { return (facts & fact) != 0; }
  constexpr bool IsCall() const { return flow == Flow::kCall || flow == Flow::kIndirectCall; }
};

// The rows, indexed by opcode (src/isa/opcode.cc).
extern const OpcodeInfo kOpcodeTable[];

inline const OpcodeInfo& OpcodeInfoOf(Opcode op) {
  return kOpcodeTable[static_cast<uint8_t>(op)];
}

const char* CondName(Cond c);

}  // namespace krx

#endif  // KRX_SRC_ISA_OPCODE_H_
