// krx64 instruction representation.
//
// A single Instruction struct serves both as the RTL-level IR node that the
// kR^X passes rewrite (carrying symbolic branch/symbol targets and
// provenance flags) and as the unit the assembler encodes to bytes. This
// mirrors the paper's implementation point: the GCC plugins operate on RTL,
// i.e. on near-machine instructions.
#ifndef KRX_SRC_ISA_INSTRUCTION_H_
#define KRX_SRC_ISA_INSTRUCTION_H_

#include <cstdint>
#include <string>

#include "src/isa/opcode.h"
#include "src/isa/register.h"

namespace krx {

// Memory operand: [base + index*scale + disp], or rip-relative
// [%rip + disp], or absolute [disp]. `symbol` (when >= 0) marks an
// assembler-resolved reference whose displacement is patched at link time.
struct MemOperand {
  Reg base = Reg::kNone;
  Reg index = Reg::kNone;
  uint8_t scale = 1;  // 1, 2, 4 or 8
  int64_t disp = 0;
  bool rip_relative = false;
  int32_t symbol = -1;

  bool has_base() const { return base != Reg::kNone; }
  bool has_index() const { return index != Reg::kNone; }
  bool is_absolute() const { return !has_base() && !has_index() && !rip_relative; }

  // "Safe read" in the paper's sense (§5.1.2): the effective address is
  // fully encoded in the instruction and cannot be influenced at runtime.
  bool IsSafeAddress() const { return rip_relative || is_absolute(); }

  // Plain (%rsp) or disp(%rsp) access: exempt from range checks, guarded by
  // the .krx_phantom section instead (§5.1.2 "Stack Reads").
  bool IsPlainRspAccess() const { return base == Reg::kRsp && !has_index(); }

  static MemOperand Base(Reg b, int64_t d = 0) { return MemOperand{b, Reg::kNone, 1, d, false, -1}; }
  static MemOperand BaseIndex(Reg b, Reg i, uint8_t s, int64_t d = 0) {
    return MemOperand{b, i, s, d, false, -1};
  }
  static MemOperand RipRel(int64_t d) { return MemOperand{Reg::kNone, Reg::kNone, 1, d, true, -1}; }
  static MemOperand RipRelSym(int32_t sym) {
    return MemOperand{Reg::kNone, Reg::kNone, 1, 0, true, sym};
  }
  static MemOperand Absolute(int64_t addr) {
    return MemOperand{Reg::kNone, Reg::kNone, 1, addr, false, -1};
  }

  bool operator==(const MemOperand& o) const = default;
};

// Provenance of an instruction: which tool emitted it. Used by the
// statistics reporting and by tests asserting that phantom code is never
// executed on benign paths.
enum class InstOrigin : uint8_t {
  kOriginal = 0,     // kernel code as compiled
  kRangeCheck,       // kR^X-SFI / kR^X-MPX range check
  kDiversifier,      // connector jmps inserted by code block permutation
  kPhantomBlock,     // int3 padding blocks
  kPhantomInst,      // decoy-scheme phantom instruction (embedded tripwire)
  kRaProtection,     // return-address encryption / decoy instrumentation
};

struct Instruction {
  Opcode op = Opcode::kNop;
  Cond cond = Cond::kE;
  Reg r1 = Reg::kNone;
  Reg r2 = Reg::kNone;
  int64_t imm = 0;
  MemOperand mem;
  bool rep = false;

  // IR-level operands: intra-function branch target (block id) and
  // inter-object symbol target (symbol table index). Exactly one of these is
  // meaningful for branch/call instructions before assembly; after assembly
  // the encoded rel32 takes over.
  int32_t target_block = -1;
  int32_t target_symbol = -1;

  // Instruction-level local labels, used by the return-address decoy scheme:
  // `inst_label` names this instruction; a rip-relative mem operand with
  // `mem_label >= 0` resolves to (address of the instruction carrying that
  // label) + mem_label_byte_off. Labels travel with the instruction across
  // code-block slicing and permutation.
  int32_t inst_label = -1;
  int32_t mem_label = -1;
  int32_t mem_label_byte_off = 0;

  InstOrigin origin = InstOrigin::kOriginal;

  // ---- Factories ----
  static Instruction Nop() { return Op(Opcode::kNop); }
  static Instruction Hlt() { return Op(Opcode::kHlt); }
  static Instruction Int3() { return Op(Opcode::kInt3); }
  static Instruction Ud2() { return Op(Opcode::kUd2); }

  static Instruction MovRR(Reg dst, Reg src) { return RR(Opcode::kMovRR, dst, src); }
  static Instruction MovRI(Reg dst, int64_t v) { return RI(Opcode::kMovRI, dst, v); }
  static Instruction Load(Reg dst, MemOperand m) { return RM(Opcode::kLoad, dst, m); }
  static Instruction Store(MemOperand m, Reg src) { return RM(Opcode::kStore, src, m); }
  static Instruction StoreImm(MemOperand m, int64_t v) {
    Instruction i = Op(Opcode::kStoreImm);
    i.mem = m;
    i.imm = v;
    return i;
  }
  static Instruction Lea(Reg dst, MemOperand m) { return RM(Opcode::kLea, dst, m); }
  static Instruction PushR(Reg r) { return R(Opcode::kPushR, r); }
  static Instruction PopR(Reg r) { return R(Opcode::kPopR, r); }
  static Instruction Pushfq() { return Op(Opcode::kPushfq); }
  static Instruction Popfq() { return Op(Opcode::kPopfq); }

  static Instruction AddRR(Reg d, Reg s) { return RR(Opcode::kAddRR, d, s); }
  static Instruction AddRI(Reg d, int64_t v) { return RI(Opcode::kAddRI, d, v); }
  static Instruction SubRR(Reg d, Reg s) { return RR(Opcode::kSubRR, d, s); }
  static Instruction SubRI(Reg d, int64_t v) { return RI(Opcode::kSubRI, d, v); }
  static Instruction AndRR(Reg d, Reg s) { return RR(Opcode::kAndRR, d, s); }
  static Instruction AndRI(Reg d, int64_t v) { return RI(Opcode::kAndRI, d, v); }
  static Instruction OrRR(Reg d, Reg s) { return RR(Opcode::kOrRR, d, s); }
  static Instruction OrRI(Reg d, int64_t v) { return RI(Opcode::kOrRI, d, v); }
  static Instruction XorRR(Reg d, Reg s) { return RR(Opcode::kXorRR, d, s); }
  static Instruction XorRI(Reg d, int64_t v) { return RI(Opcode::kXorRI, d, v); }
  static Instruction ShlRI(Reg d, int64_t v) { return RI(Opcode::kShlRI, d, v); }
  static Instruction ShrRI(Reg d, int64_t v) { return RI(Opcode::kShrRI, d, v); }
  static Instruction ImulRR(Reg d, Reg s) { return RR(Opcode::kImulRR, d, s); }
  static Instruction CmpRR(Reg a, Reg b) { return RR(Opcode::kCmpRR, a, b); }
  static Instruction CmpRI(Reg a, int64_t v) { return RI(Opcode::kCmpRI, a, v); }
  static Instruction TestRR(Reg a, Reg b) { return RR(Opcode::kTestRR, a, b); }

  static Instruction AddRM(Reg d, MemOperand m) { return RM(Opcode::kAddRM, d, m); }
  static Instruction CmpRM(Reg a, MemOperand m) { return RM(Opcode::kCmpRM, a, m); }
  static Instruction CmpMI(MemOperand m, int64_t v) {
    Instruction i = Op(Opcode::kCmpMI);
    i.mem = m;
    i.imm = v;
    return i;
  }
  static Instruction XorMR(MemOperand m, Reg s) { return RM(Opcode::kXorMR, s, m); }

  static Instruction JmpBlock(int32_t block) {
    Instruction i = Op(Opcode::kJmpRel);
    i.target_block = block;
    return i;
  }
  static Instruction JccBlock(Cond c, int32_t block) {
    Instruction i = Op(Opcode::kJcc);
    i.cond = c;
    i.target_block = block;
    return i;
  }
  static Instruction JmpSym(int32_t sym) {  // tail call / cross-function jump
    Instruction i = Op(Opcode::kJmpRel);
    i.target_symbol = sym;
    return i;
  }
  static Instruction JmpR(Reg r) { return R(Opcode::kJmpR, r); }
  static Instruction JmpM(MemOperand m) {
    Instruction i = Op(Opcode::kJmpM);
    i.mem = m;
    return i;
  }
  static Instruction CallSym(int32_t sym) {
    Instruction i = Op(Opcode::kCallRel);
    i.target_symbol = sym;
    return i;
  }
  static Instruction CallR(Reg r) { return R(Opcode::kCallR, r); }
  static Instruction CallM(MemOperand m) {
    Instruction i = Op(Opcode::kCallM);
    i.mem = m;
    return i;
  }
  static Instruction Ret() { return Op(Opcode::kRet); }

  static Instruction Movsq(bool rep_prefix = false) { return Str(Opcode::kMovsq, rep_prefix); }
  static Instruction Lodsq(bool rep_prefix = false) { return Str(Opcode::kLodsq, rep_prefix); }
  static Instruction Stosq(bool rep_prefix = false) { return Str(Opcode::kStosq, rep_prefix); }
  static Instruction Cmpsq(bool rep_prefix = false) { return Str(Opcode::kCmpsq, rep_prefix); }
  static Instruction Scasq(bool rep_prefix = false) { return Str(Opcode::kScasq, rep_prefix); }

  static Instruction Bndcu(MemOperand m) {
    Instruction i = Op(Opcode::kBndcu);
    i.mem = m;
    return i;
  }
  static Instruction LoadBnd0(int64_t ub) { return RI(Opcode::kLoadBnd0, Reg::kNone, ub); }

  static Instruction Syscall() { return Op(Opcode::kSyscall); }
  static Instruction Sysret() { return Op(Opcode::kSysret); }
  static Instruction Wrmsr() { return Op(Opcode::kWrmsr); }

  static Instruction SpecFence() { return Op(Opcode::kSpecFence); }
  // Branchless clamp: r <- (r >u limit) ? 0 : r. Writes no flags.
  static Instruction MaskRI(Reg r, int64_t limit) { return RI(Opcode::kMaskRI, r, limit); }

  // ---- Instance-level properties ----

  bool ReadsMemory() const { return OpcodeInfoOf(op).Has(OpcodeInfo::kReadsMemory); }
  bool WritesMemory() const { return OpcodeInfoOf(op).Has(OpcodeInfo::kWritesMemory); }
  bool WritesFlags() const { return OpcodeInfoOf(op).Has(OpcodeInfo::kWritesFlags); }
  bool ReadsFlags() const {
    if (OpcodeInfoOf(op).Has(OpcodeInfo::kReadsFlags)) {
      return true;
    }
    // rep cmps/scas consult ZF for loop termination.
    return rep && (op == Opcode::kCmpsq || op == Opcode::kScasq);
  }
  bool IsTerminator() const { return OpcodeInfoOf(op).Has(OpcodeInfo::kTerminator); }
  bool IsCall() const { return OpcodeInfoOf(op).IsCall(); }
  bool IsString() const { return OpcodeInfoOf(op).Has(OpcodeInfo::kString); }
  bool IsRangeCheck() const { return origin == InstOrigin::kRangeCheck; }

  // For string reads: the register the paper's scheme range-checks (%rsi,
  // except scas which reads through %rdi). kNone for non-string opcodes.
  Reg StringReadBase() const {
    switch (op) {
      case Opcode::kMovsq:
      case Opcode::kLodsq:
      case Opcode::kCmpsq:
        return Reg::kRsi;
      case Opcode::kScasq:
        return Reg::kRdi;
      default:
        return Reg::kNone;
    }
  }

  // True if this instruction's data-memory read goes through an explicit
  // MemOperand (vs. the implicit string-op registers).
  bool HasExplicitMemRead() const { return ReadsMemory() && !IsString(); }

  bool operator==(const Instruction& o) const {
    return op == o.op && cond == o.cond && r1 == o.r1 && r2 == o.r2 && imm == o.imm &&
           mem == o.mem && rep == o.rep && target_block == o.target_block &&
           target_symbol == o.target_symbol;
  }

 private:
  static Instruction Op(Opcode o) {
    Instruction i;
    i.op = o;
    return i;
  }
  static Instruction R(Opcode o, Reg r) {
    Instruction i = Op(o);
    i.r1 = r;
    return i;
  }
  static Instruction RR(Opcode o, Reg a, Reg b) {
    Instruction i = Op(o);
    i.r1 = a;
    i.r2 = b;
    return i;
  }
  static Instruction RI(Opcode o, Reg a, int64_t v) {
    Instruction i = Op(o);
    i.r1 = a;
    i.imm = v;
    return i;
  }
  static Instruction RM(Opcode o, Reg a, MemOperand m) {
    Instruction i = Op(o);
    i.r1 = a;
    i.mem = m;
    return i;
  }
  static Instruction Str(Opcode o, bool rep_prefix) {
    Instruction i = Op(o);
    i.rep = rep_prefix;
    return i;
  }
};

// Registers a memory operand's address is computed from.
inline constexpr RegMask MemRegMask(const MemOperand& mem) {
  return RegBit(mem.base) | RegBit(mem.index);
}

// Registers read / written by an instruction (excluding %rflags, which has
// its own queries, and %rip), derived from its opcode's row.
RegMask InstructionRegReads(const Instruction& inst);
RegMask InstructionRegWrites(const Instruction& inst);

// AT&T-flavoured rendering, e.g. "mov 0x140(%rsi),%rcx".
std::string FormatInstruction(const Instruction& inst);
std::string FormatMemOperand(const MemOperand& mem);

}  // namespace krx

#endif  // KRX_SRC_ISA_INSTRUCTION_H_
