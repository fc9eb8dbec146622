#include "src/isa/instruction.h"

#include <cinttypes>
#include <cstdio>

namespace krx {

RegMask InstructionRegReads(const Instruction& inst) {
  const OpcodeInfo& info = OpcodeInfoOf(inst.op);
  RegMask regs = info.implicit_reads;
  if (info.Has(OpcodeInfo::kReadsR1)) {
    regs |= RegBit(inst.r1);
  }
  if (info.format == Format::kRR) {
    regs |= RegBit(inst.r2);
  }
  if (FormatHasMem(info.format)) {
    regs |= MemRegMask(inst.mem);
  }
  if (inst.rep && info.Has(OpcodeInfo::kString)) {
    regs |= RegBit(Reg::kRcx);
  }
  return regs;
}

RegMask InstructionRegWrites(const Instruction& inst) {
  const OpcodeInfo& info = OpcodeInfoOf(inst.op);
  RegMask regs = info.implicit_writes;
  if (info.Has(OpcodeInfo::kWritesR1)) {
    regs |= RegBit(inst.r1);
  }
  if (inst.rep && info.Has(OpcodeInfo::kString)) {
    regs |= RegBit(Reg::kRcx);
  }
  return regs;
}

std::string FormatMemOperand(const MemOperand& mem) {
  char buf[96];
  if (mem.rip_relative) {
    if (mem.symbol >= 0) {
      std::snprintf(buf, sizeof(buf), "sym%d(%%rip)", mem.symbol);
    } else {
      std::snprintf(buf, sizeof(buf), "%" PRId64 "(%%rip)", mem.disp);
    }
    return buf;
  }
  if (mem.is_absolute()) {
    std::snprintf(buf, sizeof(buf), "0x%" PRIx64, static_cast<uint64_t>(mem.disp));
    return buf;
  }
  std::string out;
  if (mem.disp != 0) {
    std::snprintf(buf, sizeof(buf), "0x%" PRIx64, static_cast<uint64_t>(mem.disp));
    out += buf;
  }
  out += "(";
  if (mem.has_base()) {
    out += "%";
    out += RegName(mem.base);
  }
  if (mem.has_index()) {
    out += ",%";
    out += RegName(mem.index);
    std::snprintf(buf, sizeof(buf), ",%u", mem.scale);
    out += buf;
  }
  out += ")";
  return out;
}

std::string FormatInstruction(const Instruction& inst) {
  char buf[160];
  const OpcodeInfo& info = OpcodeInfoOf(inst.op);
  const char* name = info.mnemonic;
  switch (info.format) {
    case Format::kNone:
      return name;
    case Format::kR:
      std::snprintf(buf, sizeof(buf), "%s %%%s", name, RegName(inst.r1));
      return buf;
    case Format::kRR:
      std::snprintf(buf, sizeof(buf), "%s %%%s,%%%s", name, RegName(inst.r2), RegName(inst.r1));
      return buf;
    case Format::kRI64:
    case Format::kRI32:
      std::snprintf(buf, sizeof(buf), "%s $0x%" PRIx64 ",%%%s", name,
                    static_cast<uint64_t>(inst.imm), RegName(inst.r1));
      return buf;
    case Format::kRM:
      // AT&T order: the memory operand is the destination of a store.
      if (info.Has(OpcodeInfo::kWritesMemory)) {
        std::snprintf(buf, sizeof(buf), "%s %%%s,%s", name, RegName(inst.r1),
                      FormatMemOperand(inst.mem).c_str());
      } else {
        std::snprintf(buf, sizeof(buf), "%s %s,%%%s", name, FormatMemOperand(inst.mem).c_str(),
                      RegName(inst.r1));
      }
      return buf;
    case Format::kMI32:
      std::snprintf(buf, sizeof(buf), "%s $0x%" PRIx64 ",%s", name,
                    static_cast<uint64_t>(inst.imm), FormatMemOperand(inst.mem).c_str());
      return buf;
    case Format::kM:
      // bndcu checks against the implicit %bnd0; the others transfer control.
      std::snprintf(buf, sizeof(buf), inst.op == Opcode::kBndcu ? "%s %s,%%bnd0" : "%s %s", name,
                    FormatMemOperand(inst.mem).c_str());
      return buf;
    case Format::kRel32:
      if (inst.target_block >= 0) {
        std::snprintf(buf, sizeof(buf), "%s .B%d", name, inst.target_block);
      } else if (inst.target_symbol >= 0) {
        std::snprintf(buf, sizeof(buf), "%s sym%d", name, inst.target_symbol);
      } else {
        std::snprintf(buf, sizeof(buf), "%s %+" PRId64, name, inst.imm);
      }
      return buf;
    case Format::kJcc:
      if (inst.target_block >= 0) {
        std::snprintf(buf, sizeof(buf), "%s%s .B%d", name, CondName(inst.cond), inst.target_block);
      } else {
        std::snprintf(buf, sizeof(buf), "%s%s %+" PRId64, name, CondName(inst.cond), inst.imm);
      }
      return buf;
    case Format::kStr:
      return std::string(inst.rep ? "rep " : "") + name;
    case Format::kI64:
      std::snprintf(buf, sizeof(buf), "%s $0x%" PRIx64 ",%%bnd0", name,
                    static_cast<uint64_t>(inst.imm));
      return buf;
  }
  return "??";
}

}  // namespace krx
