#include "src/isa/encoding.h"

#include <cstring>

namespace krx {
namespace {

// Memory operand flag byte layout.
constexpr uint8_t kMemHasBase = 1u << 0;
constexpr uint8_t kMemHasIndex = 1u << 1;
constexpr uint8_t kMemRipRel = 1u << 2;
constexpr uint8_t kMemScaleShift = 3;  // bits 3..4: log2(scale)
constexpr uint8_t kMemScaleMask = 3u << kMemScaleShift;
constexpr uint8_t kMemValidMask = kMemHasBase | kMemHasIndex | kMemRipRel | kMemScaleMask;

uint8_t ScaleLog2(uint8_t scale) {
  switch (scale) {
    case 1: return 0;
    case 2: return 1;
    case 4: return 2;
    case 8: return 3;
  }
  KRX_CHECK(false && "invalid scale");
  return 0;
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void EncodeMem(const MemOperand& mem, std::vector<uint8_t>& out) {
  KRX_CHECK(mem.symbol < 0 && "unresolved symbol reference at encode time");
  uint8_t flags = 0;
  if (mem.has_base()) {
    flags |= kMemHasBase;
  }
  if (mem.has_index()) {
    flags |= kMemHasIndex;
  }
  if (mem.rip_relative) {
    flags |= kMemRipRel;
  }
  flags |= static_cast<uint8_t>(ScaleLog2(mem.scale) << kMemScaleShift);
  out.push_back(flags);
  if (mem.has_base() || mem.has_index()) {
    uint8_t b = mem.has_base() ? RegIndex(mem.base) : 0;
    uint8_t i = mem.has_index() ? RegIndex(mem.index) : 0;
    out.push_back(static_cast<uint8_t>((b << 4) | i));
  }
  if (mem.is_absolute()) {
    PutU64(out, static_cast<uint64_t>(mem.disp));  // Absolute: full 64-bit address.
  } else {
    // disp32, as under -mcmodel=kernel.
    KRX_CHECK(mem.disp >= INT32_MIN && mem.disp <= INT32_MAX);
    PutU32(out, static_cast<uint32_t>(static_cast<int32_t>(mem.disp)));
  }
}

size_t MemEncodedSize(const MemOperand& mem) {
  size_t n = 1;  // flags
  if (mem.has_base() || mem.has_index()) {
    n += 1;
  }
  n += mem.is_absolute() ? 8 : 4;
  return n;
}

struct Reader {
  const uint8_t* bytes;
  size_t len;
  size_t pos;

  bool Take(uint8_t* v) {
    if (pos >= len) {
      return false;
    }
    *v = bytes[pos++];
    return true;
  }
  bool TakeU32(uint32_t* v) {
    if (pos + 4 > len) {
      return false;
    }
    std::memcpy(v, bytes + pos, 4);
    pos += 4;
    return true;
  }
  bool TakeU64(uint64_t* v) {
    if (pos + 8 > len) {
      return false;
    }
    std::memcpy(v, bytes + pos, 8);
    pos += 8;
    return true;
  }
};

// Decode outcome for memory operands: distinguishing truncation from
// malformed bits matters to the CPU, which must turn a truncated fetch at
// an unmapped page boundary into a #PF on the next page, not a #UD.
enum class MemDecode { kOk, kTruncated, kInvalid };

MemDecode DecodeMem(Reader& r, MemOperand* mem) {
  uint8_t flags = 0;
  if (!r.Take(&flags)) {
    return MemDecode::kTruncated;
  }
  if ((flags & ~kMemValidMask) != 0) {
    return MemDecode::kInvalid;
  }
  bool has_base = (flags & kMemHasBase) != 0;
  bool has_index = (flags & kMemHasIndex) != 0;
  mem->rip_relative = (flags & kMemRipRel) != 0;
  if (mem->rip_relative && (has_base || has_index)) {
    return MemDecode::kInvalid;
  }
  mem->scale = static_cast<uint8_t>(1u << ((flags & kMemScaleMask) >> kMemScaleShift));
  mem->base = Reg::kNone;
  mem->index = Reg::kNone;
  if (has_base || has_index) {
    uint8_t regs = 0;
    if (!r.Take(&regs)) {
      return MemDecode::kTruncated;
    }
    if (has_base) {
      mem->base = static_cast<Reg>(regs >> 4);
    }
    if (has_index) {
      mem->index = static_cast<Reg>(regs & 0xF);
    }
  }
  if (!has_base && !has_index && !mem->rip_relative) {
    uint64_t abs = 0;
    if (!r.TakeU64(&abs)) {
      return MemDecode::kTruncated;
    }
    mem->disp = static_cast<int64_t>(abs);
  } else {
    uint32_t d = 0;
    if (!r.TakeU32(&d)) {
      return MemDecode::kTruncated;
    }
    mem->disp = static_cast<int32_t>(d);
  }
  mem->symbol = -1;
  return MemDecode::kOk;
}

Status MemDecodeStatus(MemDecode d) {
  return d == MemDecode::kTruncated ? OutOfRangeError("truncated mem operand")
                                    : InvalidArgumentError("invalid mem operand");
}

}  // namespace

void EncodeInstruction(const Instruction& inst, std::vector<uint8_t>& out) {
  KRX_CHECK(inst.target_block < 0 && "unresolved block target at encode time");
  const Format format = OpcodeInfoOf(inst.op).format;
  KRX_CHECK((inst.target_symbol < 0 || format == Format::kRel32) ||
            !"unresolved symbol target at encode time");
  out.push_back(static_cast<uint8_t>(inst.op));
  switch (format) {
    case Format::kNone:
      break;
    case Format::kR:
      out.push_back(RegIndex(inst.r1));
      break;
    case Format::kRR:
      out.push_back(static_cast<uint8_t>((RegIndex(inst.r1) << 4) | RegIndex(inst.r2)));
      break;
    case Format::kRI64:
      out.push_back(RegIndex(inst.r1));
      PutU64(out, static_cast<uint64_t>(inst.imm));
      break;
    case Format::kRI32:
      out.push_back(RegIndex(inst.r1));
      KRX_CHECK(inst.imm >= INT32_MIN && inst.imm <= INT32_MAX);
      PutU32(out, static_cast<uint32_t>(static_cast<int32_t>(inst.imm)));
      break;
    case Format::kRM:
      out.push_back(RegIndex(inst.r1));
      EncodeMem(inst.mem, out);
      break;
    case Format::kMI32:
      EncodeMem(inst.mem, out);
      KRX_CHECK(inst.imm >= INT32_MIN && inst.imm <= INT32_MAX);
      PutU32(out, static_cast<uint32_t>(static_cast<int32_t>(inst.imm)));
      break;
    case Format::kM:
      EncodeMem(inst.mem, out);
      break;
    case Format::kRel32:
      KRX_CHECK(inst.target_symbol < 0 && "relocation must be applied before encoding");
      KRX_CHECK(inst.imm >= INT32_MIN && inst.imm <= INT32_MAX);
      PutU32(out, static_cast<uint32_t>(static_cast<int32_t>(inst.imm)));
      break;
    case Format::kJcc:
      out.push_back(static_cast<uint8_t>(inst.cond));
      KRX_CHECK(inst.imm >= INT32_MIN && inst.imm <= INT32_MAX);
      PutU32(out, static_cast<uint32_t>(static_cast<int32_t>(inst.imm)));
      break;
    case Format::kStr:
      out.push_back(inst.rep ? 1 : 0);
      break;
    case Format::kI64:
      PutU64(out, static_cast<uint64_t>(inst.imm));
      break;
  }
}

uint8_t EncodedSize(const Instruction& inst) {
  switch (OpcodeInfoOf(inst.op).format) {
    case Format::kNone:
      return 1;
    case Format::kR:
      return 2;
    case Format::kRR:
      return 2;
    case Format::kRI64:
      return 10;
    case Format::kRI32:
      return 6;
    case Format::kRM:
      return static_cast<uint8_t>(2 + MemEncodedSize(inst.mem));
    case Format::kMI32:
      return static_cast<uint8_t>(1 + MemEncodedSize(inst.mem) + 4);
    case Format::kM:
      return static_cast<uint8_t>(1 + MemEncodedSize(inst.mem));
    case Format::kRel32:
      return 5;
    case Format::kJcc:
      return 6;
    case Format::kStr:
      return 2;
    case Format::kI64:
      return 9;
  }
  return 1;
}

Result<Decoded> DecodeInstruction(const uint8_t* bytes, size_t len, size_t offset) {
  if (offset >= len) {
    return OutOfRangeError("decode past end");
  }
  Reader r{bytes, len, offset};
  uint8_t opb = 0;
  r.Take(&opb);
  if (opb >= static_cast<uint8_t>(Opcode::kNumOpcodes)) {
    return InvalidArgumentError("invalid opcode byte");
  }
  Decoded d;
  d.inst.op = static_cast<Opcode>(opb);
  switch (OpcodeInfoOf(d.inst.op).format) {
    case Format::kNone:
      break;
    case Format::kR: {
      uint8_t reg = 0;
      if (!r.Take(&reg)) {
        return OutOfRangeError("truncated");
      }
      if (reg >= kNumGpRegs) {
        return InvalidArgumentError("invalid register");
      }
      d.inst.r1 = static_cast<Reg>(reg);
      break;
    }
    case Format::kRR: {
      uint8_t regs = 0;
      if (!r.Take(&regs)) {
        return OutOfRangeError("truncated");
      }
      d.inst.r1 = static_cast<Reg>(regs >> 4);
      d.inst.r2 = static_cast<Reg>(regs & 0xF);
      break;
    }
    case Format::kRI64: {
      uint8_t reg = 0;
      uint64_t v = 0;
      if (!r.Take(&reg) || !r.TakeU64(&v)) {
        return OutOfRangeError("truncated");
      }
      if (reg >= kNumGpRegs) {
        return InvalidArgumentError("invalid register");
      }
      d.inst.r1 = static_cast<Reg>(reg);
      d.inst.imm = static_cast<int64_t>(v);
      break;
    }
    case Format::kRI32: {
      uint8_t reg = 0;
      uint32_t v = 0;
      if (!r.Take(&reg) || !r.TakeU32(&v)) {
        return OutOfRangeError("truncated");
      }
      if (reg >= kNumGpRegs) {
        return InvalidArgumentError("invalid register");
      }
      d.inst.r1 = static_cast<Reg>(reg);
      d.inst.imm = static_cast<int32_t>(v);
      break;
    }
    case Format::kRM: {
      uint8_t reg = 0;
      if (!r.Take(&reg)) {
        return OutOfRangeError("truncated");
      }
      if (reg >= kNumGpRegs) {
        return InvalidArgumentError("invalid register");
      }
      d.inst.r1 = static_cast<Reg>(reg);
      if (MemDecode md = DecodeMem(r, &d.inst.mem); md != MemDecode::kOk) {
        return MemDecodeStatus(md);
      }
      break;
    }
    case Format::kMI32: {
      if (MemDecode md = DecodeMem(r, &d.inst.mem); md != MemDecode::kOk) {
        return MemDecodeStatus(md);
      }
      uint32_t v = 0;
      if (!r.TakeU32(&v)) {
        return OutOfRangeError("truncated");
      }
      d.inst.imm = static_cast<int32_t>(v);
      break;
    }
    case Format::kM: {
      if (MemDecode md = DecodeMem(r, &d.inst.mem); md != MemDecode::kOk) {
        return MemDecodeStatus(md);
      }
      break;
    }
    case Format::kRel32: {
      uint32_t v = 0;
      if (!r.TakeU32(&v)) {
        return OutOfRangeError("truncated");
      }
      d.inst.imm = static_cast<int32_t>(v);
      break;
    }
    case Format::kJcc: {
      uint8_t cond = 0;
      uint32_t v = 0;
      if (!r.Take(&cond) || !r.TakeU32(&v)) {
        return OutOfRangeError("truncated");
      }
      if (cond > static_cast<uint8_t>(Cond::kNs)) {
        return InvalidArgumentError("invalid condition");
      }
      d.inst.cond = static_cast<Cond>(cond);
      d.inst.imm = static_cast<int32_t>(v);
      break;
    }
    case Format::kStr: {
      uint8_t rep = 0;
      if (!r.Take(&rep)) {
        return OutOfRangeError("truncated");
      }
      if (rep > 1) {
        return InvalidArgumentError("invalid rep byte");
      }
      d.inst.rep = rep == 1;
      break;
    }
    case Format::kI64: {
      uint64_t v = 0;
      if (!r.TakeU64(&v)) {
        return OutOfRangeError("truncated");
      }
      d.inst.imm = static_cast<int64_t>(v);
      break;
    }
  }
  d.size = static_cast<uint8_t>(r.pos - offset);
  return d;
}

}  // namespace krx
