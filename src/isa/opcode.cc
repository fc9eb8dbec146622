#include "src/isa/opcode.h"

#include <iterator>

namespace krx {
namespace {

// Row shorthand. Facts: Mr/Mw data memory read/write, Fr/Fw %rflags
// read/write, Te IR terminator, St string op, Pr privileged, R1/W1 r1 read /
// written. Implicit registers: ax cx dx sp si di.
constexpr uint16_t Mr = OpcodeInfo::kReadsMemory;
constexpr uint16_t Mw = OpcodeInfo::kWritesMemory;
constexpr uint16_t Fr = OpcodeInfo::kReadsFlags;
constexpr uint16_t Fw = OpcodeInfo::kWritesFlags;
constexpr uint16_t Te = OpcodeInfo::kTerminator;
constexpr uint16_t St = OpcodeInfo::kString;
constexpr uint16_t Pr = OpcodeInfo::kPrivileged;
constexpr uint16_t R1 = OpcodeInfo::kReadsR1;
constexpr uint16_t W1 = OpcodeInfo::kWritesR1;
constexpr RegMask ax = RegBit(Reg::kRax);
constexpr RegMask cx = RegBit(Reg::kRcx);
constexpr RegMask dx = RegBit(Reg::kRdx);
constexpr RegMask sp = RegBit(Reg::kRsp);
constexpr RegMask si = RegBit(Reg::kRsi);
constexpr RegMask di = RegBit(Reg::kRdi);

using enum Opcode;

}  // namespace

// Some rows look like slips and are deliberate. Calls write %rsp but are
// not listed as reading it. sysret ends an IR block (Te) but falls through
// as far as the predecoder is concerned, while int3 ends a predecoded block
// (Flow::kTrap) but is not an IR terminator. kMaskRI writes no flags: the
// clamp is a conditional move, not a compare, which is what lets spec-mask
// drop the pushfq/popfq pair around every check.
constexpr OpcodeInfo kOpcodeTable[] = {
    // op        mnemonic   format          flow                 facts          reads    writes
    {kNop,       "nop",     Format::kNone,  Flow::kNone,         0,             0,       0},
    {kHlt,       "hlt",     Format::kNone,  Flow::kHalt,         Te,            0,       0},
    {kInt3,      "int3",    Format::kNone,  Flow::kTrap,         0,             0,       0},
    {kUd2,       "ud2",     Format::kNone,  Flow::kTrap,         Te,            0,       0},
    {kMovRR,     "mov",     Format::kRR,    Flow::kNone,         W1,            0,       0},
    {kMovRI,     "mov",     Format::kRI64,  Flow::kNone,         W1,            0,       0},
    {kLoad,      "mov",     Format::kRM,    Flow::kNone,         Mr | W1,       0,       0},
    {kStore,     "mov",     Format::kRM,    Flow::kNone,         Mw | R1,       0,       0},
    {kStoreImm,  "movl",    Format::kMI32,  Flow::kNone,         Mw,            0,       0},
    {kLea,       "lea",     Format::kRM,    Flow::kNone,         W1,            0,       0},
    {kPushR,     "push",    Format::kR,     Flow::kNone,         Mw | R1,       sp,      sp},
    {kPopR,      "pop",     Format::kR,     Flow::kNone,         W1,            sp,      sp},
    {kPushfq,    "pushfq",  Format::kNone,  Flow::kNone,         Mw | Fr,       sp,      sp},
    {kPopfq,     "popfq",   Format::kNone,  Flow::kNone,         Fw,            sp,      sp},
    {kAddRR,     "add",     Format::kRR,    Flow::kNone,         Fw | R1 | W1,  0,       0},
    {kAddRI,     "add",     Format::kRI32,  Flow::kNone,         Fw | R1 | W1,  0,       0},
    {kSubRR,     "sub",     Format::kRR,    Flow::kNone,         Fw | R1 | W1,  0,       0},
    {kSubRI,     "sub",     Format::kRI32,  Flow::kNone,         Fw | R1 | W1,  0,       0},
    {kAndRR,     "and",     Format::kRR,    Flow::kNone,         Fw | R1 | W1,  0,       0},
    {kAndRI,     "and",     Format::kRI32,  Flow::kNone,         Fw | R1 | W1,  0,       0},
    {kOrRR,      "or",      Format::kRR,    Flow::kNone,         Fw | R1 | W1,  0,       0},
    {kOrRI,      "or",      Format::kRI32,  Flow::kNone,         Fw | R1 | W1,  0,       0},
    {kXorRR,     "xor",     Format::kRR,    Flow::kNone,         Fw | R1 | W1,  0,       0},
    {kXorRI,     "xor",     Format::kRI32,  Flow::kNone,         Fw | R1 | W1,  0,       0},
    {kShlRI,     "shl",     Format::kRI32,  Flow::kNone,         Fw | R1 | W1,  0,       0},
    {kShrRI,     "shr",     Format::kRI32,  Flow::kNone,         Fw | R1 | W1,  0,       0},
    {kImulRR,    "imul",    Format::kRR,    Flow::kNone,         Fw | R1 | W1,  0,       0},
    {kCmpRR,     "cmp",     Format::kRR,    Flow::kNone,         Fw | R1,       0,       0},
    {kCmpRI,     "cmp",     Format::kRI32,  Flow::kNone,         Fw | R1,       0,       0},
    {kTestRR,    "test",    Format::kRR,    Flow::kNone,         Fw | R1,       0,       0},
    {kAddRM,     "add",     Format::kRM,    Flow::kNone,         Mr | Fw | R1 | W1, 0,       0},
    {kCmpRM,     "cmp",     Format::kRM,    Flow::kNone,         Mr | Fw | R1,  0,       0},
    {kCmpMI,     "cmpl",    Format::kMI32,  Flow::kNone,         Mr | Fw,       0,       0},
    {kXorMR,     "xor",     Format::kRM,    Flow::kNone,         Mr | Mw | Fw | R1, 0,       0},
    {kJmpRel,    "jmp",     Format::kRel32, Flow::kJump,         Te,            0,       0},
    {kJcc,       "j",       Format::kJcc,   Flow::kBranch,       Fr,            0,       0},
    {kJmpR,      "jmp*",    Format::kR,     Flow::kIndirectJump, Te | R1,       0,       0},
    {kJmpM,      "jmp*",    Format::kM,     Flow::kIndirectJump, Mr | Te,       0,       0},
    {kCallRel,   "callq",   Format::kRel32, Flow::kCall,         Mw | Fw,       0,       sp},
    {kCallR,     "callq*",  Format::kR,     Flow::kIndirectCall, Mw | Fw | R1,  0,       sp},
    {kCallM,     "callq*",  Format::kM,     Flow::kIndirectCall, Mr | Mw | Fw,  0,       sp},
    {kRet,       "retq",    Format::kNone,  Flow::kRet,          Te,            sp,      sp},
    {kMovsq,     "movsq",   Format::kStr,   Flow::kNone,         Mr | Mw | St,  si | di, si | di},
    {kLodsq,     "lodsq",   Format::kStr,   Flow::kNone,         Mr | St,       si,      ax | si},
    {kStosq,     "stosq",   Format::kStr,   Flow::kNone,         Mw | St,       ax | di, di},
    {kCmpsq,     "cmpsq",   Format::kStr,   Flow::kNone,         Mr | Fw | St,  si | di, si | di},
    {kScasq,     "scasq",   Format::kStr,   Flow::kNone,         Mr | Fw | St,  ax | di, di},
    {kBndcu,     "bndcu",   Format::kM,     Flow::kNone,         0,             0,       0},
    {kLoadBnd0,  "bndmov",  Format::kI64,   Flow::kNone,         Pr,            0,       0},
    {kSyscall,   "syscall", Format::kNone,  Flow::kNone,         Pr,            0,       0},
    {kSysret,    "sysret",  Format::kNone,  Flow::kNone,         Te | Pr,       0,       0},
    {kWrmsr,     "wrmsr",   Format::kNone,  Flow::kNone,         Pr,            ax | cx | dx, 0},
    {kSpecFence, "lfence",  Format::kNone,  Flow::kNone,         0,             0,       0},
    {kMaskRI,    "mask",    Format::kRI32,  Flow::kNone,         R1 | W1,       0,       0},
};

static_assert(std::size(kOpcodeTable) == static_cast<size_t>(Opcode::kNumOpcodes),
              "one row per opcode");

constexpr bool RowsInEnumOrder() {
  for (size_t i = 0; i < std::size(kOpcodeTable); ++i) {
    if (static_cast<size_t>(kOpcodeTable[i].op) != i) {
      return false;
    }
  }
  return true;
}
static_assert(RowsInEnumOrder(), "kOpcodeTable[i] must describe Opcode(i)");

const char* CondName(Cond c) {
  switch (c) {
    case Cond::kE: return "e";
    case Cond::kNe: return "ne";
    case Cond::kA: return "a";
    case Cond::kAe: return "ae";
    case Cond::kB: return "b";
    case Cond::kBe: return "be";
    case Cond::kG: return "g";
    case Cond::kGe: return "ge";
    case Cond::kL: return "l";
    case Cond::kLe: return "le";
    case Cond::kS: return "s";
    case Cond::kNs: return "ns";
  }
  return "??";
}

}  // namespace krx
