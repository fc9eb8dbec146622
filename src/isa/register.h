// General-purpose register file of the krx64 simulated ISA.
//
// krx64 mirrors the x86-64 integer register file. The reproduction follows
// the paper's register conventions:
//   - %r11 is the scratch register used by kR^X-SFI range checks (lea target)
//     and by return-address encryption (xkey staging).
//   - %r10 is the predetermined scratch register through which call sites
//     pass the tripwire address under the return-address decoy scheme.
//   - %rsp-based reads with plain base+displacement addressing are exempt
//     from range checks (guarded by the .krx_phantom section instead).
//   - string instructions read through %rsi (scas through %rdi).
#ifndef KRX_SRC_ISA_REGISTER_H_
#define KRX_SRC_ISA_REGISTER_H_

#include <cstdint>

namespace krx {

enum class Reg : uint8_t {
  kRax = 0,
  kRcx = 1,
  kRdx = 2,
  kRbx = 3,
  kRsp = 4,
  kRbp = 5,
  kRsi = 6,
  kRdi = 7,
  kR8 = 8,
  kR9 = 9,
  kR10 = 10,
  kR11 = 11,
  kR12 = 12,
  kR13 = 13,
  kR14 = 14,
  kR15 = 15,
  kNone = 0xFF,
};

inline constexpr int kNumGpRegs = 16;

// Scratch registers reserved by the instrumentation (see file comment).
inline constexpr Reg kRangeCheckScratch = Reg::kR11;
inline constexpr Reg kDecoyScratch = Reg::kR10;

inline constexpr uint8_t RegIndex(Reg r) { return static_cast<uint8_t>(r); }

inline constexpr bool IsGpReg(Reg r) { return RegIndex(r) < kNumGpRegs; }

// A set of general-purpose registers: bit RegIndex(r) per member.
using RegMask = uint16_t;

// Bit RegIndex(r) for a general-purpose register, 0 for Reg::kNone.
inline constexpr RegMask RegBit(Reg r) {
  return IsGpReg(r) ? static_cast<RegMask>(1u << RegIndex(r)) : 0;
}

const char* RegName(Reg r);

}  // namespace krx

#endif  // KRX_SRC_ISA_REGISTER_H_
