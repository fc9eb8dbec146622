// Configuration of the kR^X instrumentation pipeline — the reproduction's
// equivalent of the krx/kaslr GCC plugin knobs (§6).
#ifndef KRX_SRC_PLUGIN_PASS_CONFIG_H_
#define KRX_SRC_PLUGIN_PASS_CONFIG_H_

#include <compare>
#include <cstdint>
#include <set>
#include <string>

namespace krx {

// R^X enforcement flavour and optimization level (§5.1.2, §5.1.3).
enum class SfiLevel : uint8_t {
  kNone = 0,
  kO0,  // [pushfq; lea; cmp; ja; popfq] around every unsafe read
  kO1,  // + pushfq/popfq elimination via %rflags liveness
  kO2,  // + lea elimination for base+disp operands
  kO3,  // + cmp/ja coalescing (maximum optimization; plugin default)
  // Reproduction extension past the paper's O3: dominance/value-range based
  // cross-block check elision plus loop-invariant check hoisting into
  // preheaders with a widened bound (src/ir/analysis). Every elision is
  // independently re-proven by the post-link verifier's interval-domain
  // abstract interpreter (src/verify/confinement.cc).
  kO4,
};

// Return-address protection scheme (§5.2.2).
enum class RaScheme : uint8_t {
  kNone = 0,
  kEncrypt,  // X: per-function xkey, XOR at prologue/epilogue
  kDecoy,    // D: tripwire decoys next to saved return addresses
};

// Speculation-hardening variant applied to the emitted range checks
// (reproduction extension; see src/spec). Architectural range checks stop
// an architectural adversary but a mispredicted check branch still lets a
// wrong-path load leak transiently — these close that window.
enum class SpecMitigation : uint8_t {
  kNone = 0,
  // lfence (kSpecFence) immediately after every emitted check: the fence
  // kills the speculative window before the guarded read can issue.
  kBarrier,
  // Branchless clamped addressing (kMaskRI) instead of the cmp/ja or bndcu
  // check: no branch, no misprediction, no window. An out-of-range address
  // clamps to 0 instead of reaching the violation handler.
  kMask,
};

struct ProtectionConfig {
  SfiLevel sfi = SfiLevel::kNone;
  bool mpx = false;          // replace SFI range checks with bndcu
  bool diversify = false;    // fine-grained KASLR (function + block permutation)
  // Standard ("coarse") KASLR: slide the whole image by a random page
  // offset, leaving the internal layout intact. The §1/§2 baseline that a
  // single leaked code pointer defeats.
  bool coarse_kaslr = false;
  RaScheme ra = RaScheme::kNone;
  // §5.3's suggested complement: per-function permutation of the renameable
  // register pool, foiling call-preceded gadget chaining (extension; see
  // src/plugin/reg_rand_pass.h for the contract).
  bool randomize_registers = false;
  // Speculation hardening of the emitted checks (spec-barrier / spec-mask
  // config axes). Only meaningful when sfi or mpx emits checks.
  SpecMitigation spec = SpecMitigation::kNone;
  int entropy_bits_k = 30;   // per-routine randomization entropy target
  uint64_t seed = 0x6b525852ULL;  // deterministic diversification seed ("kRXR")

  // Functions excluded from R^X instrumentation — the reproduction's
  // analogue of the cloned get_next/peek_next/memcpy/... routines that
  // ftrace, KProbes and the module loader use to legitimately read code
  // (§6 "Legitimate Code Reads").
  std::set<std::string> exempt_functions;

  static ProtectionConfig Vanilla() { return ProtectionConfig{}; }

  // Full-protection presets used throughout the benchmarks.
  static ProtectionConfig SfiOnly(SfiLevel level) {
    ProtectionConfig c;
    c.sfi = level;
    return c;
  }
  static ProtectionConfig MpxOnly() {
    ProtectionConfig c;
    c.sfi = SfiLevel::kO3;
    c.mpx = true;
    return c;
  }
  // SFI at the plugin-default level with speculation-hardened checks — the
  // spec-barrier / spec-mask config axes of the benchmarks.
  static ProtectionConfig SpecHardened(SpecMitigation mitigation) {
    ProtectionConfig c;
    c.sfi = SfiLevel::kO3;
    c.spec = mitigation;
    return c;
  }
  static ProtectionConfig DiversifyOnly(RaScheme ra_scheme, uint64_t seed_value) {
    ProtectionConfig c;
    c.diversify = true;
    c.ra = ra_scheme;
    c.seed = seed_value;
    return c;
  }
  static ProtectionConfig Full(bool with_mpx, RaScheme ra_scheme, uint64_t seed_value) {
    ProtectionConfig c;
    c.sfi = SfiLevel::kO3;
    c.mpx = with_mpx;
    c.diversify = true;
    c.ra = ra_scheme;
    c.seed = seed_value;
    return c;
  }

  bool HasRangeChecks() const { return sfi != SfiLevel::kNone; }

  // Field by field, so a knob added later is compared (and keys the kernel
  // cache, src/fleet/kernel_cache.h) without further code.
  auto operator<=>(const ProtectionConfig&) const = default;
};

}  // namespace krx

#endif  // KRX_SRC_PLUGIN_PASS_CONFIG_H_
