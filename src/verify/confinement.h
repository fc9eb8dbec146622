// Read-confinement verification: proves that every memory read in a
// function's final bytes is justified under the kR^X R^X contract (§5.1.2).
//
// A read is justified if it is (a) a safe address (rip-relative/absolute),
// (b) a plain (%rsp)-relative access (guarded by .krx_phantom; the
// displacement bound is checked image-wide), or (c) dominated on every path
// by a range check — cmp/ja against _krx_edata or a bndcu — that covers its
// displacement with no intervening redefinition, spill or call of the base
// register.
//
// The availability analysis is a small abstract interpreter over the
// decoded CFG with an interval domain per register (`cover[r] = D` means
// r <= edata - D on every path) — a greatest fixpoint with intersection
// joins at merge points, so facts survive loop back edges, plus a
// congruence transfer for mov/add/lea register derivations. That makes it
// strictly stronger than the instrumentation passes' own O3/O4 analyses
// (src/plugin/sfi_pass.cc): every check elision the pass performs —
// including O4's cross-block elision and loop hoisting — must be
// independently re-provable here from the final bytes alone, or the build
// fails post-link verification.
#ifndef KRX_SRC_VERIFY_CONFINEMENT_H_
#define KRX_SRC_VERIFY_CONFINEMENT_H_

#include <cstdint>
#include <vector>

#include "src/plugin/pass_config.h"
#include "src/verify/decoded_function.h"
#include "src/verify/report.h"

namespace krx {

// Byte-level callee clobber masks (bit RegIndex(r)) per function entry, as
// a flat table sorted by entry address.
struct CalleeClobberTable {
  struct Entry {
    uint64_t address = 0;
    uint16_t mask = 0;
  };
  std::vector<Entry> entries;

  // Mask of the function entered at `address`, or nullptr if none is
  // summarized.
  const uint16_t* Find(uint64_t address) const;
};

struct ConfinementParams {
  uint64_t edata = 0;            // _krx_edata the checks must compare against
  uint64_t handler_address = 0;  // resolved krx_handler entry (0 if absent)
  uint64_t guard_size = 0;       // mapped .krx_phantom size (0 if absent)
  // Byte-level callee clobber masks (from ComputeByteCalleeClobbers). When
  // present, a direct
  // call to a summarized entry kills only the masked registers instead of
  // every fact — the independent re-proof of the O4 pass's
  // CalleeClobberSummary-based elisions. Null keeps the classic
  // kill-everything-at-calls rule.
  const CalleeClobberTable* callee_clobbers = nullptr;
  // Speculation-hardening contract the bytes must additionally satisfy:
  // kBarrier demands an lfence immediately after every recognized check
  // (SPEC_BARRIER); kMask demands that no speculation-prone check (cmp/ja
  // to the handler, bndcu) survives at all (SPEC_MASK) — reads must be
  // justified by kMaskRI clamps instead.
  SpecMitigation mitigation = SpecMitigation::kNone;
};

void CheckReadConfinement(const DecodedFunction& fn, const ConfinementParams& params,
                          VerifyReport* report);

// Byte-level callee-clobber masks for the function symbols `functions` of
// `image` (exempt functions included — their bodies still execute as
// callees), from a linear sweep of each function's bytes: per entry
// address, the union over every instruction of the registers written, plus
// transitively the mask of every direct callee or out-of-function tail
// jump. Indirect calls/jumps and direct transfers to targets that are not
// the entry of a decodable function yield the all-registers mask. Calls to
// `handler_address` are excluded: the violation path never returns
// (call; hlt), so its effects cannot reach a returning path.
CalleeClobberTable ComputeByteCalleeClobbers(const KernelImage& image,
                                             const std::vector<const Symbol*>& functions,
                                             uint64_t handler_address);

}  // namespace krx

#endif  // KRX_SRC_VERIFY_CONFINEMENT_H_
