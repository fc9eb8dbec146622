// Predecoded basic-block cache — the trace-cache-style fast path of the
// krx64 interpreter.
//
// The uncached interpreter re-fetches and re-decodes the raw bytes of every
// retired instruction. The block cache decodes a straight-line run of
// instructions once (up to the first control transfer) and replays the
// predecoded micro-ops on every subsequent visit to the same %rip. Replay is
// bit-identical to single-stepping: execution, cost accounting and exception
// semantics go through the same Execute path; only the redundant
// fetch+decode work is elided.
//
// Invalidation contract: every entry is tagged with the KernelImage
// text-generation counter observed at decode time. The image bumps that
// counter on any event that can change fetched bytes or fetchability —
// host-side code pokes (module loader, fault injector, tests), section
// placement/removal (module load/unload), new executable mappings, and
// guest stores that land on a frame backing executable pages (self-modifying
// code through a physmap synonym). A generation mismatch flushes the cache
// wholesale on the next lookup; mid-block invalidation is handled by the
// interpreter, which re-checks the generation after every replayed store.
#ifndef KRX_SRC_CPU_BLOCK_CACHE_H_
#define KRX_SRC_CPU_BLOCK_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/isa/instruction.h"

namespace krx {

// One predecoded instruction: the decoded form plus its encoded length
// (needed to compute the fall-through %rip during replay).
struct PredecodedInst {
  Instruction inst;
  uint8_t size = 0;
};

// A straight-line run of predecoded instructions starting at `start`.
// Control-transfer instructions (and traps) only ever appear last.
struct DecodedBlock {
  uint64_t start = 0;
  std::vector<PredecodedInst> insts;
};

struct BlockCacheStats {
  uint64_t hits = 0;        // block lookups served from the cache
  uint64_t misses = 0;      // lookups that forced a fresh decode
  uint64_t flushes = 0;     // wholesale invalidations (generation changes)
  uint64_t decoded_insts = 0;   // instructions decoded into blocks
  uint64_t replayed_insts = 0;  // instructions executed from cached blocks
  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// Owned by a single Cpu (one cache per interpreter; no internal locking —
// cross-thread invalidation rides on the image's atomic generation counter).
class BlockCache {
 public:
  // Returns the cached block starting at `rip`, or nullptr on a miss. If
  // `generation` differs from the generation the cache was filled under,
  // every entry is dropped first (stale predecode must never replay).
  const DecodedBlock* Lookup(uint64_t rip, uint64_t generation);

  // Inserts a freshly decoded block (its instructions were decoded under
  // `generation`, as passed to the preceding Lookup) and returns it.
  const DecodedBlock* Insert(DecodedBlock block);

  void Flush();
  size_t blocks() const { return blocks_.size(); }
  const BlockCacheStats& stats() const { return stats_; }
  void CountReplayed(uint64_t n) { stats_.replayed_insts += n; }

 private:
  std::unordered_map<uint64_t, DecodedBlock> blocks_;
  uint64_t generation_ = 0;
  BlockCacheStats stats_;
};

// True for opcodes that must terminate a predecoded block: control
// transfers (the next %rip is data-dependent) and trap-like instructions.
inline bool EndsBlock(Opcode op) { return OpcodeInfoOf(op).flow != Flow::kNone; }

}  // namespace krx

#endif  // KRX_SRC_CPU_BLOCK_CACHE_H_
