// Bounded transient-execution semantics for krx64.
//
// kR^X's range checks (and the O4 elision ladder on top of them) are
// architecturally sound, but a Spectre-v1 adversary does not need the
// architectural path: a mispredicted conditional branch lets a wrong-path
// load read confined memory and leak the value through the data cache
// before the pipeline rolls back. This header holds the pieces the Cpu's
// speculation engine is built from:
//
//  - SpecConfig: per-Cpu knobs (off by default). The window is part of
//    the shared conditional-branch semantics, so it runs under every
//    execution engine.
//  - BranchPredictor: a trainable direct-mapped table of 2-bit saturating
//    counters. A misprediction opens a *window*: the Cpu simulates the
//    wrong path against shadow register/memory state for up to
//    `window_depth` instructions and then discards everything — except the
//    cache footprint.
//  - SideChannelObserver: the covert channel. Physical cache-line
//    addresses touched by wrong-path data accesses survive rollback here;
//    an attacker reconstructs secrets by probing line membership.
//  - SpecStats: cumulative per-Cpu counters surfaced as spec.* metrics.
//
// The window models *leakage*, not timing: wrong-path instructions retire
// no architectural state, no InstMix entries, and no deci-cycles, so a run
// with the window enabled is bit-identical (RunResult-wise) to the same
// run with it disabled. That invariant is what the fuzz-differential spec
// axis pins down.
#ifndef KRX_SRC_SPEC_SPEC_H_
#define KRX_SRC_SPEC_SPEC_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>

namespace krx {

// Per-Cpu speculation configuration (CpuOptions::spec).
struct SpecConfig {
  bool enabled = false;
  // Maximum wrong-path instructions simulated per misprediction window.
  // Skylake's ~224-entry ROB would correspond to a far deeper window; 32 is
  // enough to cover every gadget in the corpus while keeping windows cheap.
  uint32_t window_depth = 32;
};

// Direct-mapped table of 2-bit saturating counters (0/1 predict not-taken,
// 2/3 predict taken), indexed by a hash of the branch vaddr. Deliberately
// attacker-trainable: repeated same-direction executions of the victim's
// branch steer later predictions, exactly the property Spectre v1 abuses.
class BranchPredictor {
 public:
  static constexpr size_t kEntries = 1024;

  BranchPredictor() { Reset(); }

  bool PredictTaken(uint64_t branch_vaddr) const {
    return table_[IndexOf(branch_vaddr)] >= 2;
  }

  void Update(uint64_t branch_vaddr, bool taken) {
    uint8_t& c = table_[IndexOf(branch_vaddr)];
    if (taken) {
      if (c < 3) ++c;
    } else {
      if (c > 0) --c;
    }
  }

  // All counters back to 1 (weakly not-taken).
  void Reset() {
    for (size_t i = 0; i < kEntries; ++i) table_[i] = 1;
  }

 private:
  static size_t IndexOf(uint64_t vaddr) {
    // Instructions are byte-addressed and dense; fold the high bits so
    // functions relocated by KASLR still spread across the table.
    return static_cast<size_t>((vaddr ^ (vaddr >> 13) ^ (vaddr >> 29)) &
                               (kEntries - 1));
  }

  uint8_t table_[kEntries];
};

// Records the physical cache lines touched by wrong-path data accesses.
// This is the microarchitectural residue that survives rollback: a
// flush+reload attacker cannot read the transient value, but can test
// which of its probe lines became cached.
class SideChannelObserver {
 public:
  static constexpr uint64_t kLineShift = 6;  // 64-byte lines

  void Touch(uint64_t paddr) { lines_.insert(paddr >> kLineShift); }
  bool LineTouched(uint64_t paddr) const {
    return lines_.count(paddr >> kLineShift) > 0;
  }
  void Clear() { lines_.clear(); }
  size_t line_count() const { return lines_.size(); }

 private:
  std::unordered_set<uint64_t> lines_;
};

// Cumulative per-Cpu speculation counters. Deliberately *not* part of
// RunResult: architectural run comparisons must stay bit-identical whether
// the window is on or off.
struct SpecStats {
  uint64_t predictions = 0;            // conditional branches predicted
  uint64_t mispredictions = 0;         // windows requested
  uint64_t windows_opened = 0;         // windows actually simulated
  uint64_t wrong_path_insts = 0;       // shadow instructions executed
  uint64_t nested_branches = 0;        // predictor-steered branches in-window
  uint64_t fence_kills = 0;            // windows ended by kSpecFence
  uint64_t transient_br_deferred = 0;  // bndcu #BR suppressed in-window
  uint64_t transient_faults = 0;       // windows ended by shadow faults
  uint64_t lines_touched = 0;          // wrong-path data touches recorded

  bool operator==(const SpecStats&) const = default;
};

}  // namespace krx

#endif  // KRX_SRC_SPEC_SPEC_H_
