// Checkpoint/restore of guest state at quiescent safe points.
//
// A checkpoint is a full snapshot of the guest-visible machine — physical
// memory, the page table, every symbol address — plus the architectural
// state of each tracked Cpu and any registered host-side bookkeeping (the
// rerand map's current function offsets, for example, travel through an
// opaque AddHostState hook so this library needs no dependency on
// src/rerand). Capture and Restore both run under the QuiesceGate when one
// is provided, so a snapshot can never tear against an in-flight run: safe
// points are exactly the run boundaries the re-randomization engine already
// quiesces to.
//
// The snapshot holds the frames below the allocator's high-water mark at
// capture; every frame above it had never been handed out and read zero.
// Restore writes those frames back, zeroes the frames handed out above the
// old mark since, rewrites the page table, resets symbol addresses and host
// state, restores each tracked Cpu's registers, bumps the image's text
// generation (every predecoded block was potentially decoded from
// post-snapshot bytes) and re-resolves the Cpus' cached krx_handler
// extents. Allocation state is deliberately NOT rewound: frames allocated
// after the snapshot stay allocated, frames freed since stay free, and a
// frame reused since reads its captured bytes. No live structure can thus
// lose a frame it still points at. A free frame that restore wrote into
// reads zero again when it is next allocated.
//
// Known limitation: modules loaded or unloaded after a capture are not
// transactional against Restore (their text frames are restored bytewise,
// but the loader's handle table is host state the caller would need to
// register via AddHostState).
#ifndef KRX_SRC_SUPERVISE_CHECKPOINT_H_
#define KRX_SRC_SUPERVISE_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/status.h"
#include "src/cpu/cpu.h"
#include "src/kernel/image.h"

namespace krx {

class QuiesceGate;

class CheckpointManager {
 public:
  explicit CheckpointManager(KernelImage* image) : image_(image) {}

  // Cpus whose architectural state is saved/restored with the snapshot.
  void TrackCpu(Cpu* cpu) { cpus_.push_back(cpu); }

  // Registers host-side bookkeeping carried beside guest memory (saved at
  // Capture, rewritten at Restore). Keeps this library decoupled from the
  // owners of that state (RerandMap offsets, scheduler shadows, ...).
  void AddHostState(std::function<std::vector<uint64_t>()> save,
                    std::function<void(const std::vector<uint64_t>&)> restore);

  // Snapshots the machine. With a gate, runs inside a QuiesceExclusiveScope
  // whose wait `timeout_ms` bounds (0 = unbounded; timeout =
  // FailedPrecondition, no snapshot taken). Replaces any previous
  // checkpoint.
  Status Capture(QuiesceGate* gate = nullptr, uint64_t timeout_ms = 0);

  // Rewinds the machine to the last Capture. Same gating contract.
  Status Restore(QuiesceGate* gate = nullptr, uint64_t timeout_ms = 0);

  bool has_checkpoint() const { return has_checkpoint_; }
  uint64_t snapshot_bytes() const;
  uint64_t captures() const { return captures_; }
  uint64_t restores() const { return restores_; }

 private:
  struct HostStateHook {
    std::function<std::vector<uint64_t>()> save;
    std::function<void(const std::vector<uint64_t>&)> restore;
  };

  void DoCapture();
  void DoRestore();

  KernelImage* image_;
  std::vector<Cpu*> cpus_;
  std::vector<HostStateHook> host_hooks_;

  bool has_checkpoint_ = false;
  std::vector<uint8_t> phys_;
  PageTable page_table_;
  std::vector<uint64_t> symbol_addrs_;
  std::vector<std::vector<uint64_t>> host_state_;
  std::vector<Cpu::ArchState> cpu_state_;
  uint64_t captures_ = 0;
  uint64_t restores_ = 0;
};

}  // namespace krx

#endif  // KRX_SRC_SUPERVISE_CHECKPOINT_H_
