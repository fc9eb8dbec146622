#include "src/supervise/checkpoint.h"

#include <chrono>
#include <utility>

#include "src/rerand/quiesce.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace krx {

void CheckpointManager::AddHostState(std::function<std::vector<uint64_t>()> save,
                                     std::function<void(const std::vector<uint64_t>&)> restore) {
  host_hooks_.push_back({std::move(save), std::move(restore)});
}

uint64_t CheckpointManager::snapshot_bytes() const {
  uint64_t host_words = 0;
  for (const std::vector<uint64_t>& state : host_state_) {
    host_words += state.size();
  }
  return static_cast<uint64_t>(phys_.size() + page_table_.TableBytes() +
                               (symbol_addrs_.size() + host_words) * sizeof(uint64_t) +
                               cpu_state_.size() * sizeof(Cpu::ArchState));
}

Status CheckpointManager::Capture(QuiesceGate* gate, uint64_t timeout_ms) {
  QuiesceExclusiveScope scope(gate, timeout_ms);
  if (!scope.acquired()) {
    KRX_COUNTER_ADD("checkpoint.capture_timeouts", 1);
    return FailedPreconditionError("checkpoint: quiesce timed out; no snapshot taken");
  }
  DoCapture();
  return Status::Ok();
}

void CheckpointManager::DoCapture() {
  const PhysMem& phys = image_->phys();
  phys_.resize(phys.high_water_frames() << kPageShift);
  phys.ReadBytes(0, phys_.data(), phys_.size());
  page_table_ = image_->page_table();

  const SymbolTable& syms = image_->symbols();
  symbol_addrs_.resize(syms.size());
  for (size_t i = 0; i < syms.size(); ++i) {
    symbol_addrs_[i] = syms.at(static_cast<int32_t>(i)).address;
  }

  host_state_.clear();
  for (const HostStateHook& hook : host_hooks_) {
    host_state_.push_back(hook.save());
  }

  cpu_state_.clear();
  for (const Cpu* cpu : cpus_) {
    cpu_state_.push_back(cpu->SaveArch());
  }

  has_checkpoint_ = true;
  ++captures_;
  KRX_COUNTER_ADD("checkpoint.captures", 1);
  KRX_TRACE_EVENT(kCheckpoint, "capture", 0, snapshot_bytes());
}

Status CheckpointManager::Restore(QuiesceGate* gate, uint64_t timeout_ms) {
  if (!has_checkpoint_) {
    return FailedPreconditionError("checkpoint: Restore without a prior Capture");
  }
  QuiesceExclusiveScope scope(gate, timeout_ms);
  if (!scope.acquired()) {
    KRX_COUNTER_ADD("checkpoint.restore_timeouts", 1);
    return FailedPreconditionError("checkpoint: quiesce timed out; state unchanged");
  }
  const auto t0 = std::chrono::steady_clock::now();
  DoRestore();
  const uint64_t us = static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                                std::chrono::steady_clock::now() - t0)
                                                .count());
  KRX_HISTO_US("checkpoint.restore_us", us);
  KRX_TRACE_EVENT(kCheckpoint, "restore", 1, us);
  return Status::Ok();
}

void CheckpointManager::DoRestore() {
  PhysMem& phys = image_->phys();
  phys.WriteBytes(0, phys_.data(), phys_.size());
  const uint64_t captured_frames = phys_.size() >> kPageShift;
  phys.ZeroFrames(captured_frames, phys.high_water_frames() - captured_frames);
  image_->page_table() = page_table_;

  SymbolTable& syms = image_->symbols();
  for (size_t i = 0; i < symbol_addrs_.size() && i < syms.size(); ++i) {
    syms.at(static_cast<int32_t>(i)).address = symbol_addrs_[i];
  }

  for (size_t i = 0; i < host_hooks_.size(); ++i) {
    host_hooks_[i].restore(host_state_[i]);
  }

  for (size_t i = 0; i < cpus_.size() && i < cpu_state_.size(); ++i) {
    cpus_[i]->RestoreArch(cpu_state_[i]);
  }

  // Predecoded blocks may hold post-snapshot bytes; a moved-and-restored
  // krx_handler must be re-resolved from the restored symbol table.
  image_->BumpTextGeneration();
  for (Cpu* cpu : cpus_) {
    cpu->RefreshKrxHandlerRange();
  }
  ++restores_;
  KRX_COUNTER_ADD("checkpoint.restores", 1);
}

}  // namespace krx
