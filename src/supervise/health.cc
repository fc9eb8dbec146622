#include "src/supervise/health.h"

#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace krx {

const char* HealthAspectName(HealthAspect aspect) {
  switch (aspect) {
    case HealthAspect::kBlockCache:
      return "block_cache";
    case HealthAspect::kRerandTimer:
      return "rerand_timer";
    case HealthAspect::kCpu:
      return "cpu";
  }
  return "?";
}

const char* HealthLevelName(HealthLevel level) {
  switch (level) {
    case HealthLevel::kNominal:
      return "nominal";
    case HealthLevel::kDegraded:
      return "degraded";
    case HealthLevel::kQuarantined:
      return "quarantined";
  }
  return "?";
}

void HealthState::Degrade(HealthAspect aspect, int cpu, HealthLevel to, uint64_t failures,
                          const std::string& reason) {
  transitions_.push_back({aspect, cpu, to, failures, reason});
  KRX_COUNTER_ADD("health.degradations", 1);
  if (telemetry::MetricsEnabled()) {
    telemetry::MetricsRegistry::Global()
        .GetCounter(std::string("health.degrade.") + HealthAspectName(aspect))
        .Add(1);
  }
  KRX_TRACE_EVENT(kHealthTransition, reason, static_cast<uint64_t>(aspect),
                  static_cast<uint64_t>(to));
}

void HealthState::RecordBlockCacheCorruption(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  ++cache_failures_;
  if (!cache_degraded_ && cache_failures_ >= kBlockCacheFailures) {
    cache_degraded_ = true;
    Degrade(HealthAspect::kBlockCache, -1, HealthLevel::kDegraded,
            static_cast<uint64_t>(cache_failures_), reason);
  }
}

void HealthState::RecordBlockCacheOk() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_failures_ = 0;
}

void HealthState::RecordEpochRollback(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  ++rollbacks_;
  if (!timer_degraded_ && rollbacks_ >= kRerandRollbacks) {
    timer_degraded_ = true;
    Degrade(HealthAspect::kRerandTimer, -1, HealthLevel::kDegraded,
            static_cast<uint64_t>(rollbacks_), reason);
  }
}

void HealthState::RecordEpochCommit() {
  std::lock_guard<std::mutex> lock(mu_);
  rollbacks_ = 0;
}

void HealthState::RecordHardLockup(int cpu, const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  const int count = ++cpu_lockups_[cpu];
  if (!cpu_quarantined_[cpu] && count >= kCpuHardLockups) {
    cpu_quarantined_[cpu] = true;
    Degrade(HealthAspect::kCpu, cpu, HealthLevel::kQuarantined, static_cast<uint64_t>(count),
            reason);
  }
}

bool HealthState::block_cache_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !cache_degraded_;
}

bool HealthState::rerand_timer_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !timer_degraded_;
}

bool HealthState::cpu_quarantined(int cpu) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cpu_quarantined_.find(cpu);
  return it != cpu_quarantined_.end() && it->second;
}

int HealthState::quarantined_cpus() const {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (const auto& [cpu, q] : cpu_quarantined_) {
    (void)cpu;
    if (q) ++n;
  }
  return n;
}

std::vector<HealthTransition> HealthState::transitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transitions_;
}

void HealthState::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_failures_ = 0;
  cache_degraded_ = false;
  rollbacks_ = 0;
  timer_degraded_ = false;
  cpu_lockups_.clear();
  cpu_quarantined_.clear();
}

}  // namespace krx
