#include "src/supervise/retry.h"

#include <algorithm>

#include "src/kernel/module_loader.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace krx {
namespace {

void BumpRetryCounter(const std::string& name, const char* suffix) {
  if (telemetry::MetricsEnabled()) {
    telemetry::MetricsRegistry::Global().GetCounter("retry." + name + suffix).Add(1);
  }
}

}  // namespace

Retrier::Retrier(std::string name, RetryPolicy policy, LockedRng* jitter_rng, Clock* clock)
    : name_(std::move(name)),
      policy_(std::move(policy)),
      rng_(jitter_rng),
      clock_(clock != nullptr ? clock : RealClock()) {
  policy_.max_attempts = std::max(policy_.max_attempts, 1);
}

std::chrono::microseconds Retrier::BackoffDelay(int attempt) {
  double us = static_cast<double>(policy_.base_backoff.count());
  for (int i = 1; i < attempt; ++i) {
    us *= policy_.multiplier;
  }
  if (policy_.jitter > 0 && rng_ != nullptr && us > 0) {
    // Uniform draw in [1-jitter, 1+jitter] from 20 bits of the shared rng.
    const double u = static_cast<double>(rng_->NextBelow(1u << 20)) /
                     static_cast<double>(1u << 20);
    us *= 1.0 + policy_.jitter * (2.0 * u - 1.0);
  }
  return std::chrono::microseconds(static_cast<int64_t>(us));
}

void Retrier::NoteAttempt() {
  ++attempts_;
  BumpRetryCounter(name_, ".attempts");
}

bool Retrier::HandleFailure(const Status& status, int attempt) {
  const bool transient = !policy_.retry_if || policy_.retry_if(status);
  if (!transient || attempt + 1 >= policy_.max_attempts) {
    BumpRetryCounter(name_, ".exhausted");
    return false;
  }
  BumpRetryCounter(name_, ".retries");
  const std::chrono::microseconds delay = BackoffDelay(attempt + 1);
  KRX_TRACE_EVENT(kRetryBackoff, name_, static_cast<uint64_t>(attempt + 1),
                  static_cast<uint64_t>(delay.count()));
  if (delay.count() > 0) {
    clock_->SleepFor(delay);
  }
  return true;
}

Result<int32_t> LoadModuleWithRetry(ModuleLoader& loader, const ModuleObject& module,
                                    const RetryPolicy& policy, LockedRng* jitter_rng,
                                    Clock* clock) {
  Retrier retrier("module_load", policy, jitter_rng, clock);
  return retrier.Run<int32_t>([&](int) { return loader.Load(module); });
}

}  // namespace krx
