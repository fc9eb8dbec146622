#include "src/supervise/retry.h"

#include <algorithm>

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

Retrier::Retrier(std::string name, RetryPolicy policy, Clock* clock)
    : name_(std::move(name)),
      policy_(std::move(policy)),
      clock_(clock != nullptr ? clock : RealClock()) {
  policy_.max_attempts = std::max(policy_.max_attempts, 1);
}

std::chrono::microseconds Retrier::BackoffDelay(int attempt) {
  std::chrono::microseconds delay = policy_.base_backoff;
  for (int i = 1; i < attempt; ++i) {
    delay *= 2;
  }
  return delay;
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

}  // namespace krx
