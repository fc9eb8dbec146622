// Reusable retry/backoff policy engine.
//
// One RetryPolicy describes how a fallible operation may be re-attempted:
// a bounded attempt count, a backoff that doubles per retry, and a
// per-class error filter deciding which failures are transient. A Retrier
// executes the attempts, sleeps through an injectable Clock (tests use
// FakeClock), and publishes per-operation counters:
//
//   retry.<name>.attempts   every attempt started
//   retry.<name>.retries    failures that led to another attempt
//   retry.<name>.exhausted  gave up: attempts exhausted or filter said no
//
// Consumer: RerandEngine::RunEpochWithRetry (transient epoch failures).
#ifndef KRX_SRC_SUPERVISE_RETRY_H_
#define KRX_SRC_SUPERVISE_RETRY_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "src/base/status.h"
#include "src/supervise/clock.h"

namespace krx {

struct RetryPolicy {
  // Total attempts, including the first (1 = no retries; clamped to >= 1).
  int max_attempts = 3;
  // Delay before retry k (1-based) is base_backoff * 2^(k-1).
  std::chrono::microseconds base_backoff{0};
  // Returns true when the failure is transient (worth retrying). Null means
  // every error retries.
  std::function<bool(const Status&)> retry_if;
};

class Retrier {
 public:
  // `name` keys the telemetry counters; `clock` null means RealClock().
  Retrier(std::string name, RetryPolicy policy, Clock* clock = nullptr);

  // Runs `attempt_fn(attempt)` (attempt = 0-based) until it succeeds, the
  // filter rejects the failure, or attempts are exhausted. Returns the last
  // attempt's result either way.
  template <typename T>
  Result<T> Run(const std::function<Result<T>(int)>& attempt_fn) {
    for (int attempt = 0;; ++attempt) {
      NoteAttempt();
      Result<T> r = attempt_fn(attempt);
      if (r.ok() || !HandleFailure(r.status(), attempt)) {
        return r;
      }
    }
  }

  Status RunStatus(const std::function<Status(int)>& attempt_fn) {
    for (int attempt = 0;; ++attempt) {
      NoteAttempt();
      Status s = attempt_fn(attempt);
      if (s.ok() || !HandleFailure(s, attempt)) {
        return s;
      }
    }
  }

  // The backoff delay that precedes retry `attempt` (1-based). Exposed so
  // tests can pin the schedule down.
  std::chrono::microseconds BackoffDelay(int attempt);

  // Attempts started by this retrier so far.
  int attempts() const { return attempts_; }

 private:
  void NoteAttempt();
  // True = sleep happened and the caller should retry.
  bool HandleFailure(const Status& status, int attempt);

  std::string name_;
  RetryPolicy policy_;
  Clock* clock_;
  int attempts_ = 0;
};

}  // namespace krx

#endif  // KRX_SRC_SUPERVISE_RETRY_H_
