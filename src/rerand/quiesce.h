// Quiescence protocol between running Cpus and the re-randomization engine.
//
// Safe points are run boundaries: a Cpu enters the gate for the whole of one
// CallFunction/RunAt and leaves it when the run returns. An epoch takes the
// gate exclusively, which (a) waits for every in-flight run to reach its
// boundary and (b) holds new runs at the entry until the epoch completes.
// This is a readers/writer lock with writer priority — without priority a
// steady stream of runs would starve the epoch thread indefinitely.
//
// Deliberately header-only: src/cpu only forward-declares QuiesceGate and
// keeps no link dependency on src/rerand; src/cpu/cpu.cc includes this
// header for the inline definitions.
//
// Rules (enforced by construction, documented in DESIGN.md §10):
//   - A thread must never start an epoch while it is itself inside a run on
//     a gated Cpu (self-deadlock).
//   - Cpu entry points acquire the gate exactly once per run; internal
//     delegation (CallFunction(name) -> CallFunction(entry)) must not
//     re-enter, or a waiting writer wedges the nested acquisition.
#ifndef KRX_SRC_RERAND_QUIESCE_H_
#define KRX_SRC_RERAND_QUIESCE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace krx {

class QuiesceGate {
 public:
  // Reader side: a Cpu run. Blocks while an epoch is active or waiting
  // (writer priority).
  void BeginRun() {
    std::unique_lock<std::mutex> lock(mu_);
    // The wait is timed only when this run actually blocks (an epoch is in
    // flight or queued): the uncontended fast path stays clock-free.
    if (exclusive_ || writers_waiting_ != 0) {
      const uint64_t t0 = WaitClockUs();
      cv_.wait(lock, [this] { return !exclusive_ && writers_waiting_ == 0; });
      RecordWait(/*writer=*/false, WaitClockUs() - t0);
    }
    ++active_runs_;
  }
  void EndRun() {
    std::lock_guard<std::mutex> lock(mu_);
    --active_runs_;
    if (active_runs_ == 0) cv_.notify_all();
  }

  // Writer side: an epoch or a checkpoint. Waits until every in-flight run
  // has drained, then holds the gate exclusively (new runs wait at BeginRun
  // until EndExclusive) and returns true. `timeout_ms` bounds the wait
  // (0 = unbounded): when in-flight runs do not drain in time, nothing is
  // acquired and it returns false — the supervision layer's abort path, so
  // a wedged reader bounds the writer's wait instead of hanging it.
  bool BeginExclusive(uint64_t timeout_ms = 0) {
    std::unique_lock<std::mutex> lock(mu_);
    ++writers_waiting_;
    const auto drained = [this] { return !exclusive_ && active_runs_ == 0; };
    if (!drained()) {
      const uint64_t t0 = WaitClockUs();
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
      while (!drained()) {
        if (timeout_ms == 0) {
          cv_.wait(lock);
        } else if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
          break;
        }
      }
      RecordWait(/*writer=*/true, WaitClockUs() - t0);
    }
    --writers_waiting_;
    if (!drained()) {
      KRX_COUNTER_ADD("quiesce.writer_timeouts", 1);
      // Writer priority held readers out while we waited; release them.
      if (writers_waiting_ == 0) cv_.notify_all();
      return false;
    }
    exclusive_ = true;
    return true;
  }
  void EndExclusive() {
    std::lock_guard<std::mutex> lock(mu_);
    exclusive_ = false;
    cv_.notify_all();
  }

  // Snapshot for diagnostics/benchmarks; racy by nature.
  uint64_t active_runs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_runs_;
  }

 private:
  static uint64_t WaitClockUs() {
    return telemetry::Mode() == 0 ? 0 : telemetry::TraceNowUs();
  }
  static void RecordWait(bool writer, uint64_t waited_us) {
    if (writer) {
      KRX_COUNTER_ADD("quiesce.writer_waits", 1);
      KRX_HISTO_US("quiesce.writer_wait_us", waited_us);
    } else {
      KRX_COUNTER_ADD("quiesce.reader_waits", 1);
      KRX_HISTO_US("quiesce.reader_wait_us", waited_us);
    }
    KRX_TRACE_EVENT(kQuiesceWait, writer ? "quiesce_wait_writer" : "quiesce_wait_reader",
                    waited_us, writer ? 1 : 0);
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t active_runs_ = 0;
  uint64_t writers_waiting_ = 0;
  bool exclusive_ = false;
};

// RAII reader scope; tolerates a null gate (ungated Cpu, the default).
class QuiesceRunScope {
 public:
  explicit QuiesceRunScope(QuiesceGate* gate) : gate_(gate) {
    if (gate_ != nullptr) gate_->BeginRun();
  }
  ~QuiesceRunScope() {
    if (gate_ != nullptr) gate_->EndRun();
  }
  QuiesceRunScope(const QuiesceRunScope&) = delete;
  QuiesceRunScope& operator=(const QuiesceRunScope&) = delete;

 private:
  QuiesceGate* gate_;
};

// RAII writer scope with the gate's optional bound (`timeout_ms`, 0 =
// unbounded): acquired() says whether the gate is held; a scope that timed
// out holds nothing. A null gate (ungated machine) counts as acquired.
class QuiesceExclusiveScope {
 public:
  QuiesceExclusiveScope(QuiesceGate* gate, uint64_t timeout_ms)
      : gate_(gate), acquired_(gate == nullptr || gate->BeginExclusive(timeout_ms)) {}
  ~QuiesceExclusiveScope() {
    if (gate_ != nullptr && acquired_) gate_->EndExclusive();
  }
  QuiesceExclusiveScope(const QuiesceExclusiveScope&) = delete;
  QuiesceExclusiveScope& operator=(const QuiesceExclusiveScope&) = delete;

  bool acquired() const { return acquired_; }

 private:
  QuiesceGate* gate_;
  bool acquired_;
};

}  // namespace krx

#endif  // KRX_SRC_RERAND_QUIESCE_H_
