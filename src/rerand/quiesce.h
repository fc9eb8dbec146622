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

  // Writer side: an epoch. Returns once every in-flight run has drained;
  // new runs are held at BeginRun until EndExclusive.
  void BeginExclusive() {
    std::unique_lock<std::mutex> lock(mu_);
    ++writers_waiting_;
    if (exclusive_ || active_runs_ != 0) {
      const uint64_t t0 = WaitClockUs();
      cv_.wait(lock, [this] { return !exclusive_ && active_runs_ == 0; });
      RecordWait(/*writer=*/true, WaitClockUs() - t0);
    }
    --writers_waiting_;
    exclusive_ = true;
  }
  void EndExclusive() {
    std::lock_guard<std::mutex> lock(mu_);
    exclusive_ = false;
    cv_.notify_all();
  }

  // Bounded-wait writer acquisition: true = gate held exclusively (caller
  // must EndExclusive), false = in-flight runs did not drain within
  // `timeout` and nothing was acquired. The supervision layer's epoch abort
  // path: a wedged reader bounds the epoch's wait instead of hanging it.
  bool BeginExclusiveFor(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    ++writers_waiting_;
    bool drained = !exclusive_ && active_runs_ == 0;
    if (!drained) {
      const uint64_t t0 = WaitClockUs();
      drained = cv_.wait_for(lock, timeout,
                             [this] { return !exclusive_ && active_runs_ == 0; });
      RecordWait(/*writer=*/true, WaitClockUs() - t0);
    }
    --writers_waiting_;
    if (!drained) {
      KRX_COUNTER_ADD("quiesce.writer_timeouts", 1);
      // Writer priority held readers out while we waited; release them.
      if (writers_waiting_ == 0) cv_.notify_all();
      return false;
    }
    exclusive_ = true;
    return true;
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

}  // namespace krx

#endif  // KRX_SRC_RERAND_QUIESCE_H_
