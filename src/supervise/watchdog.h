// Heartbeat watchdog with soft/hard-lockup detection.
//
// Each watched execution context owns one heartbeat slot — an atomic the
// producer bumps as it makes progress and zeroes when idle. The Cpu
// publishes its retired-instruction count through such a slot (see
// Cpu::set_heartbeat_slot, the same one-relaxed-store-per-instruction
// discipline as the profiler's PC slot), so a nonzero heartbeat that stops
// moving across watchdog ticks means a run is in flight but frozen: a
// wedged step observer, a host thread stuck on a gate, a deadlocked
// callback. A heartbeat that keeps advancing is *not* a lockup — runaway-
// but-progressing guests are the deadline's job (RunOptions::deadline_us).
//
// Detection mirrors the kernel's soft/hard lockup split: the watchdog scans
// every kTick; after kSoftTicks frozen ticks it records a soft lockup
// (telemetry only); after kHardTicks it records a hard lockup and fires the
// target's callback (typically Cpu::RequestPreempt + a HealthState
// quarantine). Both fire once per stall episode; progress or idleness
// rearms them.
//
// Deliberately layered below src/cpu: the watchdog sees only slots and
// callbacks, never a Cpu, so it is trivially testable with a FakeClock.
#ifndef KRX_SRC_SUPERVISE_WATCHDOG_H_
#define KRX_SRC_SUPERVISE_WATCHDOG_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/supervise/clock.h"

namespace krx {

class Watchdog {
 public:
  static constexpr std::chrono::milliseconds kTick{5};
  static constexpr uint64_t kSoftTicks = 2;  // frozen ticks before a soft lockup
  static constexpr uint64_t kHardTicks = 4;  // frozen ticks before the hard callback

  struct LockupEvent {
    std::string label;
    bool hard = false;
    uint64_t heartbeat = 0;      // the frozen value
    uint64_t stalled_ticks = 0;  // ticks it had been frozen when reported
  };

  explicit Watchdog(Clock* clock = nullptr);  // null = RealClock()
  ~Watchdog();  // stops and joins

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Registers a watched context and returns its heartbeat slot (stable for
  // the watchdog's lifetime). Call before Start(). `on_hard_lockup` runs on
  // the watchdog thread and must not call back into the watchdog.
  std::atomic<uint64_t>* Watch(std::string label,
                               std::function<void()> on_hard_lockup = nullptr);

  void Start();
  void Stop();

  uint64_t ticks() const { return ticks_.load(std::memory_order_acquire); }
  uint64_t soft_lockups() const { return soft_lockups_.load(std::memory_order_acquire); }
  uint64_t hard_lockups() const { return hard_lockups_.load(std::memory_order_acquire); }

  std::vector<LockupEvent> events() const;

 private:
  struct Target {
    std::string label;
    std::atomic<uint64_t> heartbeat{0};
    std::function<void()> on_hard;
    // Watchdog-thread-only stall bookkeeping.
    uint64_t last = 0;
    uint64_t stalled = 0;
    bool soft_reported = false;
    bool hard_reported = false;
  };

  void Loop();
  void Scan();

  Clock* clock_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = true;
  std::vector<std::unique_ptr<Target>> targets_;
  std::vector<LockupEvent> events_;

  std::atomic<uint64_t> ticks_{0};
  std::atomic<uint64_t> soft_lockups_{0};
  std::atomic<uint64_t> hard_lockups_{0};

  std::thread thread_;
};

}  // namespace krx

#endif  // KRX_SRC_SUPERVISE_WATCHDOG_H_
