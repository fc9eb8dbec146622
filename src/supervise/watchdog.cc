#include "src/supervise/watchdog.h"

#include <utility>

#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace krx {

Watchdog::Watchdog(Clock* clock) : clock_(clock != nullptr ? clock : RealClock()) {}

Watchdog::~Watchdog() { Stop(); }

std::atomic<uint64_t>* Watchdog::Watch(std::string label,
                                       std::function<void()> on_hard_lockup) {
  std::lock_guard<std::mutex> lock(mu_);
  targets_.push_back(std::make_unique<Target>());
  targets_.back()->label = std::move(label);
  targets_.back()->on_hard = std::move(on_hard_lockup);
  return &targets_.back()->heartbeat;
}

void Watchdog::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stop_) {
      return;
    }
    stop_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
}

void Watchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ && !thread_.joinable()) {
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void Watchdog::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const Clock::TimePoint until = clock_->Now() + kTick;
    if (clock_->WaitUntil(cv_, lock, until, [this] { return stop_; })) {
      break;
    }
    Scan();  // still under mu_
  }
}

void Watchdog::Scan() {
  ticks_.fetch_add(1, std::memory_order_acq_rel);
  KRX_COUNTER_ADD("watchdog.ticks", 1);
  for (const std::unique_ptr<Target>& t : targets_) {
    const uint64_t hb = t->heartbeat.load(std::memory_order_relaxed);
    if (hb == 0) {  // idle marker: no run in flight
      t->last = 0;
      t->stalled = 0;
      t->soft_reported = t->hard_reported = false;
      continue;
    }
    if (hb != t->last) {  // progressing
      t->last = hb;
      t->stalled = 0;
      t->soft_reported = t->hard_reported = false;
      continue;
    }
    ++t->stalled;
    if (!t->soft_reported && t->stalled >= kSoftTicks) {
      t->soft_reported = true;
      soft_lockups_.fetch_add(1, std::memory_order_acq_rel);
      KRX_COUNTER_ADD("watchdog.soft_lockups", 1);
      KRX_TRACE_EVENT(kWatchdogLockup, t->label, /*hard=*/0, t->stalled);
      events_.push_back({t->label, /*hard=*/false, hb, t->stalled});
    }
    if (!t->hard_reported && t->stalled >= kHardTicks) {
      t->hard_reported = true;
      hard_lockups_.fetch_add(1, std::memory_order_acq_rel);
      KRX_COUNTER_ADD("watchdog.hard_lockups", 1);
      KRX_TRACE_EVENT(kWatchdogLockup, t->label, /*hard=*/1, t->stalled);
      events_.push_back({t->label, /*hard=*/true, hb, t->stalled});
      if (t->on_hard) {
        t->on_hard();
      }
    }
  }
}

std::vector<Watchdog::LockupEvent> Watchdog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

}  // namespace krx
