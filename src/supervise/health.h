// Per-kernel degradation ladder.
//
// HealthState tracks consecutive failures per capability aspect and steps
// the system down a rung when a threshold is crossed, trading capability
// for stability instead of failing the same way forever:
//
//   aspect        failure signal                      degraded behaviour
//   -----------   ---------------------------------   -------------------------
//   kBlockCache   repeated generation-mismatch /      execute single-step
//                 differential corruption             (ExecEngine::kSingleStep)
//   kRerandTimer  consecutive epoch rollbacks         timer trigger stopped;
//                                                     manual epochs only
//   kCpu          hard lockup (watchdog)              Cpu quarantined: no new
//                                                     work scheduled on it
//
// A success on an aspect resets its consecutive-failure counter but never
// climbs back up a rung — recovery is an explicit operator decision
// (Reset()), matching how kernels treat tainted state. Every downward
// transition is emitted as a telemetry instant (kHealthTransition) plus
// counters (health.degradations, health.degrade.<aspect>), so krx_trace
// shows both *that* and *why* the system degraded.
//
// Thread-safe: all recorders and readers take one internal mutex; readers
// on hot paths (block_cache_enabled) cost a mutex acquire per *task*, not
// per instruction.
#ifndef KRX_SRC_SUPERVISE_HEALTH_H_
#define KRX_SRC_SUPERVISE_HEALTH_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace krx {

enum class HealthAspect : uint8_t { kBlockCache = 0, kRerandTimer, kCpu };
const char* HealthAspectName(HealthAspect aspect);

enum class HealthLevel : uint8_t { kNominal = 0, kDegraded, kQuarantined };
const char* HealthLevelName(HealthLevel level);

struct HealthTransition {
  HealthAspect aspect = HealthAspect::kBlockCache;
  int cpu = -1;  // kCpu transitions only
  HealthLevel to = HealthLevel::kNominal;
  uint64_t failures = 0;  // consecutive failures that triggered it
  std::string reason;
};

class HealthState {
 public:
  // Thresholds: consecutive failures that step an aspect down a rung.
  static constexpr int kBlockCacheFailures = 2;  // corruptions before degrading
  static constexpr int kRerandRollbacks = 2;     // rollbacks before manual-only
  static constexpr int kCpuHardLockups = 1;      // hard lockups before quarantine

  // Failure/success signals. Successes reset the aspect's consecutive
  // counter; failures past the threshold degrade (once).
  void RecordBlockCacheCorruption(const std::string& reason);
  void RecordBlockCacheOk();
  void RecordEpochRollback(const std::string& reason);
  void RecordEpochCommit();
  void RecordHardLockup(int cpu, const std::string& reason);

  // Degraded-state queries, consulted by whoever schedules the work (the
  // chaos campaign picks its engine and Cpus by them).
  bool block_cache_enabled() const;
  bool rerand_timer_enabled() const;
  bool cpu_quarantined(int cpu) const;
  int quarantined_cpus() const;

  std::vector<HealthTransition> transitions() const;

  // Operator-initiated recovery: back to nominal, counters cleared.
  void Reset();

 private:
  // Emits telemetry and records the transition. Caller holds mu_.
  void Degrade(HealthAspect aspect, int cpu, HealthLevel to, uint64_t failures,
               const std::string& reason);

  mutable std::mutex mu_;
  int cache_failures_ = 0;
  bool cache_degraded_ = false;
  int rollbacks_ = 0;
  bool timer_degraded_ = false;
  std::map<int, int> cpu_lockups_;       // cpu -> hard lockups seen
  std::map<int, bool> cpu_quarantined_;  // cpu -> quarantined
  std::vector<HealthTransition> transitions_;
};

}  // namespace krx

#endif  // KRX_SRC_SUPERVISE_HEALTH_H_
