// The self-healing supervision layer (src/supervise): injectable clocks,
// retry/backoff policies, watchdog lockup detection, deadline preemption,
// bounded quiesce, the degradation ladder, and checkpoint/restore — each
// proven deterministically (FakeClock) where time is involved, and
// end-to-end against compiled kernels where the Cpu is involved.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/fault/oops.h"
#include "src/fault/recovery.h"
#include "src/ir/builder.h"
#include "src/kernel/assembler.h"
#include "src/plugin/pipeline.h"
#include "src/rerand/engine.h"
#include "src/supervise/checkpoint.h"
#include "src/supervise/clock.h"
#include "src/supervise/health.h"
#include "src/supervise/retry.h"
#include "src/supervise/watchdog.h"
#include "src/workload/corpus.h"
#include "src/workload/ops.h"
#include "src/workload/sched.h"

namespace krx {
namespace {

// Real-time poll for asynchronous progress (watchdog thread scans, worker
// threads), bounded so a broken mechanism fails the test instead of hanging.
bool WaitFor(const std::function<bool()>& pred,
             std::chrono::milliseconds bound = std::chrono::milliseconds(2000)) {
  const auto deadline = std::chrono::steady_clock::now() + bound;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// An unbounded spin: the runaway-but-progressing guest deadlines exist for.
void AddSpinFunction(KernelSource* src) {
  FunctionBuilder b("spin_forever");
  b.Emit(Instruction::MovRI(Reg::kRax, 0));
  b.Emit(Instruction::MovRI(Reg::kRcx, int64_t{1} << 40));
  const int32_t head = b.ReserveBlock();
  b.Bind(head);
  b.Emit(Instruction::AddRR(Reg::kRax, Reg::kRcx));
  b.Emit(Instruction::SubRI(Reg::kRcx, 1));
  b.Emit(Instruction::JccBlock(Cond::kNe, head));
  b.Emit(Instruction::Ret());
  src->functions.push_back(b.Build());
  src->symbols.Intern("spin_forever");
}

CompiledKernel MakeSpinKernel(uint64_t seed) {
  KernelSource src = MakeBaseSource();
  AddSpinFunction(&src);
  ProtectionConfig config = ProtectionConfig::SfiOnly(SfiLevel::kO3);
  config.seed = seed;
  auto kernel = CompileKernel(std::move(src), {config, LayoutKind::kKrx});
  KRX_CHECK(kernel.ok());
  return std::move(*kernel);
}

// ---------------------------------------------------------------- FakeClock

TEST(FakeClock, AdvanceMovesTimeAndWakesSleepers) {
  FakeClock clock;
  const Clock::TimePoint t0 = clock.Now();
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.SleepFor(std::chrono::milliseconds(50));
    woke.store(true);
  });
  // Hand-shake: advance only once the sleeper has registered its wait.
  // Advancing earlier would let it compute its deadline from the already-
  // moved clock and sleep past every Advance below (a loaded single-core
  // host can delay the thread arbitrarily).
  ASSERT_TRUE(WaitFor([&] { return clock.waiters() > 0; }, std::chrono::seconds(10)));
  EXPECT_FALSE(woke.load());
  // Advance in steps: partial advances must not wake the sleeper early.
  clock.Advance(std::chrono::milliseconds(20));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(woke.load());
  clock.Advance(std::chrono::milliseconds(30));
  sleeper.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(clock.Now() - t0, std::chrono::milliseconds(50));
}

// ------------------------------------------------------------------ Retrier

TEST(Retrier, RecoversAfterTransientFailures) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  Retrier retrier("test_transient", policy);
  int failures_left = 2;
  auto r = retrier.Run<int>([&](int attempt) -> Result<int> {
    if (failures_left-- > 0) {
      return InternalError("transient");
    }
    return attempt;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2);  // succeeded on the third (0-based) attempt
  EXPECT_EQ(retrier.attempts(), 3);
}

TEST(Retrier, FilterStopsNonTransientFailuresImmediately) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.retry_if = [](const Status& s) { return s.message() == "transient"; };
  Retrier retrier("test_filter", policy);
  auto r = retrier.Run<int>([](int) -> Result<int> { return InternalError("permanent"); });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(retrier.attempts(), 1);
}

TEST(Retrier, ExhaustionReturnsTheLastError) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  Retrier retrier("test_exhaust", policy);
  int calls = 0;
  Status s = retrier.RunStatus([&](int attempt) {
    ++calls;
    return InternalError("attempt " + std::to_string(attempt));
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "attempt 1");
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(retrier.attempts(), 2);
}

TEST(Retrier, BackoffDoublesPerRetry) {
  RetryPolicy policy;
  policy.base_backoff = std::chrono::microseconds(100);
  Retrier retrier("test_backoff", policy);
  EXPECT_EQ(retrier.BackoffDelay(1), std::chrono::microseconds(100));
  EXPECT_EQ(retrier.BackoffDelay(2), std::chrono::microseconds(200));
  EXPECT_EQ(retrier.BackoffDelay(3), std::chrono::microseconds(400));
}

TEST(Retrier, SleepsThroughTheInjectedClock) {
  FakeClock clock;
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_backoff = std::chrono::milliseconds(10);
  Retrier retrier("test_clock", policy, &clock);
  std::atomic<bool> done{false};
  Status result = InternalError("unset");
  std::thread runner([&] {
    int failures_left = 1;
    result = retrier.RunStatus([&](int) {
      return failures_left-- > 0 ? InternalError("transient") : Status::Ok();
    });
    done.store(true);
  });
  // The retrier blocks in the fake clock between attempts; only Advance()
  // moves it forward.
  while (!done.load()) {
    clock.Advance(std::chrono::milliseconds(10));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runner.join();
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(retrier.attempts(), 2);
}

// ----------------------------------------------------------------- Watchdog

TEST(Watchdog, DetectsFrozenHeartbeatFiresCallbackAndRearms) {
  FakeClock clock;
  Watchdog watchdog(&clock);
  std::atomic<int> hard_fired{0};
  std::atomic<uint64_t>* hb = watchdog.Watch("cpu0", [&] { hard_fired.fetch_add(1); });
  watchdog.Start();

  // The loop thread and Advance() race benignly: a bump can land before the
  // loop computes its wait deadline, so one advance is not always one scan.
  // Soft/hard lockups report once per stall episode, which makes threshold
  // advancing (tick until the counter moves, over-advancing harmless) the
  // deterministic way to drive the scan thread.
  auto advance_until = [&](const std::function<bool()>& pred) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!pred() && std::chrono::steady_clock::now() < deadline) {
      clock.Advance(Watchdog::kTick);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(pred());
  };

  // A nonzero heartbeat that stops moving: soft after 2 frozen scans, hard
  // (and the callback) after 4.
  hb->store(7, std::memory_order_relaxed);
  advance_until([&] { return watchdog.hard_lockups() >= 1; });
  EXPECT_EQ(watchdog.soft_lockups(), 1u);
  EXPECT_EQ(watchdog.hard_lockups(), 1u);
  EXPECT_EQ(hard_fired.load(), 1);

  // Both fire once per episode: more frozen scans add nothing.
  const uint64_t ticks_now = watchdog.ticks();
  advance_until([&] { return watchdog.ticks() >= ticks_now + 3; });
  EXPECT_EQ(watchdog.soft_lockups(), 1u);
  EXPECT_EQ(watchdog.hard_lockups(), 1u);
  EXPECT_EQ(hard_fired.load(), 1);

  // Progress rearms; the next freeze is a new episode.
  hb->store(8, std::memory_order_relaxed);
  advance_until([&] { return watchdog.soft_lockups() >= 2; });
  EXPECT_EQ(watchdog.soft_lockups(), 2u);

  // Idle (zero) heartbeat is not a lockup: no further episodes begin. Let a
  // couple of scans observe the idle marker (draining any scans still in
  // flight from the previous episode) before snapshotting the counters.
  hb->store(0, std::memory_order_relaxed);
  const uint64_t idle_ticks = watchdog.ticks();
  advance_until([&] { return watchdog.ticks() >= idle_ticks + 2; });
  const uint64_t soft_before_idle = watchdog.soft_lockups();
  const uint64_t hard_before_idle = watchdog.hard_lockups();
  const uint64_t drained_ticks = watchdog.ticks();
  advance_until([&] { return watchdog.ticks() >= drained_ticks + 5; });
  EXPECT_EQ(watchdog.soft_lockups(), soft_before_idle);
  EXPECT_EQ(watchdog.hard_lockups(), hard_before_idle);
  watchdog.Stop();

  const std::vector<Watchdog::LockupEvent> events = watchdog.events();
  ASSERT_GE(events.size(), 3u);  // soft@7, hard@7, soft@8, maybe hard@8
  EXPECT_EQ(events[0].label, "cpu0");
  EXPECT_FALSE(events[0].hard);
  EXPECT_EQ(events[0].heartbeat, 7u);
  EXPECT_TRUE(events[1].hard);
  EXPECT_EQ(events[1].heartbeat, 7u);
  EXPECT_FALSE(events[2].hard);
  EXPECT_EQ(events[2].heartbeat, 8u);
}

// --------------------------------------------------- Deadline & preemption

TEST(Deadline, PreemptsRunawayGuestIntoDeadlineExceeded) {
  CompiledKernel kernel = MakeSpinKernel(0xDEAD1);
  Cpu cpu(kernel.image.get());
  RunOptions run;
  run.max_steps = 4'000'000'000ULL;  // far beyond what any deadline lets retire
  run.deadline_us = 1'000;
  const RunResult r = cpu.CallFunction("spin_forever", {}, run);
  EXPECT_EQ(r.reason, StopReason::kDeadlineExceeded);
  EXPECT_GT(r.instructions, 0u);

  // The Cpu is immediately reusable, and an unarmed run is never preempted:
  // the same guest under no deadline stops only on its step budget.
  RunOptions bounded;
  bounded.max_steps = 10'000;
  const RunResult ok = cpu.CallFunction("spin_forever", {}, bounded);
  EXPECT_EQ(ok.reason, StopReason::kStepLimit);
}

TEST(Deadline, RequestPreemptStopsARunFromAnotherThread) {
  CompiledKernel kernel = MakeSpinKernel(0xDEAD2);
  Cpu cpu(kernel.image.get());
  std::atomic<uint64_t> heartbeat{0};
  cpu.set_heartbeat_slot(&heartbeat);
  RunResult r;
  std::thread guest([&] {
    RunOptions run;
    run.max_steps = 4'000'000'000ULL;  // no deadline armed
    r = cpu.CallFunction("spin_forever", {}, run);
  });
  // Wait until the run is provably in flight (preempt requests are cleared
  // at run start), then preempt it from this thread.
  ASSERT_TRUE(WaitFor([&] { return heartbeat.load(std::memory_order_relaxed) != 0; }));
  cpu.RequestPreempt();
  guest.join();
  EXPECT_EQ(r.reason, StopReason::kDeadlineExceeded);
  // Run end parks the heartbeat at the idle marker.
  EXPECT_EQ(heartbeat.load(std::memory_order_relaxed), 0u);
  cpu.set_heartbeat_slot(nullptr);
}

// -------------------------------------------------------------- QuiesceGate

TEST(QuiesceGate, BoundedWriterTimesOutReleasesReadersAndRecovers) {
  QuiesceGate gate;
  gate.BeginRun();  // a reader that never drains
  EXPECT_FALSE(gate.BeginExclusive(/*timeout_ms=*/20));

  // The failed writer must not leave readers held out (writer priority is
  // released on timeout): a new reader gets through promptly.
  std::atomic<bool> reader_done{false};
  std::thread reader([&] {
    gate.BeginRun();
    gate.EndRun();
    reader_done.store(true);
  });
  ASSERT_TRUE(WaitFor([&] { return reader_done.load(); }));
  reader.join();

  gate.EndRun();
  ASSERT_TRUE(gate.BeginExclusive(/*timeout_ms=*/20));
  gate.EndExclusive();
}

TEST(QuiesceGate, EngineAbortsEpochWhenQuiesceTimesOut) {
  CompiledKernel kernel = MakeSpinKernel(0x9A7E);
  RerandOptions options;
  options.quiesce_timeout_ms = 30;
  RerandEngine engine(&kernel, options);

  engine.gate().BeginRun();  // a wedged reader: the epoch must not hang
  auto aborted = engine.RunEpoch();
  EXPECT_FALSE(aborted.ok());
  EXPECT_EQ(engine.epoch_failures(), 1u);
  EXPECT_EQ(engine.epochs_completed(), 0u);
  engine.gate().EndRun();

  auto committed = engine.RunEpoch();
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(engine.epochs_completed(), 1u);
}

TEST(Retrier, EpochRetryRecoversFromATransientFailpoint) {
  CompiledKernel kernel = MakeSpinKernel(0x9A7F);
  RerandEngine engine(&kernel);
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.retry_if = [&](const Status&) {
    engine.clear_failpoint();  // the fault heals before the retry
    return true;
  };
  engine.set_retry_policy(policy);
  engine.set_failpoint(RerandStep::kRelayout);
  auto r = engine.RunEpochWithRetry();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(engine.epoch_failures(), 1u);
  EXPECT_EQ(engine.epochs_completed(), 1u);
}

// ------------------------------------------------------------- HealthState

TEST(HealthState, LadderDegradesPerAspectAndOnlyResetRecovers) {
  HealthState health;
  EXPECT_TRUE(health.block_cache_enabled());
  EXPECT_TRUE(health.rerand_timer_enabled());
  EXPECT_FALSE(health.cpu_quarantined(0));

  // A success between failures resets the consecutive counter.
  health.RecordBlockCacheCorruption("gen mismatch");
  health.RecordBlockCacheOk();
  health.RecordBlockCacheCorruption("gen mismatch");
  EXPECT_TRUE(health.block_cache_enabled());
  health.RecordBlockCacheCorruption("differential divergence");
  EXPECT_FALSE(health.block_cache_enabled());

  health.RecordEpochRollback("relayout failed");
  EXPECT_TRUE(health.rerand_timer_enabled());
  health.RecordEpochRollback("relayout failed again");
  EXPECT_FALSE(health.rerand_timer_enabled());

  health.RecordHardLockup(2, "watchdog");
  EXPECT_TRUE(health.cpu_quarantined(2));
  EXPECT_FALSE(health.cpu_quarantined(0));
  EXPECT_EQ(health.quarantined_cpus(), 1);

  const std::vector<HealthTransition> transitions = health.transitions();
  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_EQ(transitions[0].aspect, HealthAspect::kBlockCache);
  EXPECT_EQ(transitions[1].aspect, HealthAspect::kRerandTimer);
  EXPECT_EQ(transitions[2].aspect, HealthAspect::kCpu);
  EXPECT_EQ(transitions[2].cpu, 2);

  // Degradation is one-way; a later success does not climb back.
  health.RecordEpochCommit();
  EXPECT_FALSE(health.rerand_timer_enabled());

  health.Reset();
  EXPECT_TRUE(health.block_cache_enabled());
  EXPECT_TRUE(health.rerand_timer_enabled());
  EXPECT_FALSE(health.cpu_quarantined(2));
}

// ------------------------------------------------------ Checkpoint/restore

// The differential gate: after an unsurvivable trap, a restored machine must
// replay the exact post-capture result series an uninterrupted run produced.
TEST(Checkpoint, RestoreReplaysBitIdenticalToUninterrupted) {
  KernelSource src = MakeBaseSource();
  OpProfile profile;
  profile.name = "ckpt";
  profile.loop_iters = 4;
  profile.coalescible_reads = 2;
  profile.chased_reads = 1;
  profile.writes = 2;  // runs mutate the buffer: the result series evolves
  profile.alu = 2;
  const std::string op = EmitKernelOp(&src, profile);
  ProtectionConfig config = ProtectionConfig::SfiOnly(SfiLevel::kO3);
  config.seed = 0xC4B7;
  auto kernel = CompileKernel(std::move(src), {config, LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  KernelImage& image = *kernel->image;
  auto buffer = SetUpOpBuffer(image, 0xC4B7);
  ASSERT_TRUE(buffer.ok());
  Cpu cpu(&image);

  for (int i = 0; i < 3; ++i) {  // pre-capture history, discarded
    ASSERT_EQ(cpu.CallFunction(op, {*buffer}).reason, StopReason::kReturned);
  }

  CheckpointManager ckpt(&image);
  ckpt.TrackCpu(&cpu);
  ASSERT_TRUE(ckpt.Capture().ok());
  EXPECT_GT(ckpt.snapshot_bytes(), 0u);

  std::vector<uint64_t> uninterrupted;
  for (int i = 0; i < 3; ++i) {
    const RunResult r = cpu.CallFunction(op, {*buffer});
    ASSERT_EQ(r.reason, StopReason::kReturned);
    uninterrupted.push_back(r.rax);
  }

  // The unsurvivable event: tripwire byte on the op entry; the next run
  // traps at instruction zero.
  auto entry = image.symbols().AddressOf(op);
  ASSERT_TRUE(entry.ok());
  const uint8_t int3 = kTextPadByte;  // Opcode::kInt3 in the krx64 encoding
  ASSERT_TRUE(image.PokeBytes(*entry, &int3, 1).ok());
  image.BumpTextGeneration();
  const RunResult trapped = cpu.CallFunction(op, {*buffer});
  EXPECT_EQ(trapped.reason, StopReason::kException);
  EXPECT_EQ(trapped.exception, ExceptionKind::kBreakpoint);

  ASSERT_TRUE(ckpt.Restore().ok());
  EXPECT_EQ(ckpt.restores(), 1u);
  std::vector<uint64_t> replayed;
  for (int i = 0; i < 3; ++i) {
    const RunResult r = cpu.CallFunction(op, {*buffer});
    ASSERT_EQ(r.reason, StopReason::kReturned) << "restore did not heal the text";
    replayed.push_back(r.rax);
  }
  EXPECT_EQ(replayed, uninterrupted);
}

// A snapshot holds the frames below the allocator's high-water mark, not
// all of guest memory; every frame handed out after the capture, reused or
// fresh, reads zero again after the restore.
TEST(Checkpoint, SnapshotHoldsOnlyAllocatedFrames) {
  ProtectionConfig config = ProtectionConfig::SfiOnly(SfiLevel::kO3);
  config.seed = 0x5A1E;
  auto kernel = CompileKernel(MakeBaseSource(), {config, LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  KernelImage& image = *kernel->image;
  ASSERT_EQ(image.phys().size(), 64ULL << 20);
  auto freed = image.AllocDataPages(2);
  ASSERT_TRUE(freed.ok());
  image.FreeDataPages(*freed, 2);

  CheckpointManager ckpt(&image);
  ASSERT_TRUE(ckpt.Capture().ok());
  EXPECT_LT(ckpt.snapshot_bytes(), image.phys().size() / 8);

  auto reused = image.AllocDataPages(2);
  auto fresh = image.AllocDataPages(4);
  ASSERT_TRUE(reused.ok() && fresh.ok());
  EXPECT_EQ(*reused, *freed);
  const std::vector<uint64_t> pages = {*reused, *reused + kPageSize, *fresh,
                                       *fresh + 3 * kPageSize};
  for (uint64_t page : pages) {
    ASSERT_TRUE(image.Poke64(page + 8, 0xD1D1D1D1).ok());
  }

  ASSERT_TRUE(ckpt.Restore().ok());
  for (uint64_t page : pages) {
    auto v = image.Peek64(page + 8);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, 0u) << "page 0x" << std::hex << page;
  }
}

// Restore composes with the oops supervisor: a panic-policy trap is
// unsurvivable, the checkpoint rewinds past it, and the replacement
// kill-task policy then survives the same rogue workload.
TEST(Checkpoint, RestoreAfterPanicThenKillTaskSurvives) {
  KernelSource src = MakeBaseSource();
  AddSched(&src, /*with_rogue_worker=*/true);
  ProtectionConfig config = ProtectionConfig::SfiOnly(SfiLevel::kO3);
  config.seed = 0x0095;
  for (const std::string& name : SchedExemptFunctions()) {
    config.exempt_functions.insert(name);
  }
  auto kernel = CompileKernel(std::move(src), {config, LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  ASSERT_TRUE(SetUpTaskStacks(*kernel->image).ok());
  Cpu cpu(kernel->image.get());

  CheckpointManager ckpt(kernel->image.get());
  ckpt.TrackCpu(&cpu);
  ASSERT_TRUE(ckpt.Capture().ok());  // pre-spawn safe point

  auto spawn_tasks = [&] {
    for (uint64_t slot : {0ULL, 1ULL, 2ULL}) {
      const RunResult r = cpu.CallFunction("sys_spawn", {slot});
      ASSERT_EQ(r.reason, StopReason::kReturned);
      ASSERT_GE(static_cast<int64_t>(r.rax), 0);
    }
  };

  spawn_tasks();
  OopsSupervisor panic(&cpu, OopsPolicy::kPanic);
  const RecoveryOutcome dead = panic.Run("sched_run", {64});
  EXPECT_FALSE(dead.survived());
  ASSERT_FALSE(dead.oopses.empty());

  // Rewind the whole machine — task table, worker counters, stacks, the
  // oopsed Cpu state — and run the same workload under the survivable
  // policy.
  ASSERT_TRUE(ckpt.Restore().ok());
  spawn_tasks();
  OopsSupervisor reaper(&cpu, OopsPolicy::kKillTask);
  const RecoveryOutcome alive = reaper.Run("sched_run", {64});
  EXPECT_TRUE(alive.survived());
  ASSERT_EQ(alive.killed_tasks.size(), 1u);
  EXPECT_EQ(alive.killed_tasks[0], 3u);

  auto worker_c = kernel->image->symbols().AddressOf("worker_c_runs");
  ASSERT_TRUE(worker_c.ok());
  auto runs = kernel->image->Peek64(*worker_c);
  ASSERT_TRUE(runs.ok());
  EXPECT_EQ(*runs, 3u);
}

}  // namespace
}  // namespace krx
