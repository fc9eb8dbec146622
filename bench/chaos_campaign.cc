// The self-healing supervision soak (EXPERIMENTS.md E19).
//
// One Full+X kernel, N worker Cpus, and every supervision mechanism under
// simultaneous stress for a configurable number of rounds:
//
//   - hang injection: workers are periodically sent into an unbounded spin
//     (`sys_spin`) under a wall-clock deadline; every injected hang must be
//     preempted into kDeadlineExceeded, and the worker must prove recovery
//     by reproducing the witness op's golden result;
//   - one wedge: a step observer freezes a Cpu mid-run (heartbeat nonzero
//     and frozen) until the watchdog's hard-lockup callback quarantines the
//     Cpu and preempts the run — the frozen-lockup detection path, distinct
//     from runaway-but-progressing hangs;
//   - rerand churn: epochs commit concurrently with the worker storm, with
//     periodic failpoint drills (two forced rollbacks stepping the timer
//     aspect down the degradation ladder, then a retried commit);
//   - fault churn: a fresh FaultInjector per round cycles through the
//     eligible fault classes; every injection must be detected with the
//     correct diagnostic or proven benign;
//   - checkpoint/restore: periodic captures at quiesce points; on restore
//     rounds the witness op's entry byte is corrupted with int3 (the
//     "unsurvivable" oops), the trap must be caught, and Restore must bring
//     the machine back to bit-identical witness behaviour across every
//     epoch that committed since the capture.
//
//   chaos_campaign [--rounds <n>] [--cpus <n>] [--seed <seed>] [--json]
//                  [--quick]
//
// Exit status 0 iff 100% of injected hangs were detected, every injection
// was accounted, every restore reproduced the golden witness, and >= 95% of
// recovery attempts succeeded without process exit. --json emits
// BENCH_chaos.json content (meta + gates + recovery-latency percentiles +
// the metrics registry) on stdout.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <inttypes.h>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "src/fault/injector.h"
#include "src/ir/builder.h"
#include "src/kernel/assembler.h"
#include "src/plugin/pipeline.h"
#include "src/rerand/engine.h"
#include "src/supervise/checkpoint.h"
#include "src/supervise/health.h"
#include "src/supervise/watchdog.h"
#include "src/workload/corpus.h"
#include "src/workload/ops.h"

namespace krx {
namespace {

using SteadyClock = std::chrono::steady_clock;

struct ChaosOptions {
  int rounds = 12;
  int cpus = 3;
  int runs_per_worker = 3;   // runs per worker per round
  uint64_t seed = 0xC4A05;
  uint64_t hang_deadline_us = 2'000;
  uint64_t quiesce_timeout_ms = 2'000;
  int injections_per_round = 3;
  bool json = false;
};

// Wall-clock gates, generous enough for ASan/loaded CI machines.
constexpr uint64_t kHangDetectBoundUs = 1'000'000;  // per injected hang
constexpr uint64_t kWedgeBoundMs = 5'000;           // observer self-release

uint64_t ElapsedUs(SteadyClock::time_point since) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   SteadyClock::now() - since)
                                   .count());
}

// An unbounded spin (no memory traffic): the runaway-but-progressing guest
// the deadline exists for. kDefaultMaxSteps would stop it as kStepLimit, so
// hang runs raise max_steps far past what any deadline allows to retire.
void AddSpinFunction(KernelSource* src) {
  FunctionBuilder b("sys_spin");
  b.Emit(Instruction::MovRI(Reg::kRax, 0));
  b.Emit(Instruction::MovRI(Reg::kRcx, int64_t{1} << 40));
  const int32_t head = b.ReserveBlock();
  b.Bind(head);
  b.Emit(Instruction::AddRR(Reg::kRax, Reg::kRcx));
  b.Emit(Instruction::SubRI(Reg::kRcx, 1));
  b.Emit(Instruction::JccBlock(Cond::kNe, head));
  b.Emit(Instruction::Ret());
  src->functions.push_back(b.Build());
  src->symbols.Intern("sys_spin");
}

struct Percentiles {
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
};

Percentiles Summarize(std::vector<uint64_t> v) {
  Percentiles p;
  if (v.empty()) {
    return p;
  }
  std::sort(v.begin(), v.end());
  p.p50 = v[v.size() / 2];
  p.p99 = v[std::min(v.size() - 1, (v.size() * 99) / 100)];
  p.max = v.back();
  return p;
}

struct CampaignTally {
  // Hang gate.
  uint64_t hangs_injected = 0;
  uint64_t hangs_detected = 0;
  uint64_t hang_detect_max_us = 0;
  // Recovery gate (hang witnesses + checkpoint restores).
  uint64_t recovery_attempts = 0;
  uint64_t recovered = 0;
  std::vector<uint64_t> recovery_latency_us;
  // Fault churn.
  uint64_t injections = 0;
  uint64_t injections_accounted = 0;
  // Checkpoint drills.
  uint64_t captures = 0;
  uint64_t restores = 0;
  uint64_t restores_identical = 0;
  uint64_t corruption_traps = 0;
  // Wedge.
  bool wedge_ran = false;
  bool wedge_detected = false;
  uint64_t wedge_wall_us = 0;
  // Background runs that failed to reproduce the golden result.
  uint64_t anomalies = 0;
  uint64_t quarantine_skips = 0;

  std::mutex mu;  // guards the fields the worker threads touch
};

int Run(const ChaosOptions& opts) {
  // --- Build: base corpus + a read-only mixed op (the witness) + the spin.
  // No writes in the op profile: its %rax depends only on the static buffer
  // fill, so concurrent workers can share one buffer and every clean run is
  // bit-comparable against one golden value.
  KernelSource src = MakeBaseSource();
  src.phys_bytes = 16ULL << 20;  // keep checkpoint snapshots cheap
  OpProfile profile;
  profile.name = "chaos";
  profile.loop_iters = 6;
  profile.coalescible_reads = 4;
  profile.chased_reads = 2;
  profile.indexed_reads = 2;
  profile.flagful_reads = 1;
  profile.alu = 4;
  profile.rsp_reads = 1;
  profile.calls = 1;
  profile.leaf_depth = 2;
  const std::string witness_op = EmitKernelOp(&src, profile);
  AddSpinFunction(&src);

  ProtectionConfig config = ProtectionConfig::Full(/*with_mpx=*/false, RaScheme::kEncrypt,
                                                   opts.seed);
  auto kernel = CompileKernel(std::move(src), {config, LayoutKind::kKrx});
  if (!kernel.ok()) {
    std::fprintf(stderr, "chaos: compile failed: %s\n", kernel.status().ToString().c_str());
    return 2;
  }
  KernelImage& image = *kernel->image;
  auto buffer = SetUpOpBuffer(image, opts.seed);
  if (!buffer.ok()) {
    std::fprintf(stderr, "chaos: buffer setup failed: %s\n",
                 buffer.status().ToString().c_str());
    return 2;
  }

  // --- Supervision plumbing.
  RerandOptions rerand_options;
  rerand_options.seed = opts.seed ^ 0x5EED;
  rerand_options.quiesce_timeout_ms = opts.quiesce_timeout_ms;
  RerandEngine engine(&*kernel, rerand_options);
  RetryPolicy epoch_policy;
  epoch_policy.max_attempts = 3;
  epoch_policy.base_backoff = std::chrono::microseconds(200);
  engine.set_retry_policy(epoch_policy);

  HealthState health;
  Watchdog watchdog;

  std::vector<std::unique_ptr<Cpu>> cpus;
  std::vector<std::atomic<uint64_t>*> heartbeats;
  std::atomic<bool> unwedge{false};
  for (int i = 0; i < opts.cpus; ++i) {
    cpus.push_back(std::make_unique<Cpu>(&image));
    Cpu* cpu = cpus.back().get();
    engine.RegisterCpu(cpu);
    std::atomic<uint64_t>* hb =
        watchdog.Watch("cpu" + std::to_string(i), [cpu, i, &health, &unwedge] {
          health.RecordHardLockup(i, "watchdog hard lockup");
          cpu->RequestPreempt();
          unwedge.store(true, std::memory_order_release);
        });
    cpu->set_heartbeat_slot(hb);
    heartbeats.push_back(hb);
  }
  watchdog.Start();

  CheckpointManager ckpt(&image);
  for (auto& cpu : cpus) {
    ckpt.TrackCpu(cpu.get());
  }
  // The engine's layout bookkeeping must rewind with the bytes it describes:
  // a restore that rewrites .text to a snapshot layout but leaves the map's
  // current offsets at the post-snapshot permutation would corrupt the next
  // epoch. The offsets travel as opaque host state.
  RerandMap* map = kernel->rerand.get();
  ckpt.AddHostState(
      [map] {
        std::vector<uint64_t> offsets;
        offsets.reserve(map->functions.size());
        for (const RerandFunction& fn : map->functions) {
          offsets.push_back(fn.current_offset);
        }
        return offsets;
      },
      [map](const std::vector<uint64_t>& offsets) {
        for (size_t i = 0; i < offsets.size() && i < map->functions.size(); ++i) {
          map->functions[i].current_offset = offsets[i];
        }
      });

  CampaignTally tally;

  // --- Golden witness (before any churn).
  const RunResult golden = cpus[0]->CallFunction(witness_op, {*buffer});
  if (golden.reason != StopReason::kReturned) {
    std::fprintf(stderr, "chaos: golden witness run failed: %s\n",
                 StopReasonName(golden.reason));
    return 2;
  }

  // Witness helper: proves a Cpu is healthy again by reproducing the golden
  // result. Returns true and records the latency on success.
  auto recover_via_witness = [&](Cpu* cpu) {
    const SteadyClock::time_point t0 = SteadyClock::now();
    const RunResult r = cpu->CallFunction(witness_op, {*buffer});
    const uint64_t us = ElapsedUs(t0);
    std::lock_guard<std::mutex> lock(tally.mu);
    ++tally.recovery_attempts;
    if (r.reason == StopReason::kReturned && r.rax == golden.rax) {
      ++tally.recovered;
      tally.recovery_latency_us.push_back(us);
      return true;
    }
    return false;
  };

  const int wedge_round = opts.rounds - 2;  // late: quarantine costs a worker
  const int wedge_cpu = opts.cpus - 1;

  for (int round = 0; round < opts.rounds; ++round) {
    // --- Wedge scenario: freeze a run mid-instruction-stream (the observer
    // busy-waits, so the heartbeat stays nonzero and frozen) until the
    // watchdog's hard path quarantines the Cpu and preempts it.
    if (round == wedge_round && wedge_cpu >= 0) {
      Cpu* cpu = cpus[wedge_cpu].get();
      unwedge.store(false, std::memory_order_release);
      uint64_t observed_steps = 0;
      const SteadyClock::time_point wedge_start = SteadyClock::now();
      cpu->set_step_observer([&](const Cpu&) {
        if (++observed_steps != 64) {
          return;
        }
        while (!unwedge.load(std::memory_order_acquire)) {
          if (ElapsedUs(wedge_start) > kWedgeBoundMs * 1000) {
            return;  // watchdog never fired; the run ends as kStepLimit
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
      RunOptions run;
      run.max_steps = 10'000'000;
      const RunResult r = cpu->CallFunction("sys_spin", {}, run);
      cpu->set_step_observer(nullptr);
      tally.wedge_ran = true;
      tally.wedge_wall_us = ElapsedUs(wedge_start);
      tally.wedge_detected = r.reason == StopReason::kDeadlineExceeded &&
                             watchdog.hard_lockups() > 0 &&
                             health.cpu_quarantined(wedge_cpu);
      ++tally.hangs_injected;
      if (tally.wedge_detected) {
        ++tally.hangs_detected;
        tally.hang_detect_max_us = std::max(tally.hang_detect_max_us, tally.wedge_wall_us);
      }
      // Recovery for a quarantined Cpu is the quarantine itself: the storm
      // below routes work away from it. Count the rerouting as an attempt.
      std::lock_guard<std::mutex> lock(tally.mu);
      ++tally.recovery_attempts;
      if (tally.wedge_detected) {
        ++tally.recovered;
        tally.recovery_latency_us.push_back(tally.wedge_wall_us);
      }
    }

    // --- Worker storm: each worker mixes clean witness runs with injected
    // hangs; the orchestrator commits rerand epochs underneath them.
    std::vector<std::thread> workers;
    for (int w = 0; w < opts.cpus; ++w) {
      workers.emplace_back([&, w] {
        Rng rng(opts.seed ^ (0x9E3779B97F4A7C15ULL * (w + 1)) ^
                (uint64_t{0xC11A05} * (round + 1)));
        Cpu* cpu = cpus[w].get();
        for (int k = 0; k < opts.runs_per_worker; ++k) {
          if (health.cpu_quarantined(w)) {
            std::lock_guard<std::mutex> lock(tally.mu);
            ++tally.quarantine_skips;
            continue;
          }
          const bool inject_hang = (round == 0 && k == 0) || rng.NextBelow(4) == 0;
          if (inject_hang) {
            RunOptions run;
            run.max_steps = 4'000'000'000ULL;
            run.deadline_us = opts.hang_deadline_us;
            if (!health.block_cache_enabled()) {
              run.engine = ExecEngine::kSingleStep;
            }
            const SteadyClock::time_point t0 = SteadyClock::now();
            const RunResult r = cpu->CallFunction("sys_spin", {}, run);
            const uint64_t us = ElapsedUs(t0);
            {
              std::lock_guard<std::mutex> lock(tally.mu);
              ++tally.hangs_injected;
              if (r.reason == StopReason::kDeadlineExceeded && us <= kHangDetectBoundUs) {
                ++tally.hangs_detected;
              }
              tally.hang_detect_max_us = std::max(tally.hang_detect_max_us, us);
            }
            recover_via_witness(cpu);
          } else {
            RunOptions run;
            if (!health.block_cache_enabled()) {
              run.engine = ExecEngine::kSingleStep;
            }
            const RunResult r = cpu->CallFunction(witness_op, {*buffer}, run);
            if (r.reason != StopReason::kReturned || r.rax != golden.rax) {
              std::lock_guard<std::mutex> lock(tally.mu);
              ++tally.anomalies;
            }
          }
        }
      });
    }

    // Rerand churn from the orchestrator (not inside any gated run). Drill
    // rounds force two consecutive rollbacks — enough to step the timer
    // aspect down the ladder — then prove the retried commit still lands.
    if (round % 5 == 3) {
      engine.set_failpoint(RerandStep::kRelayout);
      for (int f = 0; f < 2; ++f) {
        auto failed = engine.RunEpoch(RerandTrigger::kTimer);
        if (!failed.ok()) {
          health.RecordEpochRollback(failed.status().message());
        }
      }
      engine.clear_failpoint();
    }
    auto epoch = engine.RunEpochWithRetry(RerandTrigger::kTimer);
    if (epoch.ok()) {
      health.RecordEpochCommit();
    } else {
      health.RecordEpochRollback(epoch.status().message());
    }

    for (std::thread& t : workers) {
      t.join();
    }

    // --- Fault churn: a fresh injector per round (golden runs and traced
    // addresses go stale whenever an epoch or a restore moves the text).
    {
      FaultInjector injector(&*kernel, /*buffer_seed=*/opts.seed ^ round);
      const std::vector<FaultClass> classes = injector.EligibleClasses();
      Rng rng(opts.seed ^ (0xFA017ULL * (round + 1)));
      for (int j = 0; j < opts.injections_per_round && !classes.empty(); ++j) {
        const FaultClass cls = classes[(round * opts.injections_per_round + j) %
                                       classes.size()];
        auto outcome = injector.Inject(cls, witness_op, rng);
        ++tally.injections;
        if (outcome.ok() && (outcome->correct || outcome->detection == Detection::kBenign)) {
          ++tally.injections_accounted;
        } else if (!outcome.ok()) {
          std::fprintf(stderr, "chaos: injection host error (%s): %s\n",
                       FaultClassName(cls), outcome.status().ToString().c_str());
        }
      }
    }

    // --- Checkpoint cadence: capture on 3k rounds, corrupt + restore on
    // 3k+2 — so every restore rewinds across the epochs and injections of
    // the two intervening rounds.
    if (round % 3 == 0) {
      Status s = ckpt.Capture(&engine.gate(), opts.quiesce_timeout_ms);
      if (s.ok()) {
        ++tally.captures;
      } else {
        std::fprintf(stderr, "chaos: capture failed: %s\n", s.ToString().c_str());
      }
    } else if (round % 3 == 2 && ckpt.has_checkpoint()) {
      // The "unsurvivable" event: tripwire byte on the witness entry. The
      // very next witness run must trap, and only Restore can heal it.
      auto entry = image.symbols().AddressOf(witness_op);
      if (entry.ok()) {
        const uint8_t int3 = kTextPadByte;  // Opcode::kInt3 in the krx64 encoding
        if (image.PokeBytes(*entry, &int3, 1).ok()) {
          image.BumpTextGeneration();  // predecoded blocks hold stale bytes
          const RunResult trapped = cpus[0]->CallFunction(witness_op, {*buffer});
          if (trapped.reason == StopReason::kException &&
              trapped.exception == ExceptionKind::kBreakpoint) {
            ++tally.corruption_traps;
          }
          health.RecordBlockCacheCorruption("int3 tripwire in " + witness_op);
          const SteadyClock::time_point t0 = SteadyClock::now();
          Status s = ckpt.Restore(&engine.gate(), opts.quiesce_timeout_ms);
          ++tally.restores;
          if (s.ok()) {
            const RunResult healed = cpus[0]->CallFunction(witness_op, {*buffer});
            std::lock_guard<std::mutex> lock(tally.mu);
            ++tally.recovery_attempts;
            if (healed.reason == StopReason::kReturned && healed.rax == golden.rax) {
              ++tally.restores_identical;
              ++tally.recovered;
              // Restore latency through the healed witness run: detection
              // already happened (the trap above); this is time-to-recovered.
              tally.recovery_latency_us.push_back(ElapsedUs(t0));
            }
          } else {
            std::fprintf(stderr, "chaos: restore failed: %s\n", s.ToString().c_str());
            std::lock_guard<std::mutex> lock(tally.mu);
            ++tally.recovery_attempts;
          }
        }
      }
    }
  }

  watchdog.Stop();
  for (size_t i = 0; i < cpus.size(); ++i) {
    cpus[i]->set_heartbeat_slot(nullptr);
  }

  // --- Gates.
  const bool hangs_ok = tally.hangs_injected > 0 &&
                        tally.hangs_detected == tally.hangs_injected &&
                        tally.hang_detect_max_us <= kHangDetectBoundUs;
  const bool recovery_ok =
      tally.recovery_attempts > 0 &&
      static_cast<double>(tally.recovered) >=
          0.95 * static_cast<double>(tally.recovery_attempts);
  const bool injections_ok = tally.injections > 0 &&
                             tally.injections_accounted == tally.injections;
  const bool restores_ok = tally.restores > 0 &&
                           tally.restores_identical == tally.restores &&
                           tally.corruption_traps == tally.restores;
  const bool wedge_ok = !tally.wedge_ran || tally.wedge_detected;
  const bool clean_ok = tally.anomalies == 0;
  const bool ok = hangs_ok && recovery_ok && injections_ok && restores_ok && wedge_ok &&
                  clean_ok;

  const Percentiles rec = Summarize(tally.recovery_latency_us);
  const uint64_t epochs = engine.epochs_completed();
  const uint64_t epoch_failures = engine.epoch_failures();
  const int degradations = static_cast<int>(health.transitions().size());

  if (opts.json) {
    std::string out = "{\n  \"meta\": " +
                      bench_json::MetaBlock("chaos_campaign", opts.seed, "full-x", "krx") +
                      ",\n";
    char buf[1024];
    std::snprintf(buf, sizeof(buf),
                  "  \"rounds\": %d, \"cpus\": %d,\n"
                  "  \"hangs\": {\"injected\": %" PRIu64 ", \"detected\": %" PRIu64
                  ", \"detect_max_us\": %" PRIu64 ", \"wedge_detected\": %s},\n"
                  "  \"injections\": {\"total\": %" PRIu64 ", \"accounted\": %" PRIu64
                  "},\n"
                  "  \"rerand\": {\"epochs\": %" PRIu64 ", \"failures\": %" PRIu64 "},\n"
                  "  \"checkpoints\": {\"captures\": %" PRIu64 ", \"restores\": %" PRIu64
                  ", \"bit_identical\": %" PRIu64 ", \"corruption_traps\": %" PRIu64
                  "},\n"
                  "  \"health\": {\"degradations\": %d, \"quarantined_cpus\": %d, "
                  "\"block_cache_enabled\": %s, \"rerand_timer_enabled\": %s, "
                  "\"quarantine_skips\": %" PRIu64 "},\n"
                  "  \"recovery\": {\"attempts\": %" PRIu64 ", \"recovered\": %" PRIu64
                  ", \"p50_us\": %" PRIu64 ", \"p99_us\": %" PRIu64 ", \"max_us\": %" PRIu64
                  "},\n"
                  "  \"anomalies\": %" PRIu64 ", \"pass\": %s,\n",
                  opts.rounds, opts.cpus, tally.hangs_injected, tally.hangs_detected,
                  tally.hang_detect_max_us, tally.wedge_detected ? "true" : "false",
                  tally.injections, tally.injections_accounted, epochs, epoch_failures,
                  tally.captures, tally.restores, tally.restores_identical,
                  tally.corruption_traps, degradations, health.quarantined_cpus(),
                  health.block_cache_enabled() ? "true" : "false",
                  health.rerand_timer_enabled() ? "true" : "false", tally.quarantine_skips,
                  tally.recovery_attempts, tally.recovered, rec.p50, rec.p99, rec.max,
                  tally.anomalies, ok ? "true" : "false");
    out += buf;
    // Which degradation-ladder rungs tripped, and why (README points
    // operators here when health.degradations is nonzero).
    out += "  \"transitions\": [";
    const std::vector<HealthTransition> transitions = health.transitions();
    for (size_t i = 0; i < transitions.size(); ++i) {
      const HealthTransition& t = transitions[i];
      std::snprintf(buf, sizeof(buf), "%s{\"aspect\": \"%s\", \"cpu\": %d, \"to\": \"%s\"}",
                    i == 0 ? "" : ", ", HealthAspectName(t.aspect), t.cpu,
                    HealthLevelName(t.to));
      out += buf;
    }
    out += "],\n";
    out += "  \"metrics\": " + bench_json::MetricsBlock() + "\n}\n";
    std::fputs(out.c_str(), stdout);
  } else {
    std::printf("chaos campaign: %d rounds x %d cpus (seed 0x%llx)\n", opts.rounds,
                opts.cpus, static_cast<unsigned long long>(opts.seed));
    std::printf("  hangs:       %" PRIu64 "/%" PRIu64 " detected, max %" PRIu64
                "us (wedge %s)\n",
                tally.hangs_detected, tally.hangs_injected, tally.hang_detect_max_us,
                tally.wedge_ran ? (tally.wedge_detected ? "detected" : "MISSED") : "off");
    std::printf("  injections:  %" PRIu64 "/%" PRIu64 " accounted\n",
                tally.injections_accounted, tally.injections);
    std::printf("  rerand:      %" PRIu64 " epochs committed, %" PRIu64
                " rollbacks (drills included)\n",
                epochs, epoch_failures);
    std::printf("  checkpoints: %" PRIu64 " captures, %" PRIu64 "/%" PRIu64
                " restores bit-identical, %" PRIu64 " traps\n",
                tally.captures, tally.restores_identical, tally.restores,
                tally.corruption_traps);
    std::printf("  health:      %d degradations, %d quarantined cpu(s), cache %s, "
                "timer %s\n",
                degradations, health.quarantined_cpus(),
                health.block_cache_enabled() ? "on" : "off",
                health.rerand_timer_enabled() ? "on" : "off");
    std::printf("  recovery:    %" PRIu64 "/%" PRIu64 " recovered, p50 %" PRIu64
                "us p99 %" PRIu64 "us max %" PRIu64 "us\n",
                tally.recovered, tally.recovery_attempts, rec.p50, rec.p99, rec.max);
    std::printf("  anomalies:   %" PRIu64 "\n", tally.anomalies);
    std::printf("%s\n", ok ? "PASS" : "FAIL");
  }
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  ChaosOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      opts.rounds = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--cpus") == 0 && i + 1 < argc) {
      opts.cpus = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opts.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opts.json = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      opts.rounds = 6;
      opts.cpus = 2;
      opts.injections_per_round = 2;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--rounds <n>] [--cpus <n>] [--seed <seed>] [--json] "
                   "[--quick]\n",
                   argv[0]);
      return 2;
    }
  }
  if (opts.rounds < 3 || opts.cpus < 1) {
    std::fprintf(stderr, "chaos: need >= 3 rounds and >= 1 cpu\n");
    return 2;
  }
  return Run(opts);
}

}  // namespace
}  // namespace krx

int main(int argc, char** argv) { return krx::Main(argc, argv); }
