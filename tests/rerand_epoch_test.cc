// Live re-randomization: epochs on a running image must be invisible to the
// guest (bit-identical results), atomic (full rollback on any injected
// failure), and effective (a disclosed gadget address goes stale).
//
// The end-to-end test drives three consecutive epochs while two Cpus have
// in-flight work: Cpu A runs the cooperative scheduler (suspended worker
// tasks hold encrypted return addresses on their stacks across each epoch),
// and Cpu B hammers a generated kernel op from a second thread, entering
// and leaving the quiescence gate the whole time.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "src/attack/gadget_scanner.h"
#include "src/cpu/cpu.h"
#include "src/ir/builder.h"
#include "src/rerand/engine.h"
#include "src/supervise/clock.h"
#include "src/verify/verifier.h"
#include "src/workload/corpus.h"
#include "src/workload/ops.h"
#include "src/workload/sched.h"

namespace krx {
namespace {

constexpr uint64_t kDiversifySeed = 61;
constexpr uint64_t kFillSeed = 0xF111;
constexpr int kProbeRuns = 24;

struct Env {
  CompiledKernel kernel;
  std::unique_ptr<Cpu> cpu_a;
  std::unique_ptr<Cpu> cpu_b;
  uint64_t buf = 0;

  KernelImage& image() { return *kernel.image; }

  uint64_t Global(const char* name) {
    auto addr = kernel.image->symbols().AddressOf(name);
    KRX_CHECK(addr.ok());
    auto v = kernel.image->Peek64(*addr);
    KRX_CHECK(v.ok());
    return *v;
  }
};

// Scheduler + one generated LMBench-style op on the full kR^X column.
// Baseline and live environments must perform identical allocations in
// identical order (frame numbers follow from the sequence of allocations
// and frees), so every Env is built by this one function.
Env MakeEnv() {
  KernelSource src = MakeBaseSource();
  AddSched(&src);
  OpProfile profile;
  profile.name = "probe";
  profile.coalescible_reads = 2;
  profile.chased_reads = 1;
  profile.writes = 1;
  profile.calls = 1;
  profile.leaf_depth = 2;
  EmitKernelOp(&src, profile);

  ProtectionConfig config = ProtectionConfig::Full(false, RaScheme::kEncrypt, kDiversifySeed);
  for (const std::string& name : SchedExemptFunctions()) {
    config.exempt_functions.insert(name);
  }
  auto kernel = CompileKernel(std::move(src), {config, LayoutKind::kKrx});
  KRX_CHECK(kernel.ok());
  Env env{std::move(*kernel), nullptr, nullptr, 0};
  KRX_CHECK(SetUpTaskStacks(env.image()).ok());
  auto buf = SetUpOpBuffer(env.image(), kFillSeed);
  KRX_CHECK(buf.ok());
  env.buf = *buf;
  env.cpu_a = std::make_unique<Cpu>(env.kernel.image.get());
  env.cpu_b = std::make_unique<Cpu>(env.kernel.image.get());
  return env;
}

// The guest-visible trace of one scheduler session on Cpu A: spawn both
// workers, then drive the shared counter in four steps. `epoch` (when
// non-null) fires between the steps — with the workers suspended mid-call-
// chain, so their stacks carry live encrypted return addresses.
std::vector<uint64_t> RunSchedSession(Env& env, const std::function<void()>& epoch) {
  std::vector<uint64_t> trace;
  for (uint64_t slot : {uint64_t{0}, uint64_t{1}}) {
    RunResult r = env.cpu_a->CallFunction("sys_spawn", {slot});
    KRX_CHECK(r.reason == StopReason::kReturned);
    trace.push_back(r.rax);
  }
  for (uint64_t limit : {uint64_t{8}, uint64_t{16}, uint64_t{24}, uint64_t{64}}) {
    RunResult r = env.cpu_a->CallFunction("sched_run", {limit});
    KRX_CHECK(r.reason == StopReason::kReturned);
    trace.push_back(r.rax);
    if (epoch && limit != 64) epoch();
  }
  trace.push_back(env.Global("worker_a_runs"));
  trace.push_back(env.Global("worker_b_runs"));
  trace.push_back(env.Global("sched_counter"));
  return trace;
}

// One op run on Cpu B: refill the scratch buffer deterministically, then
// call the generated entry. `gate` (when non-null) covers the refill so it
// cannot race an epoch's verify pass; the call gates itself via the Cpu.
uint64_t RunProbe(Env& env, int i, QuiesceGate* gate) {
  {
    QuiesceRunScope scope(gate);
    KRX_CHECK(FillOpBuffer(env.image(), env.buf, kFillSeed + static_cast<uint64_t>(i)).ok());
  }
  RunResult r = env.cpu_b->CallFunction("sys_probe", {env.buf});
  KRX_CHECK(r.reason == StopReason::kReturned);
  return r.rax;
}

std::vector<uint8_t> ReadTextBytes(KernelImage& image) {
  const PlacedSection* text = image.FindSection(".text");
  KRX_CHECK(text != nullptr);
  std::vector<uint8_t> bytes(text->size);
  KRX_CHECK(image.PeekBytes(text->vaddr, bytes.data(), bytes.size()).ok());
  return bytes;
}

TEST(RerandEpoch, ThreeEpochsBitIdenticalAcrossTwoCpus) {
  // Baseline: the same guest work, never re-randomized.
  Env baseline = MakeEnv();
  std::vector<uint64_t> base_sched = RunSchedSession(baseline, nullptr);
  std::vector<uint64_t> base_probe;
  for (int i = 0; i < kProbeRuns; ++i) base_probe.push_back(RunProbe(baseline, i, nullptr));

  Env env = MakeEnv();
  RerandEngine engine(&env.kernel);
  engine.RegisterCpu(env.cpu_a.get());
  engine.RegisterCpu(env.cpu_b.get());
  engine.set_stack_range_provider(SchedLiveStackRanges);

  // "Disclose" a gadget before any epoch: scan the live text the way
  // JIT-ROP would and remember one gadget's address and bytes.
  std::vector<uint8_t> pre_text = ReadTextBytes(env.image());
  const uint64_t text_base = env.image().FindSection(".text")->vaddr;
  std::vector<Gadget> gadgets = GadgetScanner().Scan(pre_text.data(), pre_text.size(), text_base);
  ASSERT_FALSE(gadgets.empty());
  const Gadget* leaked = &gadgets[0];
  for (const Gadget& g : gadgets) {
    if (g.payload_len() >= 1) { leaked = &g; break; }
  }
  const uint64_t leak_off = leaked->address - text_base;
  const size_t leak_len = std::min<size_t>(16, pre_text.size() - leak_off);

  // Cpu B hammers the op from a second thread for the whole session.
  std::vector<uint64_t> live_probe(kProbeRuns);
  std::thread prober([&] {
    for (int i = 0; i < kProbeRuns; ++i) live_probe[static_cast<size_t>(i)] = RunProbe(env, i, &engine.gate());
  });

  std::vector<EpochReport> reports;
  std::vector<uint64_t> live_sched = RunSchedSession(env, [&] {
    auto r = engine.RunEpoch();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    reports.push_back(*r);
  });
  prober.join();

  // Bit-identical guest results, on both Cpus.
  EXPECT_EQ(live_sched, base_sched);
  EXPECT_EQ(live_probe, base_probe);

  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(engine.epochs_completed(), 3u);
  EXPECT_EQ(engine.epoch_failures(), 0u);
  const size_t fn_count = engine.map().functions.size();
  for (const EpochReport& r : reports) {
    EXPECT_TRUE(r.verified);
    EXPECT_GE(r.functions_moved, fn_count * 9 / 10);
    EXPECT_EQ(r.keys_rotated, engine.map().xkey_slots.size());
    EXPECT_GT(r.keys_rotated, 0u);
  }
  // The second and third epochs ran with suspended workers, whose stacks
  // hold encrypted in-flight return addresses that had to be re-keyed.
  EXPECT_GT(reports[1].stack_words_rewritten, 0u);
  EXPECT_GT(reports[2].stack_words_rewritten, 0u);

  // The disclosed gadget address is stale: the bytes there are no longer
  // the leaked sequence.
  std::vector<uint8_t> post_text = ReadTextBytes(env.image());
  ASSERT_EQ(post_text.size(), pre_text.size());
  EXPECT_NE(std::vector<uint8_t>(post_text.begin() + static_cast<long>(leak_off),
                                 post_text.begin() + static_cast<long>(leak_off + leak_len)),
            std::vector<uint8_t>(pre_text.begin() + static_cast<long>(leak_off),
                                 pre_text.begin() + static_cast<long>(leak_off + leak_len)));

  // The post-epoch image re-proves the whole protection contract.
  VerifyReport report = VerifyImage(env.image(), VerifyOptions::ForConfig(env.kernel.config));
  EXPECT_TRUE(report.ok()) << report.Summary(8);
}

TEST(RerandEpoch, KeysOnlyRotationMidCallChain) {
  Env baseline = MakeEnv();
  std::vector<uint64_t> base_sched = RunSchedSession(baseline, nullptr);

  Env env = MakeEnv();
  RerandOptions options;
  options.permute = false;  // rotate xkeys, leave the layout alone
  RerandEngine engine(&env.kernel, options);
  engine.RegisterCpu(env.cpu_a.get());
  engine.set_stack_range_provider(SchedLiveStackRanges);

  const RerandMap& map = engine.map();
  ASSERT_FALSE(map.xkey_slots.empty());

  std::vector<uint64_t> fn_addrs, old_keys;
  for (const RerandFunction& fn : map.functions) {
    fn_addrs.push_back(env.image().symbols().at(fn.symbol).address);
  }
  for (const RerandXkeySlot& slot : map.xkey_slots) {
    old_keys.push_back(*env.image().Peek64(slot.vaddr));
  }

  // Fire the epoch while both workers are suspended mid-call-chain.
  std::vector<uint64_t> live_sched = RunSchedSession(env, [&] {
    auto r = engine.RunEpoch();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->functions_moved, 0u);
    EXPECT_GT(r->stack_words_rewritten, 0u);
  });
  EXPECT_EQ(live_sched, base_sched);

  for (size_t i = 0; i < map.functions.size(); ++i) {
    EXPECT_EQ(env.image().symbols().at(map.functions[i].symbol).address, fn_addrs[i]);
  }
  for (size_t i = 0; i < map.xkey_slots.size(); ++i) {
    uint64_t now = *env.image().Peek64(map.xkey_slots[i].vaddr);
    EXPECT_NE(now, old_keys[i]) << map.xkey_slots[i].fn_name;
    EXPECT_NE(now, 0u);
  }
}

TEST(RerandEpoch, ModuleCallSitesRepatchedAcrossEpoch) {
  Env env = MakeEnv();
  ModuleLoader loader(env.kernel.image.get());
  RerandEngine engine(&env.kernel);
  engine.RegisterCpu(env.cpu_a.get());
  engine.set_module_loader(&loader);

  // A module whose text calls into kernel text: the call's rel32 must be
  // re-resolved every epoch (the module does not move, commit_creds does).
  SymbolTable& symbols = env.image().symbols();
  FunctionBuilder b("mod_probe");
  b.Emit(Instruction::CallSym(symbols.Intern("commit_creds")));
  b.Emit(Instruction::MovRI(Reg::kRax, 7));
  b.Emit(Instruction::Ret());
  std::vector<Function> fns;
  fns.push_back(b.Build());
  symbols.Intern("mod_probe");
  auto mod = CompileModule("rr", std::move(fns), {}, symbols, env.kernel.config);
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  ASSERT_TRUE(loader.Load(*mod).ok());

  ASSERT_EQ(env.cpu_a->CallFunction("mod_probe", {0x111}).rax, 7u);
  EXPECT_EQ(env.Global("current_cred"), 0x111u);

  auto r = engine.RunEpoch();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->module_sites_patched, 1u);

  RunResult after = env.cpu_a->CallFunction("mod_probe", {0x222});
  ASSERT_EQ(after.reason, StopReason::kReturned)
      << ExceptionKindName(after.exception) << (after.krx_violation ? " krx" : "");
  EXPECT_EQ(after.rax, 7u);
  EXPECT_EQ(env.Global("current_cred"), 0x222u);
}

TEST(RerandEpoch, TriggerAdaptersAndTimer) {
  Env env = MakeEnv();
  RerandEngine engine(&env.kernel);
  engine.RegisterCpu(env.cpu_a.get());
  engine.set_stack_range_provider(SchedLiveStackRanges);

  auto oops = engine.RunEpoch(RerandTrigger::kOops);
  ASSERT_TRUE(oops.ok());
  EXPECT_EQ(oops->trigger, RerandTrigger::kOops);
  auto leak = engine.RunEpoch(RerandTrigger::kDisclosure);
  ASSERT_TRUE(leak.ok());
  EXPECT_EQ(leak->trigger, RerandTrigger::kDisclosure);

  // Periodic epochs keep firing while the guest keeps running. The timer
  // thread waits on an injected FakeClock, so the test drives its schedule
  // deterministically instead of sleeping real wall-clock periods; the
  // real-time deadline is only a liveness bound on the whole loop.
  const uint64_t before = engine.epochs_completed();
  FakeClock clock;
  engine.StartTimer(std::chrono::milliseconds(5), &clock);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.epochs_completed() < before + 2 &&
         std::chrono::steady_clock::now() < deadline) {
    clock.Advance(std::chrono::milliseconds(6));
    RunResult r = env.cpu_a->CallFunction("sys_probe", {env.buf});
    ASSERT_EQ(r.reason, StopReason::kReturned);
  }
  engine.StopTimer();
  EXPECT_GE(engine.epochs_completed(), before + 2);
  EXPECT_EQ(engine.epoch_failures(), 0u);

  VerifyReport report = VerifyImage(env.image(), VerifyOptions::ForConfig(env.kernel.config));
  EXPECT_TRUE(report.ok()) << report.Summary(8);
}

class RerandFailpointSweep : public ::testing::TestWithParam<int> {};

TEST_P(RerandFailpointSweep, EpochRollsBackCompletely) {
  const RerandStep step = static_cast<RerandStep>(GetParam());
  Env env = MakeEnv();
  RerandEngine engine(&env.kernel);
  engine.RegisterCpu(env.cpu_a.get());
  engine.set_stack_range_provider(SchedLiveStackRanges);

  // Suspend the workers mid-call-chain so the rollback has to restore a
  // state with live in-flight return addresses.
  ASSERT_EQ(env.cpu_a->CallFunction("sys_spawn", {0}).rax, 1u);
  ASSERT_EQ(env.cpu_a->CallFunction("sys_spawn", {1}).rax, 2u);
  ASSERT_EQ(env.cpu_a->CallFunction("sched_run", {16}).reason, StopReason::kReturned);

  KernelImage& image = env.image();
  const SymbolTable& syms = image.symbols();
  std::vector<uint8_t> text_before = ReadTextBytes(image);
  std::vector<uint8_t> keys_before;
  const PlacedSection* xkeys = image.FindSection(".krx_xkeys");
  if (xkeys != nullptr) {
    keys_before.resize(xkeys->size);
    ASSERT_TRUE(image.PeekBytes(xkeys->vaddr, keys_before.data(), keys_before.size()).ok());
  }
  std::vector<uint64_t> addrs_before;
  for (size_t i = 0; i < syms.size(); ++i) {
    addrs_before.push_back(syms.at(static_cast<int32_t>(i)).address);
  }
  std::vector<uint64_t> offsets_before;
  for (const RerandFunction& fn : engine.map().functions) {
    offsets_before.push_back(fn.current_offset);
  }

  engine.set_failpoint(step);
  auto failed = engine.RunEpoch();
  ASSERT_FALSE(failed.ok()) << "failpoint before " << RerandStepName(step)
                            << " did not fail the epoch";
  EXPECT_NE(failed.status().message().find(RerandStepName(step)), std::string::npos);
  EXPECT_EQ(engine.epochs_completed(), 0u);
  EXPECT_EQ(engine.epoch_failures(), 1u);

  // Byte-identical state: text, key material, symbols, layout bookkeeping.
  EXPECT_EQ(ReadTextBytes(image), text_before);
  if (xkeys != nullptr) {
    std::vector<uint8_t> keys_now(xkeys->size);
    ASSERT_TRUE(image.PeekBytes(xkeys->vaddr, keys_now.data(), keys_now.size()).ok());
    EXPECT_EQ(keys_now, keys_before);
  }
  for (size_t i = 0; i < addrs_before.size(); ++i) {
    EXPECT_EQ(syms.at(static_cast<int32_t>(i)).address, addrs_before[i]);
  }
  for (size_t i = 0; i < offsets_before.size(); ++i) {
    EXPECT_EQ(engine.map().functions[i].current_offset, offsets_before[i]);
  }

  // Clearing the failpoint makes the next epoch succeed, and the guest
  // finishes its session on the post-epoch image.
  engine.clear_failpoint();
  auto ok = engine.RunEpoch();
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  RunResult r = env.cpu_a->CallFunction("sched_run", {64});
  ASSERT_EQ(r.reason, StopReason::kReturned)
      << ExceptionKindName(r.exception) << (r.krx_violation ? " krx" : "");
  EXPECT_GE(r.rax, 64u);
}

INSTANTIATE_TEST_SUITE_P(Steps, RerandFailpointSweep,
                         ::testing::Range(0, static_cast<int>(RerandStep::kNumSteps)));

// The gate itself: a writer gets priority over a steady stream of readers
// and observes zero active runs while exclusive.
TEST(QuiesceGateTest, WriterExcludesAndPreempts) {
  QuiesceGate gate;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> runs{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        QuiesceRunScope scope(&gate);
        runs.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    gate.BeginExclusive();
    EXPECT_EQ(gate.active_runs(), 0u);
    gate.EndExclusive();
    // On a single core the writer can win every reacquisition; make sure
    // readers actually get through the gate between exclusive sections.
    while (runs.load() < static_cast<uint64_t>(i + 1)) std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GE(runs.load(), 50u);
}

}  // namespace
}  // namespace krx
