// Telemetry subsystem acceptance tests (DESIGN.md §11).
//
// Pinned contracts: ring wrap-around loses oldest records only; concurrent
// emission from many threads is race-free (per-thread rings — run this
// under the ASan preset); the sampling guest profiler attributes a spin
// workload to the right function; metric snapshots are a deterministic
// function of (source, seed, config); and the Chrome exporter produces a
// parseable, balanced document with the compile -> bench task -> cpu.run
// nesting plus the rerand epoch span.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/bench_runner/bench_runner.h"
#include "src/cpu/cpu.h"
#include "src/ir/builder.h"
#include "src/isa/encoding.h"
#include "src/plugin/pipeline.h"
#include "src/rerand/engine.h"
#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/json.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/profiler.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/corpus.h"
#include "src/workload/harness.h"

namespace krx {
namespace {

using telemetry::TraceEventType;

// Restores the entry mode when a test that flips it exits.
class ModeGuard {
 public:
  ModeGuard() : saved_(telemetry::Mode()) {}
  ~ModeGuard() { telemetry::SetMode(saved_); }

 private:
  uint32_t saved_;
};

TEST(TraceRing, WrapLosesOldestFirst) {
  telemetry::TraceRing ring(/*tid=*/0, /*capacity=*/8);
  for (uint64_t i = 0; i < 20; ++i) {
    ring.Emit(TraceEventType::kInstant, "e", /*arg0=*/i);
  }
  EXPECT_EQ(ring.emitted(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  std::vector<telemetry::TraceRecord> window = ring.Snapshot();
  ASSERT_EQ(window.size(), 8u);
  // The retained window is exactly the most recent 8, oldest-first.
  for (size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].arg0, 12 + i) << "slot " << i;
  }
  ring.Clear();
  EXPECT_TRUE(ring.Snapshot().empty());
}

TEST(TraceRing, PartiallyFilledSnapshotInOrder) {
  telemetry::TraceRing ring(0, 8);
  for (uint64_t i = 0; i < 5; ++i) {
    ring.Emit(TraceEventType::kInstant, "e", i);
  }
  std::vector<telemetry::TraceRecord> window = ring.Snapshot();
  ASSERT_EQ(window.size(), 5u);
  for (size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].arg0, i);
  }
  EXPECT_EQ(ring.dropped(), 0u);
}

// Four threads emit concurrently through the public macro path. Each
// thread owns its ring, so this must be free of data races (the ASan/TSan
// value of this test) and lose nothing below ring capacity.
TEST(TraceRing, ConcurrentEmissionIsPerThreadAndLossless) {
  ModeGuard guard;
  telemetry::SetMode(telemetry::kModeMetrics | telemetry::kModeTrace);
  telemetry::ClearAllRings();
  constexpr int kThreads = 4;
  constexpr uint64_t kEvents = 4096;  // below capacity: nothing may drop
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      telemetry::SetThreadName("emitter-" + std::to_string(t));
      for (uint64_t i = 0; i < kEvents; ++i) {
        KRX_TRACE_EVENT(kInstant, "concurrent_event", i, static_cast<uint64_t>(t));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  uint64_t per_thread_rings = 0;
  uint64_t total = 0;
  for (const auto& ring : telemetry::AllRings()) {
    std::vector<telemetry::TraceRecord> window = ring->Snapshot();
    uint64_t mine = 0;
    uint64_t last_ts = 0;
    for (const telemetry::TraceRecord& r : window) {
      if (std::string(r.name) != "concurrent_event") {
        continue;
      }
      ++mine;
      EXPECT_GE(r.ts_us, last_ts);  // emission order preserved per ring
      last_ts = r.ts_us;
    }
    if (mine != 0) {
      ++per_thread_rings;
      EXPECT_EQ(mine, kEvents);  // one writer per ring, nothing lost
      total += mine;
    }
  }
  EXPECT_EQ(per_thread_rings, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(total, kThreads * kEvents);
}

// spin_hot: rax accumulates while rcx counts down — millions of retired
// instructions inside one function body, the profiler's easiest target.
void AddSpinFunction(KernelSource* src, int64_t iterations) {
  FunctionBuilder b("spin_hot");
  b.Emit(Instruction::MovRI(Reg::kRax, 0));
  b.Emit(Instruction::MovRI(Reg::kRcx, iterations));
  const int32_t head = b.ReserveBlock();
  b.Bind(head);
  b.Emit(Instruction::AddRR(Reg::kRax, Reg::kRcx));
  b.Emit(Instruction::SubRI(Reg::kRcx, 1));
  b.Emit(Instruction::JccBlock(Cond::kNe, head));
  b.Emit(Instruction::Ret());
  src->functions.push_back(b.Build());
  src->symbols.Intern("spin_hot");
}

TEST(GuestProfiler, AttributesSpinWorkload) {
  KernelSource src = MakeBaseSource();
  AddSpinFunction(&src, 2'000'000);
  ProtectionConfig config;
  LayoutKind layout;
  ASSERT_TRUE(ParseConfigName("sfi-o3", 0x5A1, &config, &layout));
  auto kernel = CompileKernel(std::move(src), {config, layout});
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  KernelImage& image = *kernel->image;

  // Flatten the symbol table into profiler extents (the krx_trace idiom).
  std::vector<telemetry::FunctionExtent> extents;
  uint64_t handler_lo = 0, handler_hi = 0;
  for (size_t i = 0; i < image.symbols().size(); ++i) {
    const Symbol& sym = image.symbols().at(static_cast<int32_t>(i));
    if (!sym.defined || sym.kind != SymbolKind::kFunction || sym.size == 0) {
      continue;
    }
    telemetry::FunctionExtent fn;
    fn.name = sym.name;
    fn.addr = sym.address;
    fn.size = sym.size;
    fn.bytes.resize(sym.size);
    ASSERT_TRUE(image.PeekBytes(sym.address, fn.bytes.data(), fn.bytes.size()).ok());
    if (sym.name == kKrxHandlerName) {
      handler_lo = sym.address;
      handler_hi = sym.address + sym.size;
    }
    extents.push_back(std::move(fn));
  }
  telemetry::GuestProfiler profiler;
  profiler.SetFunctions(std::move(extents), handler_lo, handler_hi);
  std::atomic<uint64_t>* slot = profiler.AddTarget("cpu0");

  Cpu cpu(&image);
  cpu.set_sample_pc_slot(slot);
  profiler.Start(std::chrono::microseconds(50));
  RunOptions run;
  run.max_steps = 100'000'000;
  RunResult r = cpu.CallFunction("spin_hot", {}, run);
  profiler.Stop();
  cpu.set_sample_pc_slot(nullptr);
  ASSERT_EQ(r.reason, StopReason::kReturned);

  telemetry::ProfileReport report = profiler.MakeReport(CostModel());
  const uint64_t busy = report.total_samples - report.idle_samples;
  ASSERT_GT(busy, 20u) << "sampler collected too few busy samples to judge";
  EXPECT_EQ(report.unattributed, 0u);
  uint64_t spin_samples = 0;
  for (const telemetry::FunctionProfile& fn : report.functions) {
    if (fn.name == "spin_hot") {
      spin_samples = fn.samples;
    }
  }
  // >= 90% of busy samples must land in the known-hot function.
  EXPECT_GE(static_cast<double>(spin_samples), 0.9 * static_cast<double>(busy))
      << spin_samples << " of " << busy << " busy samples attributed to spin_hot";
}

// The census prices every instruction with the interpreter's CostModel,
// including the forms a coarse per-class price gets wrong: hlt and ud2,
// syscall/sysret (half a mode switch each), lfence, and rip-relative
// add/cmp/cmpl, which the interpreter charges as full loads.
TEST(GuestProfiler, CensusPricesWithTheInterpreterCostModel) {
  constexpr uint64_t kFnAddr = 0x1000;
  constexpr uint64_t kHandlerLo = 0x2000;
  constexpr uint64_t kHandlerHi = 0x2040;
  std::vector<Instruction> insts = {
      Instruction::Lea(Reg::kR11, MemOperand::Base(Reg::kRdi, 8)),
      Instruction::CmpRI(Reg::kR11, 0x7fff),
      Instruction::JccBlock(Cond::kA, -1),  // into the handler; rel32 patched below
      Instruction::Bndcu(MemOperand::Base(Reg::kRdi, 8)),
      Instruction::AddRM(Reg::kRax, MemOperand::RipRel(0x40)),
      Instruction::CmpRM(Reg::kRax, MemOperand::RipRel(0x40)),
      Instruction::CmpMI(MemOperand::RipRel(0x40), 1),
      Instruction::SpecFence(),
      Instruction::Syscall(),
      Instruction::Sysret(),
      Instruction::Hlt(),
      Instruction::Ud2(),
  };
  telemetry::FunctionExtent fn;
  fn.name = "census_forms";
  fn.addr = kFnAddr;
  const CostModel cost;
  uint64_t expected_total = 0;
  for (Instruction& inst : insts) {
    if (inst.op == Opcode::kJcc) {
      const uint64_t next = kFnAddr + fn.bytes.size() + EncodedSize(inst);
      inst.imm = static_cast<int64_t>(kHandlerLo - next);
    }
    EncodeInstruction(inst, fn.bytes);
    expected_total += cost.CostOf(inst);
  }
  fn.size = fn.bytes.size();

  const telemetry::CheckCensus census = telemetry::CensusOf(fn, kHandlerLo, kHandlerHi, cost);
  EXPECT_EQ(census.total_decicycles, expected_total);
  EXPECT_EQ(census.sfi_checks, 1u);
  EXPECT_EQ(census.mpx_checks, 1u);
  // The check branch is credited with the lea and cmp that feed it.
  EXPECT_EQ(census.check_decicycles, cost.lea + cost.alu + cost.branch + cost.bndcu);
}

// One seeded compile + run, observed through the registry twice: the
// deterministic (non-timing) snapshot must be byte-identical.
TEST(Metrics, DeterministicSnapshotForFixedSeed) {
  ModeGuard guard;
  telemetry::SetMode(telemetry::kModeMetrics);
  auto pass = [] {
    telemetry::MetricsRegistry::Global().Reset();
    ProtectionConfig config;
    LayoutKind layout;
    EXPECT_TRUE(ParseConfigName("sfi-o3", 0xDE7, &config, &layout));
    auto kernel = CompileKernel(MakeBenchSource(0xDE7), {config, layout});
    EXPECT_TRUE(kernel.ok()) << kernel.status().ToString();
    auto buf = SetUpOpBuffer(*kernel->image, 0xDE7);
    EXPECT_TRUE(buf.ok());
    Cpu cpu(kernel->image.get());
    RunResult r = cpu.CallFunction("sys_read_write", {*buf});
    EXPECT_EQ(r.reason, StopReason::kReturned);
    return telemetry::MetricsRegistry::Global().SnapshotJson(/*include_timing=*/false);
  };
  const std::string first = pass();
  const std::string second = pass();
  EXPECT_EQ(first, second);
  // Sanity: the deterministic snapshot actually contains the run counters.
  EXPECT_NE(first.find("\"cpu.runs\": 1"), std::string::npos) << first;
  EXPECT_NE(first.find("compile.builds"), std::string::npos);
}

TEST(Metrics, DisabledModeEmitsNothing) {
  ModeGuard guard;
  telemetry::SetMode(0);
  telemetry::MetricsRegistry::Global().Reset();
  KRX_COUNTER_ADD("test.disabled_counter", 7);
  telemetry::SetMode(telemetry::kModeMetrics);
  KRX_COUNTER_ADD("test.enabled_counter", 7);
  const std::string snap = telemetry::MetricsRegistry::Global().SnapshotJson();
  EXPECT_NE(snap.find("\"test.enabled_counter\": 7"), std::string::npos);
  EXPECT_EQ(snap.find("\"test.disabled_counter\": 7"), std::string::npos);
}

// End-to-end: bench tasks + a live rerand epoch under full tracing, then
// the exported Chrome JSON must parse, balance, and show the promised
// nesting: compile and cpu.run spans inside a bench task span, and the
// rerand.epoch span with its step instants.
TEST(ChromeTrace, ExportParsesAndNestsSpans) {
  ModeGuard guard;
  telemetry::SetMode(telemetry::kModeMetrics | telemetry::kModeTrace);
  telemetry::ClearAllRings();

  KernelCache cache(MakeBenchSourceFactory(0xC12));
  BenchRunnerOptions opts;
  opts.threads = 1;
  opts.seed = 0xC12;
  const std::vector<BenchTask> tasks =
      MakeBenchMatrix({"sfi-o3"}, /*lmbench_rows=*/1, /*repeat=*/1, /*with_phoronix=*/false);
  std::vector<TaskResult> results = BenchRunner(opts, &cache).Run(tasks);
  for (const TaskResult& r : results) {
    EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
  }

  ProtectionConfig config;
  LayoutKind layout;
  ASSERT_TRUE(ParseConfigName("sfi+x", 0xC12, &config, &layout));
  auto kernel = CompileKernel(MakeBenchSource(0xC12), {config, layout});
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  RerandEngine engine(&*kernel);
  auto epoch = engine.RunEpoch();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();

  const std::string chrome = telemetry::ExportChromeTrace();
  auto doc = telemetry::ParseJson(chrome);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const telemetry::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array.empty());

  // Replay each thread's span stack: the document must be balanced, and
  // the nesting relations must actually occur.
  std::map<double, std::vector<std::string>> stacks;  // tid -> open span names
  bool cpu_run_inside_task = false;
  bool compile_inside_task = false;
  bool rerand_step_inside_epoch = false;
  auto stack_has_task = [](const std::vector<std::string>& stack) {
    for (const std::string& name : stack) {
      if (name.rfind("task:", 0) == 0) {
        return true;
      }
    }
    return false;
  };
  for (const telemetry::JsonValue& ev : events->array) {
    const std::string ph = ev.Find("ph") ? ev.Find("ph")->StringOr("") : "";
    const std::string name = ev.Find("name") ? ev.Find("name")->StringOr("") : "";
    const double tid = ev.Find("tid") ? ev.Find("tid")->NumberOr(-1) : -1;
    std::vector<std::string>& stack = stacks[tid];
    if (ph == "B") {
      if (name == "cpu.run" && stack_has_task(stack)) {
        cpu_run_inside_task = true;
      }
      if (name == "compile" && stack_has_task(stack)) {
        compile_inside_task = true;
      }
      stack.push_back(name);
    } else if (ph == "E") {
      ASSERT_FALSE(stack.empty()) << "unbalanced E on tid " << tid;
      stack.pop_back();
    } else if (ph == "i") {
      const telemetry::JsonValue* args = ev.Find("args");
      const telemetry::JsonValue* type = args ? args->Find("type") : nullptr;
      if (type != nullptr && type->StringOr("") == "rerand_step") {
        for (const std::string& open : stack) {
          if (open == "rerand.epoch") {
            rerand_step_inside_epoch = true;
          }
        }
      }
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span(s) on tid " << tid;
  }
  EXPECT_TRUE(cpu_run_inside_task);
  EXPECT_TRUE(compile_inside_task);
  EXPECT_TRUE(rerand_step_inside_epoch);
}

}  // namespace
}  // namespace krx
