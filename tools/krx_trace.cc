// krx-trace: the telemetry subsystem's CLI.
//
//   krx_trace trace [--out PATH] [--seed S]
//     Run a small bench matrix plus one live re-randomization epoch under
//     full event tracing and export the rings as a Chrome trace-event JSON
//     (load in chrome://tracing or Perfetto).
//   krx_trace top [--n N] [--seed S] [--ms W] [--threads T]
//     Sample the parallel lmbench bench matrix with the guest profiler and
//     print the top-N functions with their protection-check cost
//     attribution and their superblock engine usage (chains rooted in the
//     function, fastpath retirement share), plus a per-worker busy/idle
//     breakdown.
//   krx_trace metrics [--seed S] [--csv] [config]
//     Compile + run one op under the chosen config — plus a supervised
//     scenario (watchdog-caught wedged run, rerand degradation ladder) so
//     the lockup/retry/degradation counters are populated — and print the
//     metrics registry snapshot (the same JSON the bench artifacts embed),
//     or the flat CSV form with --csv.
//   krx_trace validate FILE
//     Parse FILE and require the Chrome trace shape ({"traceEvents": [...]}).
//     CI smoke for exported traces.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/bench_runner/bench_runner.h"
#include "src/cpu/superblock/sb_report.h"
#include "src/rerand/engine.h"
#include "src/supervise/health.h"
#include "src/supervise/watchdog.h"
#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/json.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/profiler.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/corpus.h"
#include "src/workload/harness.h"
#include "src/workload/lmbench.h"

namespace krx {
namespace {

// Flattens the image's symbol table into profiler extents: every defined
// function with a body, bytes peeked for the check census. Returns the
// krx_handler extent separately (zero range when absent).
std::vector<telemetry::FunctionExtent> MakeExtentsFromSymbols(const KernelImage& image,
                                                              uint64_t* handler_lo,
                                                              uint64_t* handler_hi) {
  std::vector<telemetry::FunctionExtent> extents;
  const SymbolTable& symbols = image.symbols();
  *handler_lo = *handler_hi = 0;
  for (size_t i = 0; i < symbols.size(); ++i) {
    const Symbol& sym = symbols.at(static_cast<int32_t>(i));
    if (!sym.defined || sym.kind != SymbolKind::kFunction || sym.size == 0) {
      continue;
    }
    telemetry::FunctionExtent fn;
    fn.name = sym.name;
    fn.addr = sym.address;
    fn.size = sym.size;
    fn.bytes.resize(sym.size);
    if (!image.PeekBytes(sym.address, fn.bytes.data(), fn.bytes.size()).ok()) {
      fn.bytes.clear();  // execute-only the hard way; census skipped
    }
    if (sym.name == "krx_handler") {
      *handler_lo = sym.address;
      *handler_hi = sym.address + sym.size;
    }
    extents.push_back(std::move(fn));
  }
  return extents;
}

int CmdTrace(const std::string& out_path, uint64_t seed) {
  telemetry::SetMode(telemetry::kModeMetrics | telemetry::kModeTrace);
  telemetry::ClearAllRings();
  telemetry::SetThreadName("main");

  // A small matrix: enough to produce nested compile -> task -> cpu.run
  // spans from several worker threads without taking seconds.
  KernelCache cache(MakeBenchSourceFactory(seed));
  BenchRunnerOptions opts;
  opts.threads = 2;
  opts.seed = seed;
  const std::vector<BenchTask> tasks =
      MakeBenchMatrix({"vanilla", "sfi-o3"}, /*lmbench_rows=*/3, /*repeat=*/4,
                      /*with_phoronix=*/false);
  std::vector<TaskResult> results = BenchRunner(opts, &cache).Run(tasks);
  int failures = 0;
  for (const TaskResult& r : results) {
    if (!r.ok) {
      std::fprintf(stderr, "task failed: %s: %s\n", r.name.c_str(), r.error.c_str());
      ++failures;
    }
  }

  // One live epoch so the trace shows the rerand step breakdown.
  ProtectionConfig config;
  LayoutKind layout;
  KRX_CHECK(ParseConfigName("sfi+x", seed, &config, &layout));
  auto kernel = CompileKernel(MakeBenchSource(seed), {config, layout});
  if (!kernel.ok()) {
    std::fprintf(stderr, "epoch kernel build failed: %s\n",
                 kernel.status().ToString().c_str());
    return 1;
  }
  RerandEngine engine(&*kernel);
  auto epoch = engine.RunEpoch();
  if (!epoch.ok()) {
    std::fprintf(stderr, "epoch failed: %s\n", epoch.status().ToString().c_str());
    return 1;
  }

  const std::string chrome = telemetry::ExportChromeTrace();
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << chrome;
  size_t records = 0;
  for (const auto& ring : telemetry::AllRings()) {
    records += ring->Snapshot().size();
  }
  std::printf("wrote %s: %zu bytes from %zu ring(s), %zu retained records\n",
              out_path.c_str(), chrome.size(), telemetry::AllRings().size(), records);
  return failures == 0 ? 0 : 1;
}

int CmdTop(int top_n, uint64_t seed, int window_ms, int threads) {
  const std::string config_name = "sfi-o3";
  ProtectionConfig config;
  LayoutKind layout;
  KRX_CHECK(ParseConfigName(config_name, seed, &config, &layout));

  // The profiled matrix runs through the same cache + runner the bench
  // tools use, so every worker samples the one shared image whose symbol
  // table feeds the extent table below.
  KernelCache cache(MakeBenchSourceFactory(seed));
  auto kernel = cache.Acquire({config, layout}, Sharing::kShared);
  if (!kernel.ok()) {
    std::fprintf(stderr, "build failed: %s\n", kernel.status().ToString().c_str());
    return 1;
  }
  KernelImage& image = *(*kernel)->image;

  telemetry::GuestProfiler profiler;
  uint64_t handler_lo = 0, handler_hi = 0;
  // Two statements: the out-params must be filled before they are passed.
  std::vector<telemetry::FunctionExtent> extents =
      MakeExtentsFromSymbols(image, &handler_lo, &handler_hi);
  profiler.SetFunctions(std::move(extents), handler_lo, handler_hi);

  BenchRunnerOptions opts;
  opts.threads = threads;
  opts.seed = seed;
  opts.profiler = &profiler;
  BenchRunner runner(opts, &cache);

  // lmbench-only matrix: the stateful vfs/ipc workloads run on private
  // exclusive images whose symbols sit at different addresses than the
  // shared extent table, so sampling them would only inflate
  // "unattributed".
  std::vector<BenchTask> tasks;
  for (const LmbenchRow& row : LmbenchRows()) {
    BenchTask t;
    t.name = "lmbench/" + row.profile.name + "@" + config_name;
    t.spec.workload = WorkloadKind::kLmbench;
    t.spec.config_name = config_name;
    t.spec.op_symbol = "sys_" + row.profile.name;
    t.repeat = 4;
    tasks.push_back(std::move(t));
  }

  profiler.Start(std::chrono::microseconds(50));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(window_ms);
  uint64_t calls = 0, batches = 0;
  bool ok = true;
  do {
    std::vector<TaskResult> results = runner.Run(tasks);
    ++batches;
    for (const TaskResult& r : results) {
      if (!r.ok) {
        std::fprintf(stderr, "task failed: %s: %s\n", r.name.c_str(), r.error.c_str());
        ok = false;
      }
      calls += r.calls;
    }
  } while (ok && std::chrono::steady_clock::now() < deadline);
  profiler.Stop();
  if (!ok) {
    return 1;
  }

  // Superblock usage for the same op set: chains are per-Cpu state, and the
  // pool workers' Cpus are gone by now, so one local superblocked pass over
  // the shared image regenerates them. Entry addresses bucket by the same
  // symbol extents the profiler attributes samples to.
  std::vector<SbFunctionUsage> sb_rows;
  if (auto sb_buf = SetUpOpBuffer(image, seed); sb_buf.ok()) {
    Cpu sb_cpu(&image, CostModel(), CpuOptions{});
    RunOptions sb_run;
    sb_run.engine = ExecEngine::kSuperblock;
    for (const LmbenchRow& row : LmbenchRows()) {
      for (int rep = 0; rep < 4; ++rep) {
        (void)sb_cpu.CallFunction("sys_" + row.profile.name, {*sb_buf}, sb_run);
      }
    }
    sb_rows = AggregateSuperblocksBySymbol(sb_cpu.superblock_cache(), image.symbols());
  }

  const telemetry::ProfileReport report = profiler.MakeReport(CostModel());
  const uint64_t busy = report.total_samples - report.idle_samples;
  std::printf("guest profile: %llu samples (%llu idle, %llu unattributed), %llu calls in "
              "%llu batch(es), config=%s, %d worker(s)\n\n",
              (unsigned long long)report.total_samples,
              (unsigned long long)report.idle_samples,
              (unsigned long long)report.unattributed, (unsigned long long)calls,
              (unsigned long long)batches, config_name.c_str(), threads);
  std::printf("%-28s %8s %7s %6s %6s %9s %9s %7s %6s\n", "function", "samples", "pct", "sfi",
              "mpx", "check%", "est.share", "chains", "fast%");
  int shown = 0;
  for (const telemetry::FunctionProfile& fn : report.functions) {
    if (fn.samples == 0 || shown >= top_n) {
      break;
    }
    std::printf("%-28s %8llu %6.1f%% %6llu %6llu %8.1f%% %8.2f%%", fn.name.c_str(),
                (unsigned long long)fn.samples, fn.sample_pct,
                (unsigned long long)fn.census.sfi_checks,
                (unsigned long long)fn.census.mpx_checks, fn.check_cost_pct,
                fn.est_check_share);
    const SbFunctionUsage* usage = nullptr;
    for (const SbFunctionUsage& row : sb_rows) {
      if (row.name == fn.name) {
        usage = &row;
        break;
      }
    }
    if (usage != nullptr && usage->insts > 0) {
      std::printf(" %7llu %5.1f%%\n", (unsigned long long)usage->chains,
                  100.0 * usage->fast_share());
    } else {
      // The function never rooted a chain (cold, or only ever reached as a
      // chained callee of another entry point).
      std::printf(" %7s %6s\n", "-", "-");
    }
    ++shown;
  }
  std::printf("\n%-12s %10s %10s %8s\n", "worker", "samples", "busy", "busy%");
  for (const telemetry::TargetProfile& t : report.targets) {
    const uint64_t worker_busy = t.samples - t.idle;
    std::printf("%-12s %10llu %10llu %7.1f%%\n", t.label.c_str(),
                (unsigned long long)t.samples, (unsigned long long)worker_busy,
                t.samples == 0 ? 0.0
                               : 100.0 * static_cast<double>(worker_busy) /
                                     static_cast<double>(t.samples));
  }
  if (busy == 0) {
    std::printf("(no busy samples — window too short for this machine?)\n");
  }
  return 0;
}

int CmdMetrics(const std::string& config_name, uint64_t seed, bool csv) {
  telemetry::MetricsRegistry::Global().Reset();
  telemetry::SetMode(telemetry::kModeMetrics);
  ProtectionConfig config;
  LayoutKind layout;
  if (!ParseConfigName(config_name, seed, &config, &layout)) {
    std::fprintf(stderr, "unknown config '%s'\n", config_name.c_str());
    return 2;
  }
  auto kernel = CompileKernel(MakeBenchSource(seed), {config, layout});
  if (!kernel.ok()) {
    std::fprintf(stderr, "build failed: %s\n", kernel.status().ToString().c_str());
    return 1;
  }
  KernelImage& image = *kernel->image;
  auto buf = SetUpOpBuffer(image, seed);
  if (buf.ok()) {
    Cpu cpu(&image, CostModel(), CpuOptions{});
    (void)cpu.CallFunction("sys_null_syscall", {*buf});
  }

  // Supervised scenario, part 1: a genuinely wedged run. The step observer
  // freezes mid-run with the heartbeat slot nonzero; the watchdog escalates
  // soft -> hard lockup and its hard callback preempts the run
  // (kDeadlineExceeded), populating the watchdog.* and cpu.deadline_exceeded
  // counters with a real detection, not a synthetic bump.
  if (buf.ok()) {
    Watchdog watchdog;
    Cpu cpu(&image, CostModel(), CpuOptions{});
    std::atomic<uint64_t>* hb = watchdog.Watch("cpu0", [&] { cpu.RequestPreempt(); });
    cpu.set_heartbeat_slot(hb);
    uint64_t steps = 0;
    cpu.set_step_observer([&](const Cpu&) {
      if (++steps != 8) {  // wedge once, with the heartbeat already nonzero
        return;
      }
      const auto bound = std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (watchdog.hard_lockups() == 0 && std::chrono::steady_clock::now() < bound) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    watchdog.Start();
    (void)cpu.CallFunction("sys_null_syscall", {*buf});
    watchdog.Stop();
    cpu.set_heartbeat_slot(nullptr);
    cpu.set_step_observer(nullptr);
  }

  // Part 2: the rerand degradation ladder. Two consecutive failpoint-failed
  // epochs cross the default rollback threshold, stepping the timer aspect
  // down to manual-only (health.degradations, health.degrade.rerand_timer).
  {
    HealthState health;
    RerandEngine engine(&*kernel);
    engine.set_failpoint(RerandStep::kRelayout);
    for (int i = 0; i < 2; ++i) {
      auto epoch = engine.RunEpoch();
      if (!epoch.ok()) {
        health.RecordEpochRollback(epoch.status().message());
      }
    }
    engine.clear_failpoint();
  }

  // Part 3: speculation telemetry. Train the Spectre victim's bounds
  // branch in-bounds, then call once out-of-bounds on a spec-enabled Cpu:
  // the mispredicted window runs the guarded load transiently, so the
  // spec.* counters (windows, predictions, wrong-path instructions, lines
  // touched) land in the snapshot exactly as a hardened deployment's
  // monitoring would see them.
  if (buf.ok()) {
    CpuOptions sopts;
    sopts.spec.enabled = true;
    Cpu cpu(&image, CostModel(), sopts);
    for (int i = 0; i < 4; ++i) {
      (void)cpu.CallFunction("spec_victim", {0, *buf});
    }
    (void)cpu.CallFunction("spec_victim", {1ull << 20, *buf});
  }

  if (csv) {
    std::printf("%s", telemetry::MetricsRegistry::Global().SnapshotCsv().c_str());
  } else {
    std::printf("%s\n", telemetry::MetricsRegistry::Global().SnapshotJson().c_str());
  }
  return 0;
}

int CmdValidate(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  auto doc = telemetry::ParseJson(ss.str());
  if (!doc.ok()) {
    std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(),
                 doc.status().ToString().c_str());
    return 1;
  }
  const telemetry::JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "%s: not a Chrome trace (no traceEvents array)\n", path.c_str());
    return 1;
  }
  size_t begins = 0, ends = 0, instants = 0;
  for (const telemetry::JsonValue& ev : events->array) {
    const std::string ph = ev.Find("ph") ? ev.Find("ph")->StringOr("") : "";
    if (ph == "B") ++begins;
    if (ph == "E") ++ends;
    if (ph == "i") ++instants;
  }
  if (begins != ends) {
    std::fprintf(stderr, "%s: unbalanced spans (%zu B vs %zu E)\n", path.c_str(), begins,
                 ends);
    return 1;
  }
  std::printf("%s: OK — %zu events (%zu spans, %zu instants)\n", path.c_str(),
              events->array.size(), begins, instants);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: krx_trace trace [--out PATH] [--seed S]\n"
               "       krx_trace top [--n N] [--seed S] [--ms W] [--threads T]\n"
               "       krx_trace metrics [--seed S] [--csv] [config]\n"
               "       krx_trace validate FILE\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string cmd = argv[1];
  uint64_t seed = 0x72ACE;
  if (cmd == "trace") {
    std::string out = "krx_trace.json";
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
        out = argv[++i];
      } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        seed = std::strtoull(argv[++i], nullptr, 0);
      } else {
        return Usage();
      }
    }
    return CmdTrace(out, seed);
  }
  if (cmd == "top") {
    int top_n = 10, window_ms = 400, threads = 2;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
        top_n = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        seed = std::strtoull(argv[++i], nullptr, 0);
      } else if (std::strcmp(argv[i], "--ms") == 0 && i + 1 < argc) {
        window_ms = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
        threads = std::atoi(argv[++i]);
      } else {
        return Usage();
      }
    }
    return CmdTop(top_n, seed, window_ms, threads);
  }
  if (cmd == "metrics") {
    std::string config = "sfi+x";
    bool csv = false;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        seed = std::strtoull(argv[++i], nullptr, 0);
      } else if (std::strcmp(argv[i], "--csv") == 0) {
        csv = true;
      } else {
        config = argv[i];
      }
    }
    return CmdMetrics(config, seed, csv);
  }
  if (cmd == "validate") {
    if (argc != 3) {
      return Usage();
    }
    return CmdValidate(argv[2]);
  }
  return Usage();
}

}  // namespace
}  // namespace krx

int main(int argc, char** argv) { return krx::Main(argc, argv); }
