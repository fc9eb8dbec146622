// Unified performance benchmark for the execution engine itself.
//
// Where the other benches measure *guest* overhead (protection columns vs.
// vanilla, in simulated cycles), this one measures the *host*: how fast the
// simulator executes a bench matrix with the predecoded block cache on vs.
// off, and how run time scales across worker threads. Three phases:
//
//   1. differential — the same matrix through all three engines
//      (single-step, block cache, superblock), single thread. Guest-visible
//      work (calls, retired instructions, deci-cycles, the rax checksum)
//      must be bit-identical; wall time should not be. The superblock leg
//      is gated: it must strictly beat the block-cache speedup measured in
//      the same run (the PR 3 floor was 2.33x; the target is >= 3.0x over
//      single-step).
//   2. scaling — the cached matrix at 1, 2 and 4 threads over shared
//      compiled kernels (the kernel cache compiles each column once).
//   3. telemetry — the observability overhead gate: the cached matrix with
//      telemetry runtime-disabled vs. metrics-enabled (min-of-N wall each,
//      enabled must be within 1%), then one run under full event tracing
//      whose guest state must stay identical and whose ring contents are
//      exported as a Chrome trace (--trace PATH).
//   4. report — human summary on stdout and, with --json PATH, a
//      BENCH_perf.json with per-task rows and the phase summaries.
//
// The cache speedup (>= 2x) and near-linear scaling to 4 threads are
// acceptance numbers; scaling is only *enforceable* when the machine
// actually has that many cores, so the tool reports hardware_concurrency
// alongside and never fails on scaling shortfalls of an oversubscribed box.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "src/base/status.h"
#include "src/bench_runner/bench_runner.h"
#include "src/plugin/pipeline.h"
#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/harness.h"

namespace krx {
namespace {

struct Args {
  int threads = 4;
  uint64_t seed = 0xB0F;
  int repeat = 0;  // 0 = phase default
  bool quick = false;
  std::string json_path;
  std::string trace_path;  // chrome trace of the fully-traced run
};

uint64_t TotalInstructions(const std::vector<TaskResult>& results) {
  uint64_t n = 0;
  for (const TaskResult& r : results) n += r.instructions;
  return n;
}

// True when every guest-visible field of the two runs matches.
bool Identical(const std::vector<TaskResult>& a, const std::vector<TaskResult>& b,
               std::string* why) {
  if (a.size() != b.size()) {
    *why = "result counts differ";
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const TaskResult& x = a[i];
    const TaskResult& y = b[i];
    if (!x.ok || !y.ok) {
      *why = x.name + ": task failed (" + (!x.ok ? x.error : y.error) + ")";
      return false;
    }
    if (x.calls != y.calls || x.instructions != y.instructions ||
        x.deci_cycles != y.deci_cycles || x.rax_checksum != y.rax_checksum) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s: calls %llu/%llu insts %llu/%llu deci %llu/%llu rax %016llx/%016llx",
                    x.name.c_str(), (unsigned long long)x.calls, (unsigned long long)y.calls,
                    (unsigned long long)x.instructions, (unsigned long long)y.instructions,
                    (unsigned long long)x.deci_cycles, (unsigned long long)y.deci_cycles,
                    (unsigned long long)x.rax_checksum, (unsigned long long)y.rax_checksum);
      *why = buf;
      return false;
    }
  }
  return true;
}

void JsonEscape(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c == '\n') {
      *out += "\\n";
    } else {
      out->push_back(c);
    }
  }
}

void AppendTaskJson(const TaskResult& r, std::string* out) {
  char buf[512];
  std::string name, config, error;
  JsonEscape(r.name, &name);
  JsonEscape(r.config_name, &config);
  JsonEscape(r.error, &error);
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"%s\", \"workload\": \"%s\", \"config\": \"%s\", "
                "\"ok\": %s, \"error\": \"%s\", \"calls\": %llu, \"instructions\": %llu, "
                "\"deci_cycles\": %llu, \"rax_checksum\": \"%016llx\", \"wall_ms\": %.3f, "
                "\"cache_hit_rate\": %.4f, \"replayed_insts\": %llu, \"decoded_insts\": %llu}",
                name.c_str(), WorkloadKindName(r.workload), config.c_str(),
                r.ok ? "true" : "false", error.c_str(), (unsigned long long)r.calls,
                (unsigned long long)r.instructions, (unsigned long long)r.deci_cycles,
                (unsigned long long)r.rax_checksum, r.wall_ms, r.cache_hit_rate,
                (unsigned long long)r.replayed_insts, (unsigned long long)r.decoded_insts);
  *out += buf;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      args.quick = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      args.threads = std::atoi(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      args.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--repeat" && i + 1 < argc) {
      args.repeat = std::atoi(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      args.json_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      args.trace_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_perf [--quick] [--threads N] [--seed S] [--repeat R] "
                   "[--json PATH] [--trace PATH]\n");
      return 2;
    }
  }
  if (args.threads < 1) args.threads = 1;

  const std::vector<std::string> configs =
      args.quick ? std::vector<std::string>{"vanilla", "sfi-o3", "sfi-o4"}
                 : std::vector<std::string>{"vanilla", "sfi-o3", "sfi-o4", "mpx", "x", "d"};
  const int lmbench_rows = args.quick ? 4 : 0;  // 0 = all 23 rows
  // Enough outer repetitions that decode cost is fully amortized — the
  // regime the block cache exists for (hit rates > 95%).
  const int repeat = args.repeat > 0 ? args.repeat : (args.quick ? 12 : 8);
  const std::vector<BenchTask> tasks =
      MakeBenchMatrix(configs, lmbench_rows, repeat, /*with_phoronix=*/!args.quick);
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("kR^X reproduction — engine performance (block cache + parallel driver)\n");
  std::printf("matrix: %zu tasks over %zu configs, repeat=%d, seed=0x%llx, hw threads=%u\n\n",
              tasks.size(), configs.size(), repeat, (unsigned long long)args.seed, hw);

  KernelCache cache(MakeBenchSourceFactory(args.seed));

  // Phase 1: cached-vs-uncached differential, single thread. Each engine
  // leg runs kTimingRuns times and its wall time is the sum of *per-task*
  // minima (noise only ever inflates a measurement, so the min is the
  // robust estimator — phase 3's trick, applied per task because a
  // scheduler hiccup lands in one task of one run, and a whole-leg min
  // would need a completely clean run to dodge it): the quick matrix's
  // legs are a few ms each, short enough that one hiccup on a single-run
  // measurement could flip the superblock-vs-cache comparison below.
  // Guest-state identity is checked on the retained first run of each
  // leg; reruns are timing-only (determinism across runs is the tier-1
  // suites' job).
  constexpr int kTimingRuns = 3;
  const auto run_leg = [&](const BenchRunnerOptions& opts, std::vector<TaskResult>* results,
                           double* best_ms) {
    *results = BenchRunner(opts, &cache).Run(tasks);
    std::vector<double> per_task(results->size());
    for (size_t t = 0; t < results->size(); ++t) {
      per_task[t] = (*results)[t].wall_ms;
    }
    for (int i = 1; i < kTimingRuns; ++i) {
      const std::vector<TaskResult> rerun = BenchRunner(opts, &cache).Run(tasks);
      for (size_t t = 0; t < rerun.size(); ++t) {
        per_task[t] = std::min(per_task[t], rerun[t].wall_ms);
      }
    }
    *best_ms = 0;
    for (const double ms : per_task) *best_ms += ms;
  };

  BenchRunnerOptions uncached_opts;
  uncached_opts.threads = 1;
  uncached_opts.seed = args.seed;
  uncached_opts.engine = ExecEngine::kSingleStep;
  std::vector<TaskResult> uncached;
  double uncached_ms = 0;
  run_leg(uncached_opts, &uncached, &uncached_ms);

  BenchRunnerOptions cached_opts = uncached_opts;
  cached_opts.engine = ExecEngine::kBlockCache;
  std::vector<TaskResult> cached;
  double cached_ms = 0;
  run_leg(cached_opts, &cached, &cached_ms);

  BenchRunnerOptions sb_opts = uncached_opts;
  sb_opts.engine = ExecEngine::kSuperblock;
  std::vector<TaskResult> superblocked;
  double sb_ms = 0;
  run_leg(sb_opts, &superblocked, &sb_ms);

  std::string why;
  const bool identical = Identical(uncached, cached, &why);
  const double speedup = cached_ms > 0 ? uncached_ms / cached_ms : 0;
  double hit_rate = 0;
  for (const TaskResult& r : cached) hit_rate += r.cache_hit_rate;
  if (!cached.empty()) hit_rate /= static_cast<double>(cached.size());

  // Superblock leg: same matrix, translate-and-chain engine. The gate is
  // relative (beat the block cache measured in this very run, i.e. the
  // 2.33x floor PR 3 recorded) so host-load noise cancels out of the
  // comparison; the absolute >= 3.0x target is reported alongside.
  std::string sb_why;
  const bool sb_identical = Identical(uncached, superblocked, &sb_why);
  const double sb_speedup = sb_ms > 0 ? uncached_ms / sb_ms : 0;
  constexpr double kBlockCacheFloor = 2.33;  // PR 3's recorded speedup
  constexpr double kSuperblockTarget = 3.0;
  uint64_t sb_chains = 0, sb_entries = 0, sb_breaks = 0;
  double sb_fast_share = 0, sb_tlb_rate = 0;
  for (const TaskResult& r : superblocked) {
    sb_chains += r.sb_chains_built;
    sb_entries += r.sb_entries;
    sb_breaks += r.sb_chain_breaks;
    sb_fast_share += r.sb_fastpath_share;
    sb_tlb_rate += r.sb_tlb_hit_rate;
  }
  if (!superblocked.empty()) {
    sb_fast_share /= static_cast<double>(superblocked.size());
    sb_tlb_rate /= static_cast<double>(superblocked.size());
  }
  const bool sb_ok = sb_identical && sb_speedup > speedup && sb_speedup > kBlockCacheFloor;

  std::printf("phase 1 — differential (1 thread, three engines)\n");
  std::printf("  single-step: %10.1f ms   %llu guest instructions\n", uncached_ms,
              (unsigned long long)TotalInstructions(uncached));
  std::printf("  block cache: %10.1f ms   mean hit rate %.1f%%   speedup %.2fx\n", cached_ms,
              100.0 * hit_rate, speedup);
  std::printf("  superblock:  %10.1f ms   speedup %.2fx   guest state %s\n", sb_ms, sb_speedup,
              sb_identical ? "IDENTICAL" : "DIVERGED");
  std::printf("  sb chains: %llu built, %llu entries, %llu breaks, fastpath share %.1f%%, "
              "inline-TLB hit rate %.1f%%\n",
              (unsigned long long)sb_chains, (unsigned long long)sb_entries,
              (unsigned long long)sb_breaks, 100.0 * sb_fast_share, 100.0 * sb_tlb_rate);
  std::printf("  sb gate: beat block cache (%.2fx > %.2fx) %s; floor %.2fx %s; "
              "target >= %.1fx %s\n",
              sb_speedup, speedup, sb_speedup > speedup ? "OK" : "FAIL", kBlockCacheFloor,
              sb_speedup > kBlockCacheFloor ? "OK" : "FAIL", kSuperblockTarget,
              sb_speedup >= kSuperblockTarget ? "OK" : "(short on this machine)");
  if (!identical) {
    std::printf("  FAIL: %s\n", why.c_str());
  }
  if (!sb_identical) {
    std::printf("  FAIL (superblock): %s\n", sb_why.c_str());
  }

  // Phase 2: thread scaling of the cached configuration. Kernels are warm
  // in the cache by now, so this isolates execution scaling from compiles.
  std::vector<int> thread_counts;
  for (int t = 1; t <= args.threads; t *= 2) thread_counts.push_back(t);
  if (thread_counts.empty() || thread_counts.back() != args.threads) {
    thread_counts.push_back(args.threads);
  }
  std::printf("\nphase 2 — scaling (cached)\n");
  std::vector<std::pair<int, double>> scaling;
  std::vector<TaskResult> widest;
  double base_ms = 0;
  for (int t : thread_counts) {
    BenchRunnerOptions opts = cached_opts;
    opts.threads = t;
    BenchRunner runner(opts, &cache);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<TaskResult> results = runner.Run(tasks);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double, std::milli>(t1 - t0).count();
    scaling.emplace_back(t, wall);
    if (t == 1) base_ms = wall;
    std::printf("  %d thread%s: %10.1f ms   speedup vs 1: %.2fx%s\n", t, t == 1 ? " " : "s",
                wall, base_ms > 0 ? base_ms / wall : 0,
                (hw != 0 && static_cast<unsigned>(t) > hw) ? "   (oversubscribed)" : "");
    widest = std::move(results);
  }

  // Phase 3: telemetry overhead gate. All kernels are warm, so the cached
  // single-thread matrix isolates execution cost. With telemetry runtime-
  // disabled every instrumented site is one relaxed load + predicted
  // branch; enabling metrics must stay within 1% of that (the counters
  // fire per run, never per instruction). The quick matrix is ~150 ms per
  // run, so host-load noise dwarfs a sub-1% true effect; the estimator is
  // the median of paired back-to-back ratios — the two legs of a pair
  // share load conditions (drift cancels in the ratio, and alternating
  // leg order cancels warmth bias), and the median kills outlier pairs.
  // On a miss we re-measure once with more pairs before failing.
  const uint32_t entry_mode = telemetry::Mode();
  auto one_wall = [&] {
    BenchRunner runner(cached_opts, &cache);
    const auto m0 = std::chrono::steady_clock::now();
    std::vector<TaskResult> r = runner.Run(tasks);
    const auto m1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(m1 - m0).count();
  };
  auto measure_overhead = [&](int pairs, double* disabled_ms, double* metrics_ms) {
    std::vector<double> ratios;
    double best_off = 1e18, best_on = 1e18;
    for (int i = 0; i < pairs; ++i) {
      double wall[2] = {0, 0};
      for (int leg = 0; leg < 2; ++leg) {
        const bool with_metrics = (i + leg) % 2 != 0;
        telemetry::SetMode(with_metrics ? telemetry::kModeMetrics : 0);
        const double w = one_wall();
        wall[with_metrics ? 1 : 0] = w;
        double& best = with_metrics ? best_on : best_off;
        best = std::min(best, w);
      }
      ratios.push_back(wall[0] > 0 ? wall[1] / wall[0] : 1.0);
    }
    std::sort(ratios.begin(), ratios.end());
    *disabled_ms = best_off;
    *metrics_ms = best_on;
    return 100.0 * (ratios[ratios.size() / 2] - 1.0);  // odd `pairs`
  };
  double disabled_ms = 0, metrics_ms = 0;
  double overhead_pct = measure_overhead(5, &disabled_ms, &metrics_ms);
  if (overhead_pct > 1.0) {
    overhead_pct = measure_overhead(9, &disabled_ms, &metrics_ms);
  }
  const bool overhead_ok = overhead_pct <= 1.0;

  // One run under full tracing: must complete with guest state identical
  // to the untraced cached run, and its rings must export a parseable
  // Chrome trace.
  telemetry::SetMode(telemetry::kModeMetrics | telemetry::kModeTrace);
  telemetry::ClearAllRings();
  std::vector<TaskResult> traced = BenchRunner(cached_opts, &cache).Run(tasks);
  telemetry::SetMode(entry_mode != 0 ? entry_mode : telemetry::kModeMetrics);
  std::string traced_why;
  const bool traced_identical = Identical(cached, traced, &traced_why);
  const std::string chrome = telemetry::ExportChromeTrace();

  std::printf("\nphase 3 — telemetry overhead (cached, 1 thread; ms are min-of-N,\n");
  std::printf("          the verdict is the median of paired A/B ratios)\n");
  std::printf("  runtime-disabled: %10.1f ms\n", disabled_ms);
  std::printf("  metrics enabled:  %10.1f ms   overhead %+.2f%% (gate: <= 1%%) %s\n",
              metrics_ms, overhead_pct, overhead_ok ? "OK" : "FAIL");
  std::printf("  full tracing:     guest state %s, %zu-byte chrome trace\n",
              traced_identical ? "IDENTICAL" : "DIVERGED", chrome.size());
  if (!traced_identical) {
    std::printf("  FAIL: %s\n", traced_why.c_str());
  }
  if (!args.trace_path.empty()) {
    std::ofstream out(args.trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_path.c_str());
      return 1;
    }
    out << chrome;
    std::printf("  wrote %s\n", args.trace_path.c_str());
  }

  const KernelCache::Stats kstats = cache.stats();
  std::printf("\nkernel cache: %llu shared builds, %llu cache hits, %llu private builds\n",
              (unsigned long long)kstats.shared_mode.compiles,
              (unsigned long long)kstats.shared_mode.hits,
              (unsigned long long)kstats.private_mode.compiles);

  // Static check census: what O4's cross-block elision + loop hoisting
  // removes from the image relative to O3, over the same bench source. The
  // matrix above already proves the two columns produce identical
  // guest-visible results; this quantifies the static reduction.
  SfiStats census_o3, census_o4;
  {
    KernelSource src = MakeBenchSource(args.seed);
    auto o3 = CompileKernel(src, {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
    auto o4 = CompileKernel(std::move(src),
                            {ProtectionConfig::SfiOnly(SfiLevel::kO4), LayoutKind::kKrx});
    KRX_CHECK(o3.ok() && o4.ok());
    census_o3 = o3->stats.sfi;
    census_o4 = o4->stats.sfi;
  }
  const double census_delta_pct =
      census_o3.checks_emitted > 0
          ? 100.0 * (1.0 - static_cast<double>(census_o4.checks_emitted) /
                               static_cast<double>(census_o3.checks_emitted))
          : 0.0;
  std::printf("check census: O3 emits %llu checks, O4 emits %llu (%llu hoisted) — "
              "%.1f%% fewer static checks\n",
              (unsigned long long)census_o3.checks_emitted,
              (unsigned long long)census_o4.checks_emitted,
              (unsigned long long)census_o4.checks_hoisted, census_delta_pct);

  bool all_ok = identical && sb_ok && overhead_ok && traced_identical;
  for (const TaskResult& r : widest) {
    if (!r.ok) {
      std::printf("task failed: %s: %s\n", r.name.c_str(), r.error.c_str());
      all_ok = false;
    }
  }

  if (!args.json_path.empty()) {
    std::string json = "{\n";
    json += "  \"meta\": " +
            bench_json::MetaBlock("bench_perf", args.seed,
                                  args.quick ? "vanilla..sfi-o4 (quick)" : "vanilla..d",
                                  "krx") +
            ",\n";
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"matrix\": {\"tasks\": %zu, \"configs\": %zu, \"repeat\": %d, "
                  "\"seed\": \"0x%llx\", \"quick\": %s},\n"
                  "  \"hardware_threads\": %u,\n"
                  "  \"differential\": {\"identical\": %s, \"uncached_wall_ms\": %.3f, "
                  "\"cached_wall_ms\": %.3f, \"speedup\": %.3f, \"mean_hit_rate\": %.4f},\n",
                  tasks.size(), configs.size(), repeat, (unsigned long long)args.seed,
                  args.quick ? "true" : "false", hw, identical ? "true" : "false", uncached_ms,
                  cached_ms, speedup, hit_rate);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"superblock\": {\"identical\": %s, \"wall_ms\": %.3f, \"speedup\": %.3f, "
                  "\"block_cache_floor\": %.2f, \"beats_floor\": %s, \"beats_block_cache\": %s, "
                  "\"sb.chains_built\": %llu, \"sb.entries\": %llu, \"sb.chain_breaks\": %llu, "
                  "\"sb.fastpath_share\": %.4f, \"sb.tlb_hit_rate\": %.4f},\n",
                  sb_identical ? "true" : "false", sb_ms, sb_speedup, kBlockCacheFloor,
                  sb_speedup > kBlockCacheFloor ? "true" : "false",
                  sb_speedup > speedup ? "true" : "false", (unsigned long long)sb_chains,
                  (unsigned long long)sb_entries, (unsigned long long)sb_breaks, sb_fast_share,
                  sb_tlb_rate);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"telemetry\": {\"disabled_wall_ms\": %.3f, \"metrics_wall_ms\": %.3f, "
                  "\"overhead_pct\": %.3f, \"overhead_ok\": %s, \"traced_identical\": %s, "
                  "\"chrome_trace_bytes\": %zu},\n",
                  disabled_ms, metrics_ms, overhead_pct, overhead_ok ? "true" : "false",
                  traced_identical ? "true" : "false", chrome.size());
    json += buf;
    json += "  \"scaling\": [";
    for (size_t i = 0; i < scaling.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s{\"threads\": %d, \"wall_ms\": %.3f, \"speedup\": %.3f}",
                    i ? ", " : "", scaling[i].first, scaling[i].second,
                    scaling[i].second > 0 ? base_ms / scaling[i].second : 0);
      json += buf;
    }
    json += "],\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"kernel_cache\": {\"compiles\": %llu, \"hits\": %llu, "
                  "\"private_compiles\": %llu},\n",
                  (unsigned long long)kstats.shared_mode.compiles,
                  (unsigned long long)kstats.shared_mode.hits,
                  (unsigned long long)kstats.private_mode.compiles);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"check_census\": {\"o3_emitted\": %llu, \"o3_elided\": %llu, "
                  "\"o4_emitted\": %llu, \"o4_elided\": %llu, \"o4_hoisted\": %llu, "
                  "\"o4_reduction_pct\": %.2f},\n",
                  (unsigned long long)census_o3.checks_emitted,
                  (unsigned long long)census_o3.checks_coalesced,
                  (unsigned long long)census_o4.checks_emitted,
                  (unsigned long long)census_o4.checks_coalesced,
                  (unsigned long long)census_o4.checks_hoisted, census_delta_pct);
    json += buf;
    json += "  \"tasks\": [\n";
    for (size_t i = 0; i < widest.size(); ++i) {
      AppendTaskJson(widest[i], &json);
      json += (i + 1 < widest.size()) ? ",\n" : "\n";
    }
    json += "  ],\n";
    json += "  \"metrics\": " + bench_json::MetricsBlock() + "\n}\n";
    std::ofstream out(args.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    out << json;
    std::printf("wrote %s\n", args.json_path.c_str());
  }

  if (!all_ok) {
    std::printf("\nRESULT: FAIL\n");
    return 1;
  }
  std::printf("\nRESULT: OK (cache speedup %.2fx, superblock speedup %.2fx%s)\n", speedup,
              sb_speedup,
              sb_speedup >= kSuperblockTarget ? "" : " — below the 3x target on this machine");
  return 0;
}

}  // namespace
}  // namespace krx

int main(int argc, char** argv) { return krx::Main(argc, argv); }
