// Multi-tenant fleet bench: N tenants x M worker Cpus serving Poisson
// arrival-rate traffic over per-tenant CoW-diversified images.
//
//   1. admit   — N tenants over a small config matrix; same-config tenants
//                share one pristine build, each gets a re-linked image and
//                a private diversification epoch. Reports the CoW speedup
//                (materialize vs full compile), the memory split, and the
//                host memory behind it (resident image bytes, process RSS).
//   2. traffic — open-loop Poisson arrivals across the fleet; requests are
//                (tenant, worker) workload iterations (lmbench / VFS / IPC
//                round-robin). Reports p50/p99 sojourn latency (queue wait
//                + service) and throughput.
//   3. scaling — the same closed-loop request batch on 1 thread vs
//                hardware_concurrency threads; the efficiency gate is
//                asserted only when the host has >1 hardware thread (the
//                skip is recorded in the artifact).
//
// Writes the BENCH_fleet.json artifact (stdout keeps the human summary).
// Exits non-zero on any failed request, a dedup ratio below 0.5, or a
// failed scaling gate.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "src/base/rng.h"
#include "src/fleet/fleet.h"
#include "src/fleet/kernel_cache.h"
#include "src/fleet/tenant.h"
#include "src/telemetry/metrics.h"
#include "src/workload/harness.h"
#include "src/workload/ipc.h"
#include "src/workload/vfs.h"

namespace krx {
namespace {

struct Args {
  int tenants = 16;
  int workers = 2;            // worker Cpus per tenant
  int requests = 12;          // traffic requests per tenant
  double rate_rps = 400.0;    // offered Poisson arrival rate, requests/s
  uint64_t seed = 0xF1EE7;
  std::string json_path = "BENCH_fleet.json";
  bool quick = false;
};

struct RequestRecord {
  double arrival_ms = 0;   // scheduled arrival, relative to traffic start
  int tenant = 0;
  int worker = 0;
  double latency_ms = 0;   // completion - arrival (sojourn)
  bool ok = false;
};

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const size_t idx = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

// Uniform (0, 1] from the top 53 bits; never 0, so log() is safe.
double UnitUniform(Rng& rng) {
  const double u = static_cast<double>(rng.Next() >> 11) * (1.0 / 9007199254740992.0);
  return u > 0 ? u : 1.0 / 9007199254740992.0;
}

// The bench's tenant matrix: two diversified configs (so the 16-tenant
// default forms 2 pristine groups -> dedup ratio 0.875) and a round-robin
// of the three workload families.
TenantSpec MakeTenantSpec(int i, uint64_t seed) {
  static const char* kConfigs[] = {"sfi+x", "x"};
  TenantSpec spec;
  spec.tenant_id = i;
  spec.config_name = kConfigs[i % 2];
  spec.seed = seed + 0x1000 + static_cast<uint64_t>(i);
  switch (i % 3) {
    case 0:
      spec.workload = WorkloadKind::kLmbench;
      spec.op_symbol = "sys_read_write";
      break;
    case 1:
      spec.workload = WorkloadKind::kVfs;
      break;
    default:
      spec.workload = WorkloadKind::kIpc;
      break;
  }
  return spec;
}

// Closed-loop batch: every (tenant, request) pair once, on `threads`
// threads. Returns wall ms; used by the scaling phase.
double RunClosedLoop(TenantFleet& fleet, int tenants, int requests_per_tenant, int threads,
                     bool* all_ok) {
  std::vector<std::pair<int, int>> batch;  // (tenant, request ordinal)
  for (int t = 0; t < tenants; ++t) {
    for (int r = 0; r < requests_per_tenant; ++r) {
      batch.emplace_back(t, r);
    }
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> ok{true};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < batch.size(); i = next.fetch_add(1)) {
        auto r = fleet.Serve(batch[i].first, batch[i].second);
        if (!r.ok()) {
          ok.store(false);
        }
      }
    });
  }
  for (std::thread& th : pool) {
    th.join();
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (all_ok != nullptr) {
    *all_ok = ok.load();
  }
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tenants" && i + 1 < argc) {
      args.tenants = std::atoi(argv[++i]);
    } else if (arg == "--workers" && i + 1 < argc) {
      args.workers = std::atoi(argv[++i]);
    } else if (arg == "--requests" && i + 1 < argc) {
      args.requests = std::atoi(argv[++i]);
    } else if (arg == "--rate" && i + 1 < argc) {
      args.rate_rps = std::atof(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      args.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--json" && i + 1 < argc) {
      args.json_path = argv[++i];
    } else if (arg == "--quick") {
      args.quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: fleet [--quick] [--tenants N] [--workers M] [--requests R]\n"
                   "             [--rate RPS] [--seed S] [--json PATH]\n");
      return 2;
    }
  }
  if (args.quick) {
    args.tenants = std::min(args.tenants, 8);
    args.requests = std::min(args.requests, 6);
  }
  if (args.tenants < 1) args.tenants = 1;
  if (args.workers < 1) args.workers = 1;
  if (args.requests < 1) args.requests = 1;

  telemetry::SetMode(telemetry::Mode() | telemetry::kModeMetrics);
  telemetry::MetricsRegistry::Global().Reset();

  KernelCache cache([seed = args.seed] {
    KernelSource src = MakeBenchSource(seed);
    AddVfs(&src, DefaultVfsImage());
    AddIpc(&src);
    return src;
  });
  FleetOptions fopts;
  fopts.base_seed = args.seed;
  fopts.workers_per_tenant = args.workers;
  // 32MB of guest physical memory per tenant. It is demand-zero, so a
  // tenant costs the host only the frames it writes.
  fopts.phys_bytes = 32ULL << 20;
  TenantFleet fleet(&cache, fopts);

  // ---- Phase 1: admit. ----
  std::printf("fleet: admitting %d tenants x %d workers (seed 0x%llx)\n", args.tenants,
              args.workers, (unsigned long long)args.seed);
  double first_admit_ms = 0;   // includes the group's base compile
  double repeat_admit_ms = 0;  // pure CoW materializations
  int repeat_admits = 0;
  const auto admit_t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < args.tenants; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto tenant = fleet.Admit(MakeTenantSpec(i, args.seed));
    const auto t1 = std::chrono::steady_clock::now();
    if (!tenant.ok()) {
      std::fprintf(stderr, "admit %d failed: %s\n", i, tenant.status().ToString().c_str());
      return 1;
    }
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (i < 2) {
      first_admit_ms += ms;  // the two pristine groups' base compiles
    } else {
      repeat_admit_ms += ms;
      ++repeat_admits;
    }
  }
  const double admit_total_ms = std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - admit_t0)
                                    .count();
  const double avg_first_ms = first_admit_ms / std::min(2, args.tenants);
  const double avg_repeat_ms = repeat_admits > 0 ? repeat_admit_ms / repeat_admits : 0;
  const double cow_speedup = avg_repeat_ms > 0 ? avg_first_ms / avg_repeat_ms : 0;

  const TenantFleet::MemoryReport mem = fleet.MemoryUsage();
  std::printf("  %d pristine group(s), dedup ratio %.3f\n", mem.pristine_groups,
              mem.dedup_ratio);
  std::printf("  memory: %.2f MB shared + %.2f MB images = %.2f MB (naive: %.2f MB, "
              "%.2f MB/tenant)\n",
              mem.shared_bytes / 1048576.0, mem.image_bytes / 1048576.0,
              mem.cow_total_bytes / 1048576.0, mem.naive_total_bytes / 1048576.0,
              mem.avg_bytes_per_tenant / 1048576.0);
  std::printf("  host: %.2f MB resident under tenant images, %.2f MB process RSS\n",
              mem.resident_bytes / 1048576.0, mem.process_rss_bytes / 1048576.0);
  std::printf("  admit: %.1f ms total; first-in-group %.1f ms, CoW materialize %.1f ms "
              "(%.1fx faster)\n",
              admit_total_ms, avg_first_ms, avg_repeat_ms, cow_speedup);

  // ---- Phase 2: Poisson traffic. ----
  const int total_requests = args.tenants * args.requests;
  std::vector<RequestRecord> schedule(static_cast<size_t>(total_requests));
  {
    Rng rng(args.seed ^ 0x901550);
    double clock_ms = 0;
    for (int i = 0; i < total_requests; ++i) {
      clock_ms += -std::log(UnitUniform(rng)) * 1000.0 / args.rate_rps;
      schedule[static_cast<size_t>(i)].arrival_ms = clock_ms;
      schedule[static_cast<size_t>(i)].tenant = static_cast<int>(rng.NextBelow(
          static_cast<uint64_t>(args.tenants)));
      schedule[static_cast<size_t>(i)].worker = static_cast<int>(rng.NextBelow(
          static_cast<uint64_t>(args.workers)));
    }
  }
  const int traffic_threads =
      std::max(1, std::min(static_cast<int>(std::thread::hardware_concurrency()),
                           args.tenants * args.workers));
  std::printf("fleet: %d Poisson requests at %.0f req/s on %d threads\n", total_requests,
              args.rate_rps, traffic_threads);
  std::atomic<size_t> next{0};
  std::atomic<int> failures{0};
  const auto traffic_t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(traffic_threads));
    for (int w = 0; w < traffic_threads; ++w) {
      pool.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < schedule.size(); i = next.fetch_add(1)) {
          RequestRecord& req = schedule[i];
          // Open loop: don't start before the scheduled arrival.
          const auto arrival =
              traffic_t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                               std::chrono::duration<double, std::milli>(req.arrival_ms));
          std::this_thread::sleep_until(arrival);
          auto r = fleet.Serve(req.tenant, req.worker);
          const auto done = std::chrono::steady_clock::now();
          req.latency_ms = std::chrono::duration<double, std::milli>(done - arrival).count();
          req.ok = r.ok();
          if (!r.ok()) {
            failures.fetch_add(1);
            std::fprintf(stderr, "request failed (tenant %d): %s\n", req.tenant,
                         r.status().ToString().c_str());
          }
        }
      });
    }
    for (std::thread& th : pool) {
      th.join();
    }
  }
  const double traffic_wall_ms = std::chrono::duration<double, std::milli>(
                                     std::chrono::steady_clock::now() - traffic_t0)
                                     .count();
  std::vector<double> latencies;
  latencies.reserve(schedule.size());
  for (const RequestRecord& req : schedule) {
    latencies.push_back(req.latency_ms);
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50 = Percentile(latencies, 0.50);
  const double p99 = Percentile(latencies, 0.99);
  double mean = 0;
  for (double l : latencies) {
    mean += l;
  }
  mean = latencies.empty() ? 0 : mean / static_cast<double>(latencies.size());
  const double throughput =
      traffic_wall_ms > 0 ? 1000.0 * static_cast<double>(total_requests) / traffic_wall_ms : 0;
  std::printf("  latency: p50 %.2f ms, p99 %.2f ms, mean %.2f ms; %.0f req/s served; "
              "%d failure(s)\n",
              p50, p99, mean, throughput, failures.load());

  // ---- Phase 3: thread scaling. ----
  const int hw_threads = static_cast<int>(std::thread::hardware_concurrency());
  const int scale_threads = std::max(1, std::min(hw_threads, args.tenants * args.workers));
  bool scaling_skipped = (hw_threads <= 1);
  bool scale_ok1 = true, scale_okN = true;
  double t1_ms = 0, tN_ms = 0, speedup = 0, efficiency = 0;
  std::string scaling_gate = "skipped (1 hardware thread)";
  bool scaling_gate_failed = false;
  if (!scaling_skipped) {
    const int scale_requests = std::max(2, args.requests / 2);
    t1_ms = RunClosedLoop(fleet, args.tenants, scale_requests, 1, &scale_ok1);
    tN_ms = RunClosedLoop(fleet, args.tenants, scale_requests, scale_threads, &scale_okN);
    speedup = tN_ms > 0 ? t1_ms / tN_ms : 0;
    efficiency = speedup / scale_threads;
    // Lenient gate: tenants are independent images, so more threads must
    // genuinely help — but simulated guests are memory-bound, so demand
    // measurable speedup rather than linear scaling.
    const bool pass = speedup >= 1.2 && scale_ok1 && scale_okN;
    scaling_gate = pass ? "pass" : "fail";
    scaling_gate_failed = !pass;
    std::printf("fleet: scaling %d -> %d threads: %.1f ms -> %.1f ms "
                "(%.2fx speedup, %.0f%% efficiency) [%s]\n",
                1, scale_threads, t1_ms, tN_ms, speedup, 100 * efficiency,
                scaling_gate.c_str());
  } else {
    std::printf("fleet: scaling gate skipped (1 hardware thread)\n");
  }

  // ---- Artifact. ----
  const KernelCache::Stats kstats = cache.stats();
  std::string json = "{\n  \"meta\": " +
                     bench_json::MetaBlock("fleet", args.seed, "sfi+x,x", "krx") + ",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"fleet\": {\"tenants\": %d, \"workers_per_tenant\": %d, "
                "\"pristine_groups\": %d, \"dedup_ratio\": %.4f, \"shared_bytes\": %llu, "
                "\"image_bytes\": %llu, \"cow_total_bytes\": %llu, "
                "\"naive_total_bytes\": %llu, \"bytes_per_tenant\": %.0f, "
                "\"resident_bytes\": %llu, \"process_rss_bytes\": %llu},\n",
                mem.tenants, args.workers, mem.pristine_groups, mem.dedup_ratio,
                (unsigned long long)mem.shared_bytes, (unsigned long long)mem.image_bytes,
                (unsigned long long)mem.cow_total_bytes,
                (unsigned long long)mem.naive_total_bytes, mem.avg_bytes_per_tenant,
                (unsigned long long)mem.resident_bytes,
                (unsigned long long)mem.process_rss_bytes);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"admit\": {\"total_ms\": %.3f, \"first_in_group_ms\": %.3f, "
                "\"cow_materialize_ms\": %.3f, \"cow_speedup\": %.2f},\n",
                admit_total_ms, avg_first_ms, avg_repeat_ms, cow_speedup);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"traffic\": {\"requests\": %d, \"failures\": %d, \"offered_rps\": %.1f, "
                "\"served_rps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                "\"mean_ms\": %.3f},\n",
                total_requests, failures.load(), args.rate_rps, throughput, p50, p99, mean);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"scaling\": {\"hardware_threads\": %d, \"threads\": %d, "
                "\"t1_ms\": %.3f, \"tN_ms\": %.3f, \"speedup\": %.3f, "
                "\"efficiency\": %.3f, \"gate\": \"%s\"},\n",
                hw_threads, scaling_skipped ? 1 : scale_threads, t1_ms, tN_ms, speedup,
                efficiency, scaling_gate.c_str());
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"kernel_cache\": {\"shared_compiles\": %llu, \"shared_hits\": %llu, "
                "\"inflight_dedup\": %llu, \"private_compiles\": %llu},\n",
                (unsigned long long)kstats.shared_mode.compiles,
                (unsigned long long)kstats.shared_mode.hits,
                (unsigned long long)kstats.shared_mode.inflight_dedup,
                (unsigned long long)kstats.private_mode.compiles);
  json += buf;
  json += "  \"metrics\": " + bench_json::MetricsBlock("  ") + "\n}\n";
  std::ofstream out(args.json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
    return 1;
  }
  out << json;
  std::printf("wrote %s\n", args.json_path.c_str());

  int rc = 0;
  if (failures.load() > 0) {
    std::fprintf(stderr, "FAIL: %d request(s) failed\n", failures.load());
    rc = 1;
  }
  if (mem.dedup_ratio < 0.5) {
    std::fprintf(stderr, "FAIL: dedup ratio %.3f below the 0.5 floor\n", mem.dedup_ratio);
    rc = 1;
  }
  if (scaling_gate_failed) {
    std::fprintf(stderr, "FAIL: thread-scaling gate (%.2fx speedup on %d threads)\n", speedup,
                 scale_threads);
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace krx

int main(int argc, char** argv) { return krx::Main(argc, argv); }
