// serve-open: the multi-tenant fleet under open-loop traffic. 16 tenants
// over two pristine groups of diversified configs (sfi+x and x), mixing
// LMBench ops, VFS walks and IPC rounds, admitted copy-on-write from the
// shared builds. Poisson arrivals run at a fixed ladder of offered rates and
// are served by kClients client threads; latency is timed from each
// request's scheduled send, so a stall also charges the requests queued
// behind it. Every block of kTenants arrivals visits each tenant once (see
// PoissonSchedule), so windows of whole blocks carry the same request mix.
// Clients spin while they wait to send. Two of them leave half of the 4
// CPUs the benchmark targets to the rest of the system; with three,
// ops_per_s spread by up to a third between runs on a shared host.
//
// Every request must reproduce the rax checksum, instruction count and
// deci-cycles of its tenant's single-step reference run.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "src/bench_runner/bench_runner.h"
#include "src/fleet/fleet.h"
#include "src/workload/lmbench.h"

namespace perfbench {
namespace {

using namespace krx;

constexpr int kTenants = 16;
constexpr int kClients = 2;
constexpr uint64_t kTenantPhysBytes = 32ULL << 20;
constexpr double kSloMs = 2.0;  // p99 latency limit, and the load generator's lag limit
// The ladder of offered rates (req/s). The reference rung sits below
// capacity; op latency and throughput are reported there.
constexpr double kLadder[] = {2000, 4000, 8000, 16000, 24000, 32000, 40000, 48000, 64000};
constexpr double kReferenceRps = 8000;
constexpr double kReferenceShare = 0.4;  // of the timed phase

class ServeOpen : public Workload {
 public:
  Status SetUp(uint64_t seed) override {
    seed_ = seed;
    cache_ = std::make_unique<KernelCache>(MakeBenchSourceFactory(seed));
    FleetOptions fopts;
    fopts.base_seed = seed;
    // Worker i of every tenant is driven only by client thread i.
    fopts.workers_per_tenant = kClients;
    fopts.phys_bytes = kTenantPhysBytes;
    fleet_ = std::make_unique<TenantFleet>(cache_.get(), fopts);

    const double rss_before = CurrentRssMb();
    const std::vector<LmbenchRow>& rows = LmbenchRows();
    for (int i = 0; i < kTenants; ++i) {
      TenantSpec spec;
      spec.tenant_id = i;
      spec.config_name = i % 2 == 0 ? "sfi+x" : "x";
      spec.seed = (seed * 0x9E3779B97F4A7C15ULL) + 0x1000 + static_cast<uint64_t>(i);
      switch (i % 3) {
        case 0:
          spec.workload = WorkloadKind::kLmbench;
          spec.op_symbol = "sys_" + rows[static_cast<size_t>(i) % rows.size()].profile.name;
          break;
        case 1:
          spec.workload = WorkloadKind::kVfs;
          break;
        default:
          spec.workload = WorkloadKind::kIpc;
          break;
      }
      const Clock::time_point t0 = Clock::now();
      Result<const TenantFleet::Tenant*> tenant = [&] {
        SpanScope span("fleet.admit");
        return fleet_->Admit(spec);
      }();
      TraceSample("fleet.admit_us", UsBetween(t0, Clock::now()));
      if (!tenant.ok()) return tenant.status();
    }
    const double rss_per_tenant = (CurrentRssMb() - rss_before) / kTenants;
    const TenantFleet::MemoryReport mem = fleet_->MemoryUsage();
    TraceSample("mem.rss_mb_per_tenant", rss_per_tenant);
    TraceSample("fleet.reported_bytes_per_tenant", mem.avg_bytes_per_tenant);
    if (rss_per_tenant > 0) {
      TraceSample("fleet.reported_to_rss_ratio",
                  mem.avg_bytes_per_tenant / (rss_per_tenant * 1048576.0));
    }
    TraceSample("fleet.dedup_ratio", mem.dedup_ratio);

    // Reference results, single-step, on worker 0 before any thread runs.
    RunOptions reference;
    reference.engine = ExecEngine::kSingleStep;
    reference.max_steps = 50'000'000;
    references_.clear();
    for (int i = 0; i < kTenants; ++i) {
      const TenantFleet::Tenant* t = fleet_->tenant(i);
      WorkloadCounters c;
      Status st = RunWorkloadOnce(*t->workers[0].cpu, t->spec, t->workers[0].buffers, reference, &c);
      if (!st.ok()) return InternalError("reference run: " + st.message());
      references_.push_back(c);
    }
    // Warm every (tenant, worker) pair through Serve itself, one at a time,
    // so the timed phase starts with filled block caches.
    for (int i = 0; i < kTenants; ++i) {
      for (int w = 0; w < kClients; ++w) {
        auto r = fleet_->Serve(i, w);
        if (!r.ok()) return InternalError("warm-up request: " + r.status().message());
        if (r->rax_checksum != references_[static_cast<size_t>(i)].rax_checksum) {
          return InternalError("warm-up request diverged from the single-step reference");
        }
      }
    }
    return Status::Ok();
  }

  PhaseResult Run(double seconds) override {
    PhaseResult out;
    // Throughput counts the time spent in Serve, not the offered rate.
    out.clients = kClients;
    out.ops_per_cycle = kTenants;
    const double total_ms = seconds * 1000.0;
    const double reference_ms = total_ms * kReferenceShare;
    const int other_rungs = static_cast<int>(std::size(kLadder)) - 1;
    const double rung_ms = (total_ms - reference_ms) / other_rungs;

    Rung ref = RunRung(kReferenceRps, reference_ms, /*record=*/true, &out);
    out.ops = ref.ops;
    out.wall_s = ref.wall_ms / 1000.0;
    out.notes.push_back(ref.Describe());
    // Throughput: client threads / the mean over tenants of each tenant's
    // median Serve time at the reference rung. The schedule visits every
    // tenant equally often, so this is the rate the clients could sustain
    // at each request's typical cost; a host stall that hits a few requests
    // does not move it (mean_ops_per_s in the summary counts those).
    double typical_ms = 0;
    for (const std::vector<double>& ms : ref.service_ms) typical_ms += Median(ms) / kTenants;
    if (typical_ms > 0) out.ops_per_s = kClients * 1000.0 / typical_ms;
    for (double q : {0.1, 0.25, 0.5}) {
      double t = 0;
      for (const std::vector<double>& ms : ref.service_ms) t += Percentile(ms, q) / kTenants;
      out.extras.push_back({"diag_tenant_q" + std::to_string(q), kClients * 1000.0 / t, "1/s", ""});
    }
    double capacity = ref.Passed() ? kReferenceRps : 0;
    for (double rate : kLadder) {
      if (rate == kReferenceRps) continue;
      Rung r = RunRung(rate, rung_ms, /*record=*/false, &out);
      out.notes.push_back(r.Describe());
      if (!r.Passed()) {
        if (rate > kReferenceRps) break;  // the knee: no higher rung is tried
        continue;
      }
      capacity = std::max(capacity, rate);
    }
    out.extras.push_back({"serve_capacity_rps", capacity, "1/s",
                          "highest ladder rung with p99 <= 2 ms, no backlog, no failures"});
    return out;
  }

 private:
  struct Rung {
    double rate = 0;
    std::vector<CompletedOp> ops;  // end_s counts from the rung start
    std::vector<double> latency_ms;
    std::vector<double> lag_ms;
    std::vector<std::vector<double>> service_ms = std::vector<std::vector<double>>(kTenants);
    uint64_t failed = 0;
    double wall_ms = 0;       // rung start to last completion
    double overrun_ms = 0;    // last completion past the last scheduled send
    bool Passed() const {
      return failed == 0 && Percentile(latency_ms, 0.99) <= kSloMs && overrun_ms <= kSloMs &&
             Percentile(lag_ms, 0.99) <= kSloMs;
    }
    std::string Describe() const {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "rung %6.0f req/s: n=%zu p50 %.3f ms p99 %.3f ms, lag p99 %.3f ms, "
                    "overrun %.3f ms, failed %llu -> %s",
                    rate, latency_ms.size(), Percentile(latency_ms, 0.5),
                    Percentile(latency_ms, 0.99), Percentile(lag_ms, 0.99), overrun_ms,
                    static_cast<unsigned long long>(failed),
                    Percentile(lag_ms, 0.99) > kSloMs ? "invalid (generator lag)"
                    : Passed()                        ? "pass"
                                                      : "fail");
      return buf;
    }
  };

  struct ClientLog {
    std::vector<CompletedOp> ops;
    std::vector<double> lag_ms;
    // Serve time of each completed request, per tenant.
    std::vector<std::vector<double>> service_ms = std::vector<std::vector<double>>(kTenants);
    PhaseResult result;  // attempted / failed / guest work of this client
    Clock::time_point last_done{};
  };

  Rung RunRung(double rate, double duration_ms, bool record, PhaseResult* out) {
    const std::vector<Arrival> schedule = PoissonSchedule(
        seed_ ^ static_cast<uint64_t>(rate * 7919), rate, duration_ms, kTenants, kClients);
    std::vector<ClientLog> logs(kClients);
    // Give the client threads time to start before the first send.
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([this, c, start, record, &schedule, &logs] {
          PinThisThread(c);
          ClientLoop(c, start, schedule, record, &logs[static_cast<size_t>(c)]);
        });
      }
      for (std::thread& t : threads) t.join();
    }
    Rung rung;
    rung.rate = rate;
    Clock::time_point last_done = start;
    for (ClientLog& log : logs) {
      rung.ops.insert(rung.ops.end(), log.ops.begin(), log.ops.end());
      for (const CompletedOp& op : log.ops) rung.latency_ms.push_back(op.ms);
      rung.lag_ms.insert(rung.lag_ms.end(), log.lag_ms.begin(), log.lag_ms.end());
      for (size_t t = 0; t < log.service_ms.size(); ++t) {
        rung.service_ms[t].insert(rung.service_ms[t].end(), log.service_ms[t].begin(),
                                  log.service_ms[t].end());
      }
      rung.failed += log.result.failed;
      last_done = std::max(last_done, log.last_done);
      out->attempted += log.result.attempted;
      out->failed += log.result.failed;
      for (const std::string& e : log.result.errors) {
        if (out->errors.size() < 8) out->errors.push_back(e);
      }
      if (record) {
        out->guest_instructions += log.result.guest_instructions;
        out->guest_deci_cycles += log.result.guest_deci_cycles;
        out->guest_ops += log.result.guest_ops;
      }
    }
    rung.wall_ms = MsBetween(start, last_done);
    const double last_send_ms = schedule.empty() ? 0 : schedule.back().at_ms;
    rung.overrun_ms = std::max(0.0, rung.wall_ms - last_send_ms);
    if (record) TraceSample("loadgen.lag_ms_p99", Percentile(rung.lag_ms, 0.99));
    return rung;
  }

  // Client thread `client` sends its share of the schedule, always through
  // fleet worker `client`. TenantFleet::Serve lets two threads drive one
  // worker Cpu if they pass the same (tenant, worker) pair; giving each
  // client thread its own worker index keeps every worker Cpu on exactly
  // one thread, as fleet.h's contract requires.
  void ClientLoop(int client, Clock::time_point start, const std::vector<Arrival>& schedule,
                  bool record, ClientLog* log) {
    uint64_t request = 0;
    for (const Arrival& a : schedule) {
      if (a.client != client) continue;
      ++request;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(a.at_ms));
      if (Clock::now() < due) {
        // Idle: the generator waits for the send time; how late it sends is
        // its lag. A busy client sends late by design (that is queueing).
        // The client spins rather than sleeps: waking a halted vCPU took
        // from tens of microseconds to milliseconds, with host load.
        while (Clock::now() < due) {
        }
        log->lag_ms.push_back(MsBetween(due, Clock::now()));
      }
      const uint64_t tag = (static_cast<uint64_t>(client) << 32) | request;
      const Clock::time_point entry = Clock::now();
      if (record) Tracer::Global().Record("fleet.queue", due, entry, tag);
      Result<WorkloadCounters> r = [&] {
        SpanScope span("fleet.serve", tag);
        return fleet_->Serve(a.tenant, client);
      }();
      const Clock::time_point done = Clock::now();
      log->last_done = done;
      ++log->result.attempted;
      if (!r.ok()) {
        log->result.Fail("tenant " + std::to_string(a.tenant) + ": " + r.status().message());
        continue;
      }
      const WorkloadCounters& want = references_[static_cast<size_t>(a.tenant)];
      if (r->rax_checksum != want.rax_checksum || r->instructions != want.instructions ||
          r->deci_cycles != want.deci_cycles) {
        log->result.Fail("tenant " + std::to_string(a.tenant) +
                         ": diverged from the single-step reference");
        continue;
      }
      log->ops.push_back(
          {MsBetween(start, done) / 1000.0, MsBetween(due, done), MsBetween(entry, done)});
      log->service_ms[static_cast<size_t>(a.tenant)].push_back(MsBetween(entry, done));
      log->result.guest_instructions += r->instructions;
      log->result.guest_deci_cycles += r->deci_cycles;
      ++log->result.guest_ops;
      if (record) {
        TraceSample("fleet.queue_ms", MsBetween(due, entry));
        TraceSample("fleet.exec_ms", MsBetween(entry, done));
      }
    }
  }

  uint64_t seed_ = 0;
  std::unique_ptr<KernelCache> cache_;
  std::unique_ptr<TenantFleet> fleet_;  // after cache_: admissions hold its kernels
  std::vector<WorkloadCounters> references_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeOpen() { return std::make_unique<ServeOpen>(); }

}  // namespace perfbench
