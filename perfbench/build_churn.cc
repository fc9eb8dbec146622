// build-churn: what every fleet admission and every test build pays. One op
// is one verified CompileKernel of the bench source, then kTenantsPerBuild
// copy-on-write MaterializeTenant calls from that build, each followed (for
// diversified configs) by one diversification epoch: the steps
// TenantFleet::Admit runs. Configs cycle through vanilla, sfi-o3, sfi-o4,
// mpx, x, d and sfi+x; build and tenant seeds are drawn from the workload
// seed. Every build and every epoch must pass the static verifier.
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "src/base/rng.h"
#include "src/bench_runner/bench_runner.h"
#include "src/fleet/fleet.h"
#include "src/rerand/engine.h"
#include "src/verify/verifier.h"

namespace perfbench {
namespace {

using namespace krx;

constexpr int kTenantsPerBuild = 2;
constexpr uint64_t kTenantPhysBytes = 32ULL << 20;

class BuildChurn : public Workload {
 public:
  Status SetUp(uint64_t seed) override {
    seed_ = seed;
    source_ = MakeBenchSourceFactory(seed)();
    // One warm-up build, so the timed phase starts with the allocator and
    // page cache in their steady state.
    TenantSpec spec;
    spec.config_name = "vanilla";
    auto options = spec.ResolveBuildOptions(seed);
    if (!options.ok()) return options.status();
    auto built = CompileKernel(source_, *options);
    return built.ok() ? Status::Ok() : built.status();
  }

  PhaseResult Run(double seconds) override {
    static const char* const kConfigs[] = {"vanilla", "sfi-o3", "sfi-o4", "mpx",
                                           "x",       "d",      "sfi+x"};
    constexpr int kNumConfigs = sizeof(kConfigs) / sizeof(kConfigs[0]);
    PhaseResult out;
    out.ops_per_cycle = kNumConfigs;
    Rng rng(seed_ ^ 0xB0117C4u);
    std::vector<double> materialize_ms, stw_ms;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    for (uint64_t op = 0; Clock::now() < deadline; ++op) {
      TenantSpec spec;
      spec.config_name = kConfigs[op % kNumConfigs];
      spec.seed = rng.Next() | 1;
      std::vector<uint64_t> tenant_seeds;
      for (int i = 0; i < kTenantsPerBuild; ++i) tenant_seeds.push_back(rng.Next() | 1);
      ++out.attempted;
      const Clock::time_point t0 = Clock::now();
      std::string error = BuildOnce(spec, tenant_seeds, &materialize_ms, &stw_ms);
      const Clock::time_point t1 = Clock::now();
      if (!error.empty()) {
        out.Fail(spec.config_name + ": " + error);
      } else {
        out.ops.push_back({MsBetween(start, t1) / 1000.0, MsBetween(t0, t1), MsBetween(t0, t1)});
      }
    }
    out.wall_s = MsBetween(start, Clock::now()) / 1000.0;
    out.extras.push_back({"materialize_ms_p50", Median(materialize_ms), "ms",
                          "per MaterializeTenant call, n=" + std::to_string(materialize_ms.size())});
    out.extras.push_back({"epoch_stw_ms_p50", Median(stw_ms), "ms",
                          "diversification epochs (no live Cpus), n=" +
                              std::to_string(stw_ms.size())});
    return out;
  }

 private:
  // One op; returns an empty string on success, else what failed.
  std::string BuildOnce(const TenantSpec& spec, const std::vector<uint64_t>& tenant_seeds,
                        std::vector<double>* materialize_ms, std::vector<double>* stw_ms) {
    auto options = spec.ResolveBuildOptions(seed_);
    if (!options.ok()) return options.status().message();
    options->verify = BuildOptions::Verify::kOn;
    Result<CompiledKernel> base = [&] {
      SpanScope span("plugin.compile_kernel");
      return CompileKernel(source_, *options);
    }();
    if (!base.ok()) return "build: " + base.status().message();
    for (uint64_t tenant_seed : tenant_seeds) {
      TenantSpec tenant = spec;
      tenant.seed = tenant_seed;
      auto tenant_options = tenant.ResolveBuildOptions(seed_);
      if (!tenant_options.ok()) return tenant_options.status().message();
      const Clock::time_point t0 = Clock::now();
      Result<CompiledKernel> kernel = [&] {
        SpanScope span("fleet.materialize");
        return MaterializeTenant(*base, *tenant_options, kTenantPhysBytes);
      }();
      const Clock::time_point t1 = Clock::now();
      if (!kernel.ok()) return "materialize: " + kernel.status().message();
      materialize_ms->push_back(MsBetween(t0, t1));
      TraceSample("fleet.materialize_us", UsBetween(t0, t1));
      if (!kernel->config.diversify) continue;
      RerandOptions ropts;
      ropts.seed = tenant_seed;
      ropts.permute = true;
      ropts.rotate_xkeys = true;
      ropts.verify_after = true;
      RerandEngine engine(&*kernel, ropts);
      Result<EpochReport> report = [&] {
        SpanScope span("rerand.epoch");
        return engine.RunEpoch(RerandTrigger::kManual);
      }();
      if (!report.ok()) return "epoch: " + report.status().message();
      if (!report->verified && VerifyOptions::ForConfig(kernel->config).AnyChecks()) {
        return "epoch finished without verification";
      }
      stw_ms->push_back(report->stw_ms);
    }
    return "";
  }

  uint64_t seed_ = 0;
  KernelSource source_;
};

}  // namespace

std::unique_ptr<Workload> MakeBuildChurn() { return std::make_unique<BuildChurn>(); }

}  // namespace perfbench
