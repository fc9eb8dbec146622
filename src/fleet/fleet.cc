#include "src/fleet/fleet.h"

#include <utility>

#include "src/rerand/engine.h"
#include "src/telemetry/metrics.h"

namespace krx {

Result<CompiledKernel> MaterializeTenant(const CompiledKernel& base, const BuildOptions& options,
                                         uint64_t phys_bytes) {
  if (base.artifacts == nullptr || base.artifacts->pristine == nullptr) {
    return FailedPreconditionError("MaterializeTenant: base kernel has no link artifacts");
  }
  CompiledKernel out;
  out.stats = base.stats;  // instrumentation ran once, on the base build
  out.config = options.Resolved().config;
  out.layout = options.layout;
  out.artifacts = base.artifacts;
  Rng rng(out.config.seed ^ 0xF1EE7ULL);
  KRX_RETURN_IF_ERROR(LinkFromArtifacts(&out, phys_bytes, rng));
  KRX_COUNTER_ADD("fleet.cow_materializations", 1);
  return out;
}

TenantFleet::TenantFleet(KernelCache* cache, const FleetOptions& options)
    : cache_(cache), options_(options) {
  if (options_.workers_per_tenant < 1) {
    options_.workers_per_tenant = 1;
  }
}

Result<const TenantFleet::Tenant*> TenantFleet::Admit(const TenantSpec& spec) {
  // The base build for the tenant's pristine group: same config, canonical
  // fleet seed. Every same-config tenant resolves to the same BuildOptions
  // here, so the cache compiles the group exactly once and hands back one
  // shared LinkArtifacts.
  TenantSpec base_spec = spec;
  base_spec.seed = 0;
  auto base_options = base_spec.ResolveBuildOptions(options_.base_seed);
  if (!base_options.ok()) {
    return base_options.status();
  }
  auto base = cache_->Acquire(*base_options, Sharing::kShared);
  if (!base.ok()) {
    return base.status();
  }

  auto tenant_options = spec.ResolveBuildOptions(options_.base_seed);
  if (!tenant_options.ok()) {
    return tenant_options.status();
  }
  auto kernel = MaterializeTenant(**base, *tenant_options, options_.phys_bytes);
  if (!kernel.ok()) {
    return kernel.status();
  }

  auto tenant = std::make_unique<Tenant>(options_.workers_per_tenant);
  tenant->spec = spec;
  tenant->effective_seed = tenant_options->seed;
  tenant->kernel = std::make_shared<CompiledKernel>(std::move(*kernel));

  // Per-tenant layout diversity: one re-randomization epoch seeded by the
  // tenant. No Cpus are registered yet, so quiescence passes trivially.
  if (tenant->kernel->config.diversify) {
    RerandOptions ropts;
    ropts.seed = tenant->effective_seed;
    ropts.permute = true;
    ropts.rotate_xkeys = true;
    ropts.verify_after = PostLinkVerifyEnabled();
    RerandEngine engine(tenant->kernel.get(), ropts);
    auto report = engine.RunEpoch(RerandTrigger::kManual);
    if (!report.ok()) {
      return InternalError("tenant diversification epoch failed: " + report.status().message());
    }
    tenant->epochs = engine.epochs_completed();
  }

  KernelImage& image = *tenant->kernel->image;
  for (Tenant::Worker& worker : tenant->workers) {
    CpuOptions copts;
    copts.mpx_enabled = tenant->kernel->config.mpx;
    worker.cpu = std::make_unique<Cpu>(&image, CostModel(), copts);
    if (!worker.cpu->init_error().empty()) {
      return InternalError("cpu init failed: " + worker.cpu->init_error());
    }
    auto buffers = SetUpWorkloadBuffers(image, spec.workload, tenant->effective_seed);
    if (!buffers.ok()) {
      return buffers.status();
    }
    worker.buffers = *buffers;
  }

  KRX_COUNTER_ADD("fleet.tenants_admitted", 1);
  std::lock_guard<std::mutex> lock(mu_);
  tenant->index = static_cast<int>(tenants_.size());
  tenants_.push_back(std::move(tenant));
  return tenants_.back().get();
}

Result<WorkloadCounters> TenantFleet::Serve(int tenant_index, int worker) {
  Tenant* tenant = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tenant_index < 0 || tenant_index >= static_cast<int>(tenants_.size())) {
      return InvalidArgumentError("no such tenant: " + std::to_string(tenant_index));
    }
    tenant = tenants_[static_cast<size_t>(tenant_index)].get();
  }
  Tenant::Worker& w =
      tenant->workers[static_cast<size_t>(worker) % tenant->workers.size()];

  RunOptions run;
  run.max_steps = options_.max_steps;

  WorkloadCounters counters;
  Status status;
  std::lock_guard<std::mutex> worker_lock(w.mu);
  if (WorkloadIsStateful(tenant->spec.workload)) {
    std::lock_guard<std::mutex> lock(tenant->state_mu);
    status = RunWorkloadOnce(*w.cpu, tenant->spec, w.buffers, run, &counters);
  } else {
    status = RunWorkloadOnce(*w.cpu, tenant->spec, w.buffers, run, &counters);
  }
  KRX_COUNTER_ADD("fleet.requests", 1);
  if (!status.ok()) {
    KRX_COUNTER_ADD("fleet.request_failures", 1);
    return status;
  }
  return counters;
}

int TenantFleet::tenant_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(tenants_.size());
}

const TenantFleet::Tenant* TenantFleet::tenant(int tenant_index) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (tenant_index < 0 || tenant_index >= static_cast<int>(tenants_.size())) {
    return nullptr;
  }
  return tenants_[static_cast<size_t>(tenant_index)].get();
}

TenantFleet::MemoryReport TenantFleet::MemoryUsage() const {
  std::lock_guard<std::mutex> lock(mu_);
  MemoryReport report;
  report.tenants = static_cast<int>(tenants_.size());
  // Group by the shared LinkArtifacts object itself: aliasing IS the dedup.
  std::vector<const LinkArtifacts*> groups;
  for (const auto& tenant : tenants_) {
    const LinkArtifacts* artifacts = tenant->kernel->artifacts.get();
    bool seen = false;
    for (const LinkArtifacts* g : groups) {
      if (g == artifacts) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      groups.push_back(artifacts);
      report.shared_bytes += artifacts->ApproxBytes();
    }
    const PhysMem& phys = tenant->kernel->image->phys();
    const uint64_t image_bytes = phys.frames_allocated() << kPageShift;
    report.image_bytes += image_bytes;
    report.resident_bytes += phys.resident_bytes();
    report.naive_total_bytes += artifacts->ApproxBytes() + image_bytes;
  }
  report.process_rss_bytes = ProcessRssBytes();
  report.pristine_groups = static_cast<int>(groups.size());
  report.cow_total_bytes = report.shared_bytes + report.image_bytes;
  if (report.tenants > 0) {
    report.dedup_ratio = 1.0 - static_cast<double>(report.pristine_groups) /
                                   static_cast<double>(report.tenants);
    report.avg_bytes_per_tenant =
        static_cast<double>(report.cow_total_bytes) / report.tenants;
  }
  return report;
}

}  // namespace krx
