// TenantFleet: the multi-tenant serving layer.
//
// N tenants x M worker Cpus run concurrently, each tenant on its own
// *diversified* kernel image materialized copy-on-write from a shared
// pristine build:
//
//   Admit(spec)
//     -> Acquire(base options, Sharing::kShared)   // one build per config
//     -> MaterializeTenant(base, tenant options)   // re-link, no recompile
//     -> per-tenant rerand epoch (tenant seed)     // unique layout
//     -> per-(tenant, worker) Cpus + scratch buffers
//
// Tenants whose specs differ only in seed (same config) share one pristine
// TextBlob and one LinkArtifacts object — the per-tenant cost is the
// re-linked image, not a private copy of the compile. MemoryUsage() reports
// exactly that split, against the naive copy-per-tenant baseline.
//
// Concurrency: admit all tenants, then Serve() from any number of threads.
// A worker Cpu runs one request at a time: Serve holds the worker's mutex
// for the whole request, so a second request for a busy worker waits for
// it. Requests on different workers run in parallel on read-only
// workloads; stateful workloads (VFS, IPC — guest globals) also serialize
// on a per-tenant mutex, never across tenants.
#ifndef KRX_SRC_FLEET_FLEET_H_
#define KRX_SRC_FLEET_FLEET_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/cpu/cpu.h"
#include "src/fleet/kernel_cache.h"
#include "src/fleet/tenant.h"

namespace krx {

// Re-links a private tenant image from base.artifacts without re-running
// the protect/assemble phases: CompileKernel's own link tail
// (LinkFromArtifacts) on a stream seeded from the tenant's effective seed,
// so placement (tenant layout + coarse-KASLR slide) and xkeys are the
// tenant's, and the RerandMap ALIASES the base's pristine blob
// (pointer-identical, never copied). `phys_bytes` overrides the image's
// physical-memory size; 0 keeps the base's. The result's stats are the
// base's (instrumentation ran once, on the base build); its config carries
// the effective seed, as CompileKernel's does.
Result<CompiledKernel> MaterializeTenant(const CompiledKernel& base, const BuildOptions& options,
                                         uint64_t phys_bytes = 0);

struct FleetOptions {
  // Corpus seed and the canonical seed every pristine base build uses —
  // tenants with seed 0 also fall back to it.
  uint64_t base_seed = 0xB0F;
  int workers_per_tenant = 1;  // M Cpus per tenant
  uint64_t max_steps = 50'000'000;
  // Physical memory per tenant image; 0 keeps the base build's size. The
  // base source defaults to 64MB/tenant — fleets of 16+ tenants usually
  // want this smaller.
  uint64_t phys_bytes = 0;
};

class TenantFleet {
 public:
  TenantFleet(KernelCache* cache, const FleetOptions& options);

  struct Tenant {
    explicit Tenant(int worker_count) : workers(static_cast<size_t>(worker_count)) {}

    int index = 0;  // admit order; the id Serve() takes
    TenantSpec spec;
    uint64_t effective_seed = 0;
    std::shared_ptr<CompiledKernel> kernel;  // CoW-materialized private image
    uint64_t epochs = 0;                     // diversification epochs run at admit

    // One Cpu + scratch buffers per worker (private Mmu / stack / block
    // cache; buffers are deterministic per tenant seed, so workers are
    // witnesses of each other).
    struct Worker {
      std::unique_ptr<Cpu> cpu;
      WorkloadBuffers buffers;
      std::mutex mu;  // held by Serve for a whole request on this worker
    };
    std::vector<Worker> workers;

    // Serializes stateful (guest-global-mutating) requests on this tenant.
    std::mutex state_mu;
  };

  // Materializes the tenant and its workers. Thread-compatible (serialize
  // admissions); returns the admitted tenant, owned by the fleet.
  Result<const Tenant*> Admit(const TenantSpec& spec);

  // Runs ONE workload request for tenant `tenant_index` on worker `worker`
  // (wrapped modulo the worker count), holding that worker's mutex
  // throughout. Thread-safe after admissions stop.
  Result<WorkloadCounters> Serve(int tenant_index, int worker);

  int tenant_count() const;
  const Tenant* tenant(int tenant_index) const;

  // The CoW memory split, against the naive copy-per-tenant baseline.
  struct MemoryReport {
    int tenants = 0;
    // Distinct shared LinkArtifacts sets (one per pristine group).
    int pristine_groups = 0;
    uint64_t shared_bytes = 0;       // sum of ApproxBytes over the groups
    uint64_t image_bytes = 0;        // used guest frames x page, all tenants
    uint64_t cow_total_bytes = 0;    // shared_bytes + image_bytes
    uint64_t naive_total_bytes = 0;  // every tenant carrying its own artifacts
    // 1 - pristine_groups / tenants: the fraction of per-tenant compiles
    // (and artifact copies) the fleet deduplicated away.
    double dedup_ratio = 0;
    double avg_bytes_per_tenant = 0;  // cow_total_bytes / tenants
    // Host memory actually behind the tenant images (PhysMem::
    // resident_bytes, summed), and the whole process's VmRSS at report
    // time, to hold the figures above against.
    uint64_t resident_bytes = 0;
    uint64_t process_rss_bytes = 0;
  };
  MemoryReport MemoryUsage() const;

 private:
  KernelCache* cache_;
  FleetOptions options_;
  mutable std::mutex mu_;  // guards tenants_ (admissions vs lookups)
  std::vector<std::unique_ptr<Tenant>> tenants_;
};

}  // namespace krx

#endif  // KRX_SRC_FLEET_FLEET_H_
