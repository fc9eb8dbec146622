// TenantSpec: the typed identity of one fleet tenant and its workload.
//
// Promotes what used to be loose BenchTask fields (config_name / op_symbol /
// ops strings side by side) into one spec consumed by both the bench matrix
// (src/bench_runner) and the multi-tenant fleet (src/fleet/fleet.h): which
// protection config the tenant runs, its private diversification seed, and
// the workload it drives. Also home of WorkloadKind, which moved here from
// bench_runner so the fleet can execute workloads without depending on the
// bench driver.
#ifndef KRX_SRC_FLEET_TENANT_H_
#define KRX_SRC_FLEET_TENANT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/cpu/cpu.h"
#include "src/plugin/pipeline.h"

namespace krx {

enum class WorkloadKind : uint8_t {
  kLmbench,   // one synthetic kernel op, called with the scratch buffer
  kPhoronix,  // weighted mix of kernel ops (Table 2 row)
  kVfs,       // open/read/fstat/close walks over the baked-in filesystem
  kIpc,       // pipe ring + checksummed socket round trips
};

const char* WorkloadKindName(WorkloadKind kind);

// VFS and IPC mutate guest globals (fd tables, ring indices): they need a
// private image, or serialization, where lmbench/phoronix ops are read-only
// and safe to run concurrently on one shared image.
inline bool WorkloadIsStateful(WorkloadKind kind) {
  return kind == WorkloadKind::kVfs || kind == WorkloadKind::kIpc;
}

struct TenantSpec {
  int tenant_id = 0;
  std::string config_name;  // ParseConfigName vocabulary ("vanilla", "sfi-o3", ...)
  // Per-tenant diversification seed; 0 defers to the consumer's default
  // seed. Two tenants with the same config but different seeds share one
  // pristine blob in the fleet and diverge only in layout.
  uint64_t seed = 0;
  WorkloadKind workload = WorkloadKind::kLmbench;
  std::string op_symbol;                         // kLmbench: the op to call
  std::vector<std::pair<std::string, int>> ops;  // kPhoronix: (symbol, weight)

  // The build this spec asks for: ParseConfigName(config_name, effective
  // seed) packed into BuildOptions. Fails on an unknown config name.
  Result<BuildOptions> ResolveBuildOptions(uint64_t default_seed) const;
};

// ---- Workload execution (shared by BenchRunner::RunOne and the fleet). ----

// Guest-side scratch buffers a workload needs, allocated once per
// (tenant, worker) session and reused across requests; a session that ends
// hands them back with ReleaseWorkloadBuffers.
struct WorkloadBuffers {
  uint64_t op_buffer = 0;  // lmbench/phoronix scratch
  uint64_t vfs_buf = 0;    // vfs_read / vfs_fstat destination page
  uint64_t ipc_src = 0;    // prefilled pipe/socket payload page
  uint64_t ipc_dst = 0;    // pipe/socket receive page
};

// Allocates (and deterministically fills) the buffers `workload` needs on
// `image`, seeded so identical (seed, workload) sessions produce identical
// guest inputs — the rax checksum witness depends on it.
Result<WorkloadBuffers> SetUpWorkloadBuffers(KernelImage& image, WorkloadKind workload,
                                             uint64_t seed);

// Returns the pages SetUpWorkloadBuffers allocated to `image`. Without it,
// every bench task would leave its buffers on the shared image it ran on.
void ReleaseWorkloadBuffers(KernelImage& image, const WorkloadBuffers& buffers);

// Accumulated guest work; rax_checksum is the order-sensitive FNV-1a fold
// of every call's return value — the semantic witness that two runs (cached
// vs uncached, CoW tenant vs private control) computed the same thing.
struct WorkloadCounters {
  uint64_t calls = 0;
  uint64_t instructions = 0;
  uint64_t deci_cycles = 0;
  uint64_t rax_checksum = 0;
};

void FoldRax(uint64_t rax, uint64_t* checksum);

// Runs ONE iteration of the spec's workload (one op call / one weighted op
// mix / one VFS walk / one IPC round) on `cpu`, accumulating into
// `counters`. Returns the first failing call's description as an error
// status. The caller owns concurrency: stateful workloads on a shared image
// must be serialized per image.
Status RunWorkloadOnce(Cpu& cpu, const TenantSpec& spec, const WorkloadBuffers& buffers,
                       const RunOptions& run, WorkloadCounters* counters);

}  // namespace krx

#endif  // KRX_SRC_FLEET_TENANT_H_
