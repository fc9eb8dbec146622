// The parallel benchmark driver.
//
// A bench run is a matrix of BenchTasks — (workload, protection column)
// points — executed by a fixed thread pool. Each task runs on its own Cpu
// (private Mmu, private stack, private block cache) over a compiled kernel
// acquired from the fleet KernelCache, so identically-configured
// tasks share one immutable image and each distinct build compiles exactly
// once per run. Stateful workloads (VFS fd tables, IPC rings) acquire a private
// build instead — guest globals are not thread-safe.
//
// Per task the driver records guest work (retired instructions,
// deci-cycles), host wall time, block-cache telemetry, and a semantic
// checksum of every return value — the cached-vs-uncached comparison the
// bench_perf tool (and the perf CI stage) asserts on.
#ifndef KRX_SRC_BENCH_RUNNER_BENCH_RUNNER_H_
#define KRX_SRC_BENCH_RUNNER_BENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/cpu/cpu.h"
#include "src/fleet/kernel_cache.h"
#include "src/fleet/tenant.h"

namespace krx {

namespace telemetry {
class GuestProfiler;
}  // namespace telemetry

struct BenchTask {
  std::string name;  // unique row id, e.g. "lmbench/read_write@sfi-o3"
  // What to run and under which protection: the same typed spec the
  // multi-tenant fleet consumes (src/fleet/tenant.h). spec.seed == 0 defers
  // to BenchRunnerOptions::seed.
  TenantSpec spec;
  int repeat = 4;  // outer repetitions of the task's call sequence
};

struct TaskResult {
  std::string name;
  std::string config_name;
  WorkloadKind workload = WorkloadKind::kLmbench;
  bool ok = false;
  std::string error;

  uint64_t calls = 0;         // guest entries (CallFunction invocations)
  uint64_t instructions = 0;  // retired guest instructions, summed
  uint64_t deci_cycles = 0;   // simulated cost, summed
  // FNV-fold of every call's %rax: the semantic witness that a cached run
  // computed exactly what the uncached interpreter computes.
  uint64_t rax_checksum = 0;
  double wall_ms = 0;         // host wall time of the call sequence

  // Block-cache telemetry of the task's Cpu.
  double cache_hit_rate = 0;
  uint64_t replayed_insts = 0;
  uint64_t decoded_insts = 0;

  // Superblock telemetry of the task's Cpu (all zero unless the run used
  // ExecEngine::kSuperblock).
  uint64_t sb_chains_built = 0;
  uint64_t sb_entries = 0;
  uint64_t sb_chain_breaks = 0;
  double sb_fastpath_share = 0;
  double sb_tlb_hit_rate = 0;
};

struct BenchRunnerOptions {
  int threads = 1;
  uint64_t seed = 0xB0F;         // source-corpus and build seed
  // Engine selection forwarded to every RunOptions. bench_perf's phase 1
  // runs the matrix once per engine.
  ExecEngine engine = ExecEngine::kBlockCache;
  uint64_t max_steps = 50'000'000;
  // Optional: one PC slot per pool worker ("worker-N") for per-worker
  // attribution of the sampled matrix.
  telemetry::GuestProfiler* profiler = nullptr;
};

class BenchRunner {
 public:
  BenchRunner(const BenchRunnerOptions& options, KernelCache* cache)
      : options_(options), cache_(cache) {}

  // Executes the matrix on `options.threads` workers; results are returned
  // in task order. Individual task failures land in TaskResult::error —
  // the run itself never aborts.
  std::vector<TaskResult> Run(const std::vector<BenchTask>& tasks);

 private:
  TaskResult RunOne(const BenchTask& task) const;

  BenchRunnerOptions options_;
  KernelCache* cache_;
};

// Source factory for the standard bench matrices: the LMBench op corpus
// plus the VFS and IPC subsystems, all in one source tree.
KernelCache::SourceFactory MakeBenchSourceFactory(uint64_t seed);

// The standard matrix: for each config name, every LMBench row (capped at
// `lmbench_rows` per config; <= 0 means all), one VFS task and one IPC
// task. Phoronix mixes are appended when `with_phoronix` is set.
std::vector<BenchTask> MakeBenchMatrix(const std::vector<std::string>& config_names,
                                       int lmbench_rows, int repeat, bool with_phoronix);

}  // namespace krx

#endif  // KRX_SRC_BENCH_RUNNER_BENCH_RUNNER_H_
