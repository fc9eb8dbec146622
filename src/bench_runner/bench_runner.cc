#include "src/bench_runner/bench_runner.h"

#include <chrono>

#include "src/bench_runner/thread_pool.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/profiler.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/harness.h"
#include "src/workload/ipc.h"
#include "src/workload/lmbench.h"
#include "src/workload/phoronix.h"
#include "src/workload/vfs.h"

namespace krx {

TaskResult BenchRunner::RunOne(const BenchTask& task) const {
  KRX_TRACE_SPAN_SCOPED(("task:" + task.name).c_str());
  TaskResult result;
  result.name = task.name;
  result.config_name = task.spec.config_name;
  result.workload = task.spec.workload;

  auto options = task.spec.ResolveBuildOptions(options_.seed);
  if (!options.ok()) {
    result.error = options.status().message();
    return result;
  }
  // VFS and IPC mutate guest globals (fd tables, ring indices), so they get
  // a private build; the read-only op workloads share one image per key.
  auto kernel = cache_->Acquire(
      *options, WorkloadIsStateful(task.spec.workload) ? Sharing::kPrivate : Sharing::kShared);
  if (!kernel.ok()) {
    result.error = "build failed: " + kernel.status().message();
    return result;
  }
  KernelImage& image = *(*kernel)->image;

  CpuOptions copts;
  copts.mpx_enabled = (*kernel)->config.mpx;
  Cpu cpu(&image, CostModel(), copts);
  if (!cpu.init_error().empty()) {
    result.error = "cpu init failed: " + cpu.init_error();
    return result;
  }
  RunOptions run;
  run.max_steps = options_.max_steps;
  run.engine = options_.engine;
  std::atomic<uint64_t>* pc_slot = nullptr;
  if (options_.profiler != nullptr) {
    const int worker = ThreadPool::CurrentWorkerIndex();
    pc_slot = options_.profiler->AddTarget(
        "worker-" + std::to_string(worker < 0 ? 0 : worker));
    cpu.set_sample_pc_slot(pc_slot);
  }

  auto buffers = SetUpWorkloadBuffers(image, task.spec.workload, options_.seed);
  if (!buffers.ok()) {
    result.error = "buffer setup failed: " + buffers.status().message();
    return result;
  }

  const auto t0 = std::chrono::steady_clock::now();
  WorkloadCounters counters;
  Status status;
  for (int rep = 0; status.ok() && rep < task.repeat; ++rep) {
    status = RunWorkloadOnce(cpu, task.spec, *buffers, run, &counters);
  }
  const auto t1 = std::chrono::steady_clock::now();
  ReleaseWorkloadBuffers(image, *buffers);
  result.calls = counters.calls;
  result.instructions = counters.instructions;
  result.deci_cycles = counters.deci_cycles;
  result.rax_checksum = counters.rax_checksum;
  result.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (!status.ok()) {
    result.error = status.message();
  }
  if (pc_slot != nullptr) {
    // The worker's slot outlives this task; park it at idle so samples taken
    // between tasks don't re-attribute the last guest PC.
    pc_slot->store(0, std::memory_order_relaxed);
  }

  const BlockCacheStats& cs = cpu.block_cache().stats();
  result.cache_hit_rate = cs.hit_rate();
  result.replayed_insts = cs.replayed_insts;
  result.decoded_insts = cs.decoded_insts;
  const SuperblockStats& ss = cpu.superblock_cache().stats();
  result.sb_chains_built = ss.chains_built;
  result.sb_entries = ss.entries;
  result.sb_chain_breaks = ss.chain_breaks;
  result.sb_fastpath_share = ss.fastpath_share();
  result.sb_tlb_hit_rate = ss.tlb_hit_rate();
  result.ok = result.error.empty();
  KRX_COUNTER_ADD("bench.tasks", 1);
  if (!result.ok) {
    KRX_COUNTER_ADD("bench.task_failures", 1);
  }
  KRX_COUNTER_ADD("bench.calls", result.calls);
  KRX_COUNTER_ADD("bench.guest_instructions", result.instructions);
  return result;
}

std::vector<TaskResult> BenchRunner::Run(const std::vector<BenchTask>& tasks) {
  std::vector<TaskResult> results(tasks.size());
  ThreadPool pool(options_.threads);
  for (size_t i = 0; i < tasks.size(); ++i) {
    pool.Submit([this, &tasks, &results, i] { results[i] = RunOne(tasks[i]); });
  }
  KRX_COUNTER_ADD("bench.batches", 1);
  pool.Wait();
  return results;
}

KernelCache::SourceFactory MakeBenchSourceFactory(uint64_t seed) {
  return [seed] {
    KernelSource src = MakeBenchSource(seed);
    AddVfs(&src, DefaultVfsImage());
    AddIpc(&src);
    return src;
  };
}

std::vector<BenchTask> MakeBenchMatrix(const std::vector<std::string>& config_names,
                                       int lmbench_rows, int repeat, bool with_phoronix) {
  std::vector<BenchTask> tasks;
  const std::vector<LmbenchRow>& rows = LmbenchRows();
  const int row_count = (lmbench_rows <= 0 || lmbench_rows > static_cast<int>(rows.size()))
                            ? static_cast<int>(rows.size())
                            : lmbench_rows;
  for (const std::string& config : config_names) {
    for (int i = 0; i < row_count; ++i) {
      BenchTask t;
      t.name = "lmbench/" + rows[i].profile.name + "@" + config;
      t.spec.workload = WorkloadKind::kLmbench;
      t.spec.config_name = config;
      t.spec.op_symbol = "sys_" + rows[i].profile.name;
      t.repeat = repeat;
      tasks.push_back(std::move(t));
    }
    {
      BenchTask t;
      t.name = "vfs/walk@" + config;
      t.spec.workload = WorkloadKind::kVfs;
      t.spec.config_name = config;
      t.repeat = repeat;
      tasks.push_back(std::move(t));
    }
    {
      BenchTask t;
      t.name = "ipc/rings@" + config;
      t.spec.workload = WorkloadKind::kIpc;
      t.spec.config_name = config;
      t.repeat = repeat;
      tasks.push_back(std::move(t));
    }
    if (with_phoronix) {
      for (const PhoronixRow& row : PhoronixRows()) {
        BenchTask t;
        t.name = "phoronix/" + row.name + "@" + config;
        t.spec.workload = WorkloadKind::kPhoronix;
        t.spec.config_name = config;
        t.spec.ops = row.ops;
        t.repeat = repeat;
        tasks.push_back(std::move(t));
      }
    }
  }
  return tasks;
}

}  // namespace krx
