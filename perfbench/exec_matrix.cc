// exec-matrix: the full bench matrix (23 LMBench rows, the Phoronix mixes,
// a VFS walk and an IPC round under vanilla, sfi-o3, sfi-o4, mpx, x and d)
// run again and again on one client thread, on the default engine.
//
// Set-up compiles one shared image per config plus one private image per
// config for the stateful VFS/IPC tasks, builds one Cpu and one set of
// workload buffers per task, and runs every task once on the single-step
// engine as the reference. The timed phase allocates nothing: every op must
// reproduce its reference rax checksum, instruction count and deci-cycles,
// and no image may grow by a single frame.
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "src/bench_runner/bench_runner.h"
#include "src/fleet/kernel_cache.h"
#include "src/fleet/tenant.h"

namespace perfbench {
namespace {

using namespace krx;

constexpr uint64_t kMaxSteps = 50'000'000;

class ExecMatrix : public Workload {
 public:
  Status SetUp(uint64_t seed) override {
    cache_ = std::make_unique<KernelCache>(MakeBenchSourceFactory(seed));
    const std::vector<std::string> configs = {"vanilla", "sfi-o3", "sfi-o4", "mpx", "x", "d"};
    const std::vector<BenchTask> tasks =
        MakeBenchMatrix(configs, /*lmbench_rows=*/0, /*repeat=*/1, /*with_phoronix=*/true);
    for (const std::string& config : configs) {
      TenantSpec spec;
      spec.config_name = config;
      auto options = spec.ResolveBuildOptions(seed);
      if (!options.ok()) return options.status();
      auto shared = cache_->Acquire(*options, Sharing::kShared);
      if (!shared.ok()) return shared.status();
      auto priv = cache_->Acquire(*options, Sharing::kPrivate);
      if (!priv.ok()) return priv.status();
      images_.push_back({config, *shared, *priv, 0, 0});
    }
    RunOptions reference;
    reference.engine = ExecEngine::kSingleStep;
    reference.max_steps = kMaxSteps;
    for (const BenchTask& task : tasks) {
      Image* image = nullptr;
      for (Image& candidate : images_) {
        if (candidate.config == task.spec.config_name) image = &candidate;
      }
      if (image == nullptr) return InternalError("no image for " + task.name);
      std::shared_ptr<CompiledKernel>& kernel =
          WorkloadIsStateful(task.spec.workload) ? image->priv : image->shared;
      Task t;
      t.name = task.name;
      t.spec = task.spec;
      CpuOptions copts;
      copts.mpx_enabled = kernel->config.mpx;
      {
        SpanScope span("cpu.init");
        const Clock::time_point t0 = Clock::now();
        t.cpu = std::make_unique<Cpu>(kernel->image.get(), CostModel(), copts);
        TraceSample("cpu.init_us", UsBetween(t0, Clock::now()));
      }
      if (!t.cpu->init_error().empty()) return InternalError(t.cpu->init_error());
      {
        SpanScope span("workload.setup_buffers");
        const Clock::time_point t0 = Clock::now();
        auto buffers = SetUpWorkloadBuffers(*kernel->image, t.spec.workload, seed);
        TraceSample("workload.setup_buffers_us", UsBetween(t0, Clock::now()));
        if (!buffers.ok()) return buffers.status();
        t.buffers = *buffers;
      }
      Status st = RunWorkloadOnce(*t.cpu, t.spec, t.buffers, reference, &t.reference);
      if (!st.ok()) return InternalError("reference run of " + t.name + ": " + st.message());
      // One warm-up iteration on the default engine fills the Cpu's caches.
      WorkloadCounters warm;
      st = RunWorkloadOnce(*t.cpu, t.spec, t.buffers, RunOptions{.max_steps = kMaxSteps}, &warm);
      if (!st.ok() || warm.rax_checksum != t.reference.rax_checksum ||
          warm.deci_cycles != t.reference.deci_cycles) {
        return InternalError("warm-up run of " + t.name + " diverged from the reference");
      }
      tasks_.push_back(std::move(t));
    }
    for (Image& image : images_) {
      image.shared_frames = image.shared->image->phys().frames_allocated();
      image.priv_frames = image.priv->image->phys().frames_allocated();
    }
    return Status::Ok();
  }

  PhaseResult Run(double seconds) override {
    PhaseResult out;
    out.ops_per_cycle = tasks_.size();
    RunOptions run;  // the default engine
    run.max_steps = kMaxSteps;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    out.ops.reserve(1 << 20);
    uint64_t passes = 0, pass_insts = 0, pass_deci = 0, pass_ops = 0;
    bool timed_out = false;
    while (!timed_out) {
      for (Task& t : tasks_) {
        WorkloadCounters c;
        const Clock::time_point t0 = Clock::now();
        Status st;
        {
          SpanScope span("workload.run_once");
          st = RunWorkloadOnce(*t.cpu, t.spec, t.buffers, run, &c);
        }
        const Clock::time_point t1 = Clock::now();
        ++out.attempted;
        if (!st.ok()) {
          out.Fail(t.name + ": " + st.message());
        } else if (c.rax_checksum != t.reference.rax_checksum ||
                   c.instructions != t.reference.instructions ||
                   c.deci_cycles != t.reference.deci_cycles) {
          out.Fail(t.name + ": diverged from the single-step reference");
        } else {
          out.ops.push_back({MsBetween(start, t1) / 1000.0, MsBetween(t0, t1), MsBetween(t0, t1)});
          out.guest_instructions += c.instructions;
          out.guest_deci_cycles += c.deci_cycles;
          ++out.guest_ops;
        }
        if (passes == 0) {
          pass_insts += c.instructions;
          pass_deci += c.deci_cycles;
          ++pass_ops;
        }
        if (t1 >= deadline) {
          timed_out = true;
          break;
        }
      }
      if (!timed_out) ++passes;
    }
    out.wall_s = MsBetween(start, Clock::now()) / 1000.0;

    // Nothing may allocate guest frames in the timed phase: a shared image
    // that grows here would eventually exhaust the bump allocator.
    uint64_t max_delta = 0;
    for (const Image& image : images_) {
      const uint64_t shared_delta =
          image.shared->image->phys().frames_allocated() - image.shared_frames;
      const uint64_t priv_delta = image.priv->image->phys().frames_allocated() - image.priv_frames;
      max_delta = std::max({max_delta, shared_delta, priv_delta});
      if (shared_delta != 0 || priv_delta != 0) {
        out.Fail(image.config + ": image grew by " + std::to_string(shared_delta + priv_delta) +
                 " frames during the timed phase");
      }
    }
    TraceSample("mem.frames_allocated_delta", static_cast<double>(max_delta));

    uint64_t hits = 0, misses = 0, sb_entries = 0, sb_breaks = 0, sb_exec = 0, sb_fast = 0,
             tlb_hits = 0, tlb_misses = 0;
    for (const Task& t : tasks_) {
      hits += t.cpu->block_cache().stats().hits;
      misses += t.cpu->block_cache().stats().misses;
      const SuperblockStats& ss = t.cpu->superblock_cache().stats();
      sb_entries += ss.entries;
      sb_breaks += ss.chain_breaks;
      sb_exec += ss.executed_insts;
      sb_fast += ss.fastpath_insts;
      tlb_hits += ss.tlb_hits;
      tlb_misses += ss.tlb_misses;
    }
    if (hits + misses > 0) {
      TraceSample("cpu.block_cache.hit_rate",
                  static_cast<double>(hits) / static_cast<double>(hits + misses));
    }
    if (sb_entries > 0) {
      TraceSample("cpu.superblock.chain_break_ratio",
                  static_cast<double>(sb_breaks) / static_cast<double>(sb_entries));
      TraceSample("cpu.superblock.fastpath_share",
                  static_cast<double>(sb_fast) / static_cast<double>(sb_exec));
      TraceSample("cpu.superblock.tlb_hit_rate",
                  static_cast<double>(tlb_hits) / static_cast<double>(tlb_hits + tlb_misses));
    }

    out.extras.push_back({"passes", static_cast<double>(passes), "count",
                          "complete matrix passes in the timed phase"});
    out.extras.push_back({"sim_cycles_per_op",
                          pass_ops == 0 ? 0 : static_cast<double>(pass_deci) / 10.0 / pass_ops,
                          "cycles", "simulated cycles per op over one full matrix pass"});
    out.extras.push_back({"pass_guest_minst", static_cast<double>(pass_insts) / 1e6, "Minst",
                          "guest instructions in one full matrix pass"});
    out.extras.push_back({"mem.frames_allocated_delta", static_cast<double>(max_delta), "frames",
                          "largest growth of any image across the timed phase"});
    return out;
  }

 private:
  struct Image {
    std::string config;
    std::shared_ptr<CompiledKernel> shared;  // read-only tasks
    std::shared_ptr<CompiledKernel> priv;    // VFS and IPC (guest globals)
    uint64_t shared_frames = 0;
    uint64_t priv_frames = 0;
  };
  struct Task {
    std::string name;
    TenantSpec spec;
    std::unique_ptr<Cpu> cpu;
    WorkloadBuffers buffers;
    WorkloadCounters reference;  // one single-step iteration
  };

  std::unique_ptr<KernelCache> cache_;
  std::vector<Image> images_;
  // Declared after images_: every Cpu points into an image.
  std::vector<Task> tasks_;
};

}  // namespace

std::unique_ptr<Workload> MakeExecMatrix() { return std::make_unique<ExecMatrix>(); }

}  // namespace perfbench
