// rerand-live: continuous re-randomization under live load. One fully
// protected kernel (SFI + diversification + return-address encryption, the
// kR^X-KAS layout) with the scheduler substrate loaded and both worker tasks
// suspended mid-call-chain, so every epoch has live encrypted return
// addresses to rewrite. A gated Cpu on a client thread calls a kernel op
// back to back while a second thread fires an epoch after every
// kCallsPerEpoch calls; each epoch must quiesce the running Cpu, and the Cpu
// must rebuild its decoded state afterwards.
//
// The epoch period is counted in calls, not milliseconds, so every window of
// whole periods holds the same mix of calls, epochs and rebuilds whatever the
// host's speed. With a 10 ms timer, a slower host fitted fewer calls between
// epochs, and ops_per_s spread by up to a sixth between runs on a shared
// host. One client rather than two: with two, an epoch waited for whichever
// client's vCPU the host had descheduled, and ops_per_s spread by up to a
// third.
//
// An op is one guest call. Every call must return cleanly with the rax,
// instruction count and deci-cycles the single-step reference computed at
// set-up, whichever layout the epochs left it, and every epoch must pass the
// static verifier.
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "src/cpu/cpu.h"
#include "src/rerand/engine.h"
#include "src/workload/corpus.h"
#include "src/workload/ops.h"
#include "src/workload/sched.h"

namespace perfbench {
namespace {

using namespace krx;

// About what a 10 ms timer period held on a 4-vCPU host.
constexpr uint64_t kCallsPerEpoch = 32;
constexpr const char* kOpSymbol = "sys_live_probe";

class RerandLive : public Workload {
 public:
  Status SetUp(uint64_t seed) override {
    KernelSource src = MakeBaseSource();
    AddSched(&src);
    OpProfile profile;
    profile.name = "live_probe";
    profile.loop_iters = 96;
    profile.coalescible_reads = 2;
    profile.chased_reads = 1;
    profile.writes = 1;
    profile.alu = 2;
    profile.calls = 1;
    profile.leaf_depth = 3;
    EmitKernelOp(&src, profile);
    ProtectionConfig config = ProtectionConfig::Full(false, RaScheme::kEncrypt, seed | 1);
    for (const std::string& name : SchedExemptFunctions()) config.exempt_functions.insert(name);
    BuildOptions options{config, LayoutKind::kKrx};
    options.verify = BuildOptions::Verify::kOn;
    auto kernel = CompileKernel(std::move(src), options);
    if (!kernel.ok()) return kernel.status();
    kernel_ = std::make_unique<CompiledKernel>(std::move(*kernel));
    KRX_RETURN_IF_ERROR(SetUpTaskStacks(*kernel_->image));

    RerandOptions ropts;
    ropts.seed = seed ^ 0x11FE;
    ropts.verify_after = true;
    engine_ = std::make_unique<RerandEngine>(kernel_.get(), ropts);
    engine_->set_stack_range_provider(SchedLiveStackRanges);
    cpu_ = std::make_unique<Cpu>(kernel_->image.get());
    if (!cpu_->init_error().empty()) return InternalError(cpu_->init_error());
    auto buf = SetUpOpBuffer(*kernel_->image, seed);
    if (!buf.ok()) return buf.status();
    buffer_ = *buf;
    engine_->RegisterCpu(cpu_.get());
    // Suspend both workers mid-call-chain.
    if (cpu_->CallFunction("sys_spawn", {0}).rax != 1 ||
        cpu_->CallFunction("sys_spawn", {1}).rax != 2 ||
        cpu_->CallFunction("sched_run", {16}).reason != StopReason::kReturned) {
      return InternalError("could not suspend the scheduler's worker tasks");
    }
    RunOptions reference;
    reference.engine = ExecEngine::kSingleStep;
    reference_ = cpu_->CallFunction(kOpSymbol, {buffer_}, reference);
    if (reference_.reason != StopReason::kReturned) {
      return InternalError(std::string("reference call: ") + StopReasonName(reference_.reason));
    }
    return Status::Ok();
  }

  PhaseResult Run(double seconds) override {
    PhaseResult out;
    out.ops_per_cycle = kCallsPerEpoch;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> calls{0};
    std::vector<EpochReport> epochs;
    std::vector<std::string> epoch_errors;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    {
      std::thread client([this, start, deadline, &calls, &out] {
        PinThisThread(0);
        ClientLoop(start, deadline, &calls, &out);
      });
      std::thread epoch_thread([this, &stop, &calls, &epochs, &epoch_errors] {
        PinThisThread(1);
        // Epochs fire as calls kCallsPerEpoch, 2 * kCallsPerEpoch, ...
        // complete; the client keeps calling, so each epoch quiesces it.
        for (uint64_t next = kCallsPerEpoch;; next += kCallsPerEpoch) {
          for (uint64_t seen = calls.load(); seen < next && !stop.load(); seen = calls.load()) {
            calls.wait(seen);
          }
          if (stop.load()) break;
          Result<EpochReport> report = [&] {
            SpanScope span("rerand.epoch");
            return engine_->RunEpoch(RerandTrigger::kManual);
          }();
          if (!report.ok()) {
            epoch_errors.push_back(report.status().message());
          } else {
            epochs.push_back(*report);
          }
        }
      });
      client.join();
      stop.store(true);
      calls.fetch_add(1);
      calls.notify_one();
      epoch_thread.join();
    }
    out.wall_s = MsBetween(start, Clock::now()) / 1000.0;
    // A failed or unverified epoch is a failed op of the epoch thread.
    for (const std::string& e : epoch_errors) {
      ++out.attempted;
      out.Fail("epoch: " + e);
    }
    std::vector<double> stw;
    for (const EpochReport& e : epochs) {
      ++out.attempted;
      if (!e.verified) out.Fail("epoch " + std::to_string(e.epoch) + " was not verified");
      stw.push_back(e.stw_ms);
      TraceSample("rerand.quiesce_wait_ms", e.quiesce_wait_ms);
      TraceSample("rerand.functions_moved", static_cast<double>(e.functions_moved));
      TraceSample("rerand.stack_words_rewritten", static_cast<double>(e.stack_words_rewritten));
    }
    out.extras.push_back({"epochs", static_cast<double>(epochs.size()), "count",
                          "one per " + std::to_string(kCallsPerEpoch) + " calls"});
    out.extras.push_back({"epoch_stw_ms_p50", Median(stw), "ms",
                          "EpochReport::stw_ms, n=" + std::to_string(stw.size())});
    out.extras.push_back({"epoch_stw_ms_p99", Percentile(stw, 0.99), "ms",
                          "EpochReport::stw_ms, n=" + std::to_string(stw.size())});
    const uint64_t ops = out.guest_ops;
    out.extras.push_back({"sim_cycles_per_op",
                          ops == 0 ? 0 : static_cast<double>(out.guest_deci_cycles) / 10.0 / ops,
                          "cycles", "simulated cycles per guest call"});
    return out;
  }

 private:
  // Calls the op until `deadline`, counting every call in `calls` and waking
  // the epoch thread at each multiple of kCallsPerEpoch.
  void ClientLoop(Clock::time_point start, Clock::time_point deadline,
                  std::atomic<uint64_t>* calls, PhaseResult* out) {
    out->ops.reserve(1 << 20);
    uint64_t seen_epochs = engine_->epochs_completed();
    for (Clock::time_point now = Clock::now(); now < deadline;) {
      const uint64_t epochs = engine_->epochs_completed();
      const Clock::time_point t0 = Clock::now();
      RunResult r;
      {
        SpanScope span("cpu.call");
        r = cpu_->CallFunction(kOpSymbol, {buffer_});
      }
      now = Clock::now();
      if ((calls->fetch_add(1) + 1) % kCallsPerEpoch == 0) calls->notify_one();
      ++out->attempted;
      if (r.reason != StopReason::kReturned) {
        out->Fail(std::string("call stopped: ") + StopReasonName(r.reason));
        continue;
      }
      if (r.rax != reference_.rax || r.instructions != reference_.instructions ||
          r.deci_cycles != reference_.deci_cycles) {
        out->Fail("call result diverged from the single-step reference");
        continue;
      }
      out->ops.push_back({MsBetween(start, now) / 1000.0, MsBetween(t0, now), MsBetween(t0, now)});
      out->guest_instructions += r.instructions;
      out->guest_deci_cycles += r.deci_cycles;
      ++out->guest_ops;
      if (epochs != seen_epochs) {
        // The first call after an epoch rebuilds this Cpu's decoded state.
        TraceSample("cpu.first_call_after_epoch_us", UsBetween(t0, now));
        seen_epochs = epochs;
      }
    }
  }

  std::unique_ptr<CompiledKernel> kernel_;
  std::unique_ptr<RerandEngine> engine_;
  // After engine_, so the Cpu, which runs under the engine's gate, is
  // destroyed first.
  std::unique_ptr<Cpu> cpu_;
  uint64_t buffer_ = 0;
  RunResult reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeRerandLive() { return std::make_unique<RerandLive>(); }

}  // namespace perfbench
