#include "src/fleet/tenant.h"

#include "src/base/rng.h"
#include "src/workload/corpus.h"
#include "src/workload/harness.h"
#include "src/workload/ipc.h"
#include "src/workload/vfs.h"

namespace krx {

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kLmbench:
      return "lmbench";
    case WorkloadKind::kPhoronix:
      return "phoronix";
    case WorkloadKind::kVfs:
      return "vfs";
    case WorkloadKind::kIpc:
      return "ipc";
  }
  return "?";
}

Result<BuildOptions> TenantSpec::ResolveBuildOptions(uint64_t default_seed) const {
  const uint64_t effective = seed != 0 ? seed : default_seed;
  BuildOptions options;
  if (!ParseConfigName(config_name, effective, &options.config, &options.layout)) {
    return InvalidArgumentError("unknown config name: " + config_name);
  }
  options.seed = effective;
  return options;
}

void FoldRax(uint64_t rax, uint64_t* checksum) {
  *checksum = (*checksum ^ rax) * 0x100000001B3ULL;
}

Result<WorkloadBuffers> SetUpWorkloadBuffers(KernelImage& image, WorkloadKind workload,
                                             uint64_t seed) {
  WorkloadBuffers buffers;
  switch (workload) {
    case WorkloadKind::kLmbench:
    case WorkloadKind::kPhoronix: {
      auto buf = SetUpOpBuffer(image, seed);
      if (!buf.ok()) {
        return buf.status();
      }
      buffers.op_buffer = *buf;
      break;
    }
    case WorkloadKind::kVfs: {
      auto buf = image.AllocDataPages(1);
      if (!buf.ok()) {
        return buf.status();
      }
      buffers.vfs_buf = *buf;
      break;
    }
    case WorkloadKind::kIpc: {
      auto src = image.AllocDataPages(1);
      auto dst = image.AllocDataPages(1);
      if (!src.ok() || !dst.ok()) {
        return InternalError("ipc buffer alloc failed");
      }
      buffers.ipc_src = *src;
      buffers.ipc_dst = *dst;
      Rng rng(seed ^ 5);
      for (int i = 0; i < 64; ++i) {
        KRX_RETURN_IF_ERROR(image.Poke64(*src + 8 * i, rng.Next()));
      }
      break;
    }
  }
  return buffers;
}

void ReleaseWorkloadBuffers(KernelImage& image, const WorkloadBuffers& buffers) {
  const std::pair<uint64_t, uint64_t> pages[] = {
      {buffers.op_buffer, kOpBufferBytes >> kPageShift},
      {buffers.vfs_buf, 1},
      {buffers.ipc_src, 1},
      {buffers.ipc_dst, 1},
  };
  for (const auto& [vaddr, count] : pages) {
    if (vaddr != 0) {
      image.FreeDataPages(vaddr, count);
    }
  }
}

namespace {

// Runs one guest entry and accumulates its work. Non-OK status carries the
// failing symbol and stop reason.
Status Call(Cpu& cpu, const std::string& symbol, const std::vector<uint64_t>& args,
            const RunOptions& run, WorkloadCounters* counters) {
  RunResult r = cpu.CallFunction(symbol, args, run);
  if (r.reason != StopReason::kReturned) {
    return InternalError(symbol + " did not return cleanly: " + StopReasonName(r.reason) +
                         (r.reason == StopReason::kException
                              ? std::string(" (") + ExceptionKindName(r.exception) + ")"
                              : "") +
                         (r.reason == StopReason::kHostError ? " (" + r.host_error + ")" : ""));
  }
  ++counters->calls;
  counters->instructions += r.instructions;
  counters->deci_cycles += r.deci_cycles;
  FoldRax(r.rax, &counters->rax_checksum);
  return Status::Ok();
}

}  // namespace

Status RunWorkloadOnce(Cpu& cpu, const TenantSpec& spec, const WorkloadBuffers& buffers,
                       const RunOptions& run, WorkloadCounters* counters) {
  switch (spec.workload) {
    case WorkloadKind::kLmbench:
      return Call(cpu, spec.op_symbol, {buffers.op_buffer}, run, counters);
    case WorkloadKind::kPhoronix:
      for (const auto& [symbol, weight] : spec.ops) {
        for (int i = 0; i < weight; ++i) {
          KRX_RETURN_IF_ERROR(Call(cpu, symbol, {buffers.op_buffer}, run, counters));
        }
      }
      return Status::Ok();
    case WorkloadKind::kVfs:
      for (const VfsFile& file : DefaultVfsImage()) {
        VfsPathHashes h = HashPath(file.path);
        RunResult open = cpu.CallFunction("vfs_open", {h.h1, h.h2, h.h3}, run);
        if (open.reason != StopReason::kReturned || static_cast<int64_t>(open.rax) < 0) {
          return InternalError("vfs_open failed for " + file.path);
        }
        ++counters->calls;
        counters->instructions += open.instructions;
        counters->deci_cycles += open.deci_cycles;
        FoldRax(open.rax, &counters->rax_checksum);
        const uint64_t fd = open.rax;
        KRX_RETURN_IF_ERROR(Call(cpu, "vfs_read", {fd, buffers.vfs_buf, 8}, run, counters));
        KRX_RETURN_IF_ERROR(Call(cpu, "vfs_fstat", {fd, buffers.vfs_buf}, run, counters));
        KRX_RETURN_IF_ERROR(Call(cpu, "vfs_close", {fd}, run, counters));
      }
      return Status::Ok();
    case WorkloadKind::kIpc:
      KRX_RETURN_IF_ERROR(Call(cpu, "pipe_write", {buffers.ipc_src, 64}, run, counters));
      KRX_RETURN_IF_ERROR(Call(cpu, "pipe_read", {buffers.ipc_dst, 64}, run, counters));
      KRX_RETURN_IF_ERROR(Call(cpu, "sock_send", {buffers.ipc_src, 16}, run, counters));
      KRX_RETURN_IF_ERROR(Call(cpu, "sock_recv", {buffers.ipc_dst}, run, counters));
      return Status::Ok();
  }
  return InternalError("unknown workload kind");
}

}  // namespace krx
