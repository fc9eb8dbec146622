#include "src/attack/spectre.h"

#include <string>
#include <vector>

#include "src/cpu/cpu.h"
#include "src/mem/mmu.h"
#include "src/mem/phys_mem.h"

namespace krx {
namespace {

CpuOptions SpecCpuOptions(bool mpx) {
  CpuOptions o;
  o.mpx_enabled = mpx;
  o.spec.enabled = true;
  return o;
}

}  // namespace

SpectreV1Result SpectreV1Attack(CompiledKernel& kernel, size_t secret_bytes) {
  SpectreV1Result res;
  KernelImage& image = *kernel.image;

  auto victim = image.symbols().AddressOf("spec_victim");
  auto arr = image.symbols().AddressOf("spec_array");
  auto target = image.symbols().AddressOf(kCommitCredsName);
  if (!victim.ok() || !arr.ok() || !target.ok()) {
    res.outcome.detail = "corpus lacks the spec_victim gadget";
    return res;
  }

  // Flush+reload stand-in: one page-aligned probe line per byte value.
  const uint64_t probe_bytes = 256u << SideChannelObserver::kLineShift;
  auto probe = image.AllocDataPages(probe_bytes >> kPageShift);
  if (!probe.ok()) {
    res.outcome.detail = "probe buffer allocation failed";
    return res;
  }

  // Ground truth (god-mode, for scoring only): the code bytes the attack
  // tries to exfiltrate across the R^X boundary.
  std::vector<uint8_t> truth(secret_bytes);
  if (!image.PeekBytes(*target, truth.data(), truth.size()).ok()) {
    res.outcome.detail = "ground-truth read failed";
    return res;
  }

  Cpu cpu(&image, CostModel(), SpecCpuOptions(kernel.config.mpx));
  SideChannelObserver observer;
  cpu.set_side_channel_observer(&observer);

  for (size_t i = 0; i < secret_bytes; ++i) {
    // Train the victim's bounds branch (and the instrumentation's check
    // branches) not-taken with in-bounds indices.
    for (uint64_t t = 0; t < 4; ++t) {
      cpu.CallFunction(*victim, {t + 1, *probe});
    }
    observer.Clear();
    // The out-of-bounds index wraps spec_array + idx onto the target code
    // byte; the architectural path rejects it (rax == 0), the wrong path
    // may not.
    const uint64_t idx = (*target + i) - *arr;
    RunResult run = cpu.CallFunction(*victim, {idx, *probe});
    ++res.bytes_attempted;
    if (run.reason != StopReason::kReturned || run.rax != 0) {
      res.outcome.kernel_killed = run.reason != StopReason::kReturned;
      continue;  // the architectural contract itself misbehaved
    }
    // Reconstruct: exactly one probe line touched = one candidate byte.
    int hit = -1;
    bool ambiguous = false;
    for (int v = 0; v < 256; ++v) {
      // The line a wrong-path load of probe entry v lands on.
      const Translation t = cpu.mmu().Walk(
          *probe + (static_cast<uint64_t>(v) << SideChannelObserver::kLineShift), Access::kRead);
      if (t.ok() && observer.LineTouched(t.paddr)) {
        ambiguous = hit >= 0;
        hit = v;
      }
    }
    if (hit >= 0 && !ambiguous && hit == truth[i]) {
      ++res.bytes_leaked;
    }
  }

  const SpecStats& sp = cpu.spec_stats();
  res.windows_opened = sp.windows_opened;
  res.fence_kills = sp.fence_kills;
  res.transient_faults = sp.transient_faults;
  res.outcome.success = res.bytes_leaked > 0;
  res.outcome.leaks = res.bytes_leaked;
  res.outcome.detail =
      "leaked " + std::to_string(res.bytes_leaked) + "/" +
      std::to_string(res.bytes_attempted) + " code bytes transiently (" +
      std::to_string(res.windows_opened) + " windows, " +
      std::to_string(res.fence_kills) + " fence kills, " +
      std::to_string(res.transient_faults) + " transient faults)";
  return res;
}

}  // namespace krx
