// krx-objdump: build the bench corpus kernel under a chosen protection
// config and inspect it — sections, symbols, per-function disassembly and a
// gadget census. The reproduction's answer to `objdump -d vmlinux`.
//
// Usage:
//   krx_objdump [--per-function] [config] [function ...]
//     config: vanilla | sfi-o0..sfi-o4 | mpx | mpx-o4 | d | x | sfi+d |
//             sfi+x | mpx+d | mpx+x  (default: sfi+x)
//     function: names to disassemble (default: a small showcase set)
//     --per-function: print the per-function check census — pass side
//     (emitted/elided/hoisted) next to the verifier's independent count of
//     reads it proved justified there
//   krx_objdump --rerand [config]
//     dump the retained re-randomization metadata (RerandMap) instead:
//     function extents and return sites, xkey slots, pointer sites — then
//     run one live epoch and show the before/after layout.
//   krx_objdump --stats [config]
//     compile under the config and print the metrics-registry snapshot of
//     the build (compile.* counters and per-phase timings) as JSON, then
//     run the lmbench op set through the superblock engine and print the
//     per-function chain/fastpath table (which functions root chains, how
//     much of their retirement takes the specialized handlers).
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/attack/gadget_scanner.h"
#include "src/cpu/cpu.h"
#include "src/cpu/superblock/sb_report.h"
#include "src/isa/encoding.h"
#include "src/rerand/engine.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/verify/verifier.h"
#include "src/workload/corpus.h"
#include "src/workload/harness.h"
#include "src/workload/lmbench.h"

namespace krx {
namespace {

void Disassemble(const KernelImage& image, const Symbol& sym) {
  std::printf("\n%016" PRIx64 " <%s>:  (%" PRIu64 " bytes)\n", sym.address, sym.name.c_str(),
              sym.size);
  std::vector<uint8_t> bytes(sym.size);
  if (!image.PeekBytes(sym.address, bytes.data(), bytes.size()).ok()) {
    std::printf("  <unreadable>\n");
    return;
  }
  size_t pos = 0;
  while (pos < bytes.size()) {
    auto dec = DecodeInstruction(bytes.data(), bytes.size(), pos);
    if (!dec.ok()) {
      std::printf("  %016" PRIx64 ":  <undecodable>\n", sym.address + pos);
      break;
    }
    std::printf("  %016" PRIx64 ":  ", sym.address + pos);
    for (int i = 0; i < dec->size; ++i) {
      std::printf("%02x", bytes[pos + static_cast<size_t>(i)]);
    }
    for (int i = dec->size; i < 12; ++i) {
      std::printf("  ");
    }
    // Resolve branch targets into absolute addresses for readability.
    Instruction inst = dec->inst;
    std::string text = FormatInstruction(inst);
    if ((inst.op == Opcode::kJmpRel || inst.op == Opcode::kJcc ||
         inst.op == Opcode::kCallRel)) {
      char resolved[64];
      std::snprintf(resolved, sizeof(resolved), "  # -> 0x%" PRIx64,
                    sym.address + pos + dec->size + static_cast<uint64_t>(inst.imm));
      text += resolved;
    }
    std::printf("  %s\n", text.c_str());
    pos += dec->size;
  }
}

// --rerand: dump the RerandMap the pipeline retains for live epochs, then
// run one epoch and show the relocated layout.
int DumpRerand(const std::string& config_name) {
  ProtectionConfig config;
  LayoutKind layout;
  if (!ParseConfigName(config_name, 0xD15A, &config, &layout)) {
    std::fprintf(stderr, "unknown config '%s'\n", config_name.c_str());
    return 2;
  }
  auto kernel = CompileKernel(MakeBenchSource(0xD15A), {config, layout});
  if (!kernel.ok()) {
    std::fprintf(stderr, "build failed: %s\n", kernel.status().ToString().c_str());
    return 1;
  }
  RerandEngine engine(&*kernel);
  const RerandMap& map = engine.map();
  std::printf("RerandMap, config=%s\n", config_name.c_str());
  std::printf(".text base 0x%016" PRIx64 ", content %" PRIu64 " bytes, mapped %" PRIu64
              " bytes (%.1f%% slack)\n\n",
              map.text_base, map.text_content_size, map.text_mapped_size,
              100.0 * static_cast<double>(map.text_mapped_size - map.text_content_size) /
                  static_cast<double>(map.text_mapped_size));

  std::vector<uint64_t> boot_offsets;
  for (const RerandFunction& fn : map.functions) {
    boot_offsets.push_back(fn.current_offset);
  }
  auto epoch = engine.RunEpoch();
  if (!epoch.ok()) {
    std::fprintf(stderr, "epoch failed: %s\n", epoch.status().ToString().c_str());
    return 1;
  }

  std::printf("%-28s %10s %10s %10s %6s %8s\n", "function", "pristine", "boot", "epoch1",
              "size", "retsites");
  for (size_t i = 0; i < map.functions.size(); ++i) {
    const RerandFunction& fn = map.functions[i];
    std::printf("%-28s 0x%08" PRIx64 " 0x%08" PRIx64 " 0x%08" PRIx64 " %6" PRIu64 " %8zu\n",
                fn.name.c_str(), fn.pristine_offset, boot_offsets[i], fn.current_offset,
                fn.size, fn.return_sites.size());
  }
  std::printf("\nxkey slots: %zu\n", map.xkey_slots.size());
  for (const RerandXkeySlot& slot : map.xkey_slots) {
    std::printf("  0x%016" PRIx64 "  xkey$%s\n", slot.vaddr, slot.fn_name.c_str());
  }
  std::printf("\npointer sites (retained PtrInit relocations in data objects): %zu\n",
              map.ptr_sites.size());
  for (const RerandPtrSite& site : map.ptr_sites) {
    std::printf("  0x%016" PRIx64 "  %s+%" PRIu64 " -> sym#%d+%" PRId64 "\n", site.vaddr,
                site.object.c_str(), site.offset, site.symbol, site.addend);
  }
  std::printf("\nepoch 1: %" PRIu64 " functions moved, front gap %" PRIu64 " bytes, %" PRIu64
              " keys rotated, %" PRIu64 " ptr sites patched, stw %.2f ms, verified=%s\n",
              epoch->functions_moved, epoch->front_gap, epoch->keys_rotated,
              epoch->ptr_sites_patched, epoch->stw_ms, epoch->verified ? "yes" : "no");
  return 0;
}

// --stats: one compile under the config, observed through the metrics
// registry — the pipeline's own counters and phase timings, as JSON.
int DumpStats(const std::string& config_name) {
  ProtectionConfig config;
  LayoutKind layout;
  if (!ParseConfigName(config_name, 0xD15A, &config, &layout)) {
    std::fprintf(stderr, "unknown config '%s'\n", config_name.c_str());
    return 2;
  }
  telemetry::MetricsRegistry::Global().Reset();
  telemetry::SetMode(telemetry::Mode() | telemetry::kModeMetrics);
  const BuildOptions options{config, layout};
  auto kernel = CompileKernel(MakeBenchSource(0xD15A), options);
  if (!kernel.ok()) {
    std::fprintf(stderr, "build failed: %s\n", kernel.status().ToString().c_str());
    return 1;
  }
  // The build's identity: the options with the seed override folded in,
  // exactly what the kernel cache keys on.
  const BuildOptions resolved = options.Resolved();
  const ProtectionConfig& c = resolved.config;
  std::string exempt;
  for (const std::string& fn : c.exempt_functions) {
    exempt += fn + ',';
  }
  std::printf("options: sfi=%d mpx=%d spec=%d diversify=%d coarse_kaslr=%d ra=%d regrand=%d "
              "k=%d seed=0x%" PRIx64 " layout=%d verify=%d exempt=%s\n",
              static_cast<int>(c.sfi), c.mpx, static_cast<int>(c.spec), c.diversify,
              c.coarse_kaslr, static_cast<int>(c.ra), c.randomize_registers, c.entropy_bits_k,
              c.seed, static_cast<int>(resolved.layout), static_cast<int>(resolved.verify),
              exempt.c_str());
  std::printf("%s\n", telemetry::MetricsRegistry::Global().SnapshotJson().c_str());

  // Runtime view: the lmbench op set through the translate-and-chain
  // engine, attributed by symbol extent — the build stats above say what
  // was instrumented, this table says what actually chains when it runs.
  KernelImage& image = *kernel->image;
  auto buf = SetUpOpBuffer(image, 0xD15A);
  if (!buf.ok()) {
    std::fprintf(stderr, "op buffer setup failed: %s\n", buf.status().ToString().c_str());
    return 1;
  }
  Cpu cpu(&image, CostModel(), CpuOptions{});
  RunOptions run;
  run.engine = ExecEngine::kSuperblock;
  for (const LmbenchRow& row : LmbenchRows()) {
    for (int rep = 0; rep < 4; ++rep) {
      (void)cpu.CallFunction("sys_" + row.profile.name, {*buf}, run);
    }
  }
  const SuperblockStats& ss = cpu.superblock_cache().stats();
  std::printf("\nSuperblock engine (lmbench op set): %" PRIu64 " chains (%" PRIu64
              " blocks), %" PRIu64 " dispatches, %" PRIu64
              " chain breaks, fastpath %.1f%%, inline-TLB hit %.1f%%\n",
              ss.chains_built, ss.blocks_chained, ss.entries, ss.chain_breaks,
              100.0 * ss.fastpath_share(), 100.0 * ss.tlb_hit_rate());
  std::printf("\n%-28s %7s %9s %10s %10s %6s\n", "function", "chains", "entered", "insts",
              "fastpath", "fast%");
  for (const SbFunctionUsage& fn :
       AggregateSuperblocksBySymbol(cpu.superblock_cache(), image.symbols())) {
    std::printf("%-28s %7" PRIu64 " %9" PRIu64 " %10" PRIu64 " %10" PRIu64 " %5.1f%%\n",
                fn.name.c_str(), fn.chains, fn.entered, fn.insts, fn.fast,
                100.0 * fn.fast_share());
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--rerand") == 0) {
    return DumpRerand(argc > 2 ? argv[2] : "sfi+x");
  }
  if (argc > 1 && std::strcmp(argv[1], "--stats") == 0) {
    return DumpStats(argc > 2 ? argv[2] : "sfi+x");
  }
  int argi = 1;
  bool per_function = false;
  if (argi < argc && std::strcmp(argv[argi], "--per-function") == 0) {
    per_function = true;
    ++argi;
  }
  std::string config_name = argi < argc ? argv[argi++] : "sfi+x";
  ProtectionConfig config;
  LayoutKind layout;
  if (!ParseConfigName(config_name, 0xD15A, &config, &layout)) {
    std::fprintf(stderr,
                 "unknown config '%s'\nusage: krx_objdump [--per-function] [%s] [function...]\n",
                 config_name.c_str(), kConfigNamesUsage);
    return 2;
  }

  auto kernel = CompileKernel(MakeBenchSource(0xD15A), {config, layout});
  if (!kernel.ok()) {
    std::fprintf(stderr, "build failed: %s\n", kernel.status().ToString().c_str());
    return 1;
  }
  const KernelImage& image = *kernel->image;

  std::printf("kR^X kernel image, config=%s, layout=%s\n\n", config_name.c_str(),
              layout == LayoutKind::kKrx ? "kR^X-KAS" : "vanilla");
  std::printf("Sections:\n%-16s %-18s %10s  %s\n", "name", "vaddr", "size", "region");
  for (const PlacedSection& s : image.sections()) {
    std::printf("%-16s 0x%016" PRIx64 " %10" PRIu64 "  %s\n", s.name.c_str(), s.vaddr, s.size,
                layout == LayoutKind::kKrx
                    ? (s.vaddr >= image.krx_edata() ? "code (execute-only)" : "data")
                    : "-");
  }
  if (layout == LayoutKind::kKrx) {
    std::printf("_krx_edata = 0x%016" PRIx64 "\n", image.krx_edata());
  }

  // Gadget census over .text.
  const PlacedSection* text = image.FindSection(".text");
  if (text == nullptr) {
    std::fprintf(stderr, "no .text section in this image; skipping gadget census\n");
  } else {
    std::vector<uint8_t> bytes(text->size);
    KRX_CHECK(image.PeekBytes(text->vaddr, bytes.data(), bytes.size()).ok());
    GadgetScanner scanner;
    auto rop = scanner.Scan(bytes.data(), bytes.size(), text->vaddr);
    auto jop = scanner.ScanJop(bytes.data(), bytes.size(), text->vaddr);
    std::printf("\nGadget census: %zu ROP, %zu JOP (discoverable only if code is readable)\n",
                rop.size(), jop.size());
  }

  // Instrumentation statistics (pass-side view).
  {
    const SfiStats& s = kernel->stats.sfi;
    std::printf("\nSFI stats: %" PRIu64 " read sites (%" PRIu64 " safe, %" PRIu64
                " rsp-guarded, %" PRIu64 " string), %" PRIu64 " checks emitted, %" PRIu64
                " coalesced (%.1f%%), %" PRIu64 " hoisted, wrappers %" PRIu64 " kept / %" PRIu64
                " elided, lea %" PRIu64 " kept / %" PRIu64 " elided, spec %" PRIu64
                " barriers / %" PRIu64 " masks\n",
                s.read_sites, s.safe_reads, s.rsp_reads, s.string_checks, s.checks_emitted,
                s.checks_coalesced, s.CoalescingRate(), s.checks_hoisted, s.wrappers_kept,
                s.wrappers_eliminated, s.lea_kept, s.lea_eliminated, s.spec_barriers,
                s.spec_masks);
  }

  // Verifier view of the same image (binary-level, pass-independent). On a
  // vanilla build the R^X checks are forced on to show what it fails.
  VerifyReport report;
  {
    VerifyOptions vopts = VerifyOptions::ForConfig(config);
    if (layout == LayoutKind::kVanilla) {
      vopts.check_rx = true;
    }
    report = VerifyImage(image, vopts);
    const VerifyCounters& c = report.counters;
    std::printf("\nVerifier: %" PRIu64 " functions checked (%" PRIu64 " exempt), %" PRIu64
                " reads seen (%" PRIu64 " safe, %" PRIu64 " rsp, %" PRIu64
                " check-justified), %" PRIu64 " range checks, %" PRIu64 " RA sites, %" PRIu64
                " tripwires\n",
                c.functions_checked, c.functions_exempt, c.reads_seen, c.safe_reads, c.rsp_reads,
                c.justified_reads, c.range_checks_seen, c.ra_sites_checked,
                c.tripwires_verified);
    if (report.ok()) {
      std::printf("Verifier verdict: PASS (no rule violations)\n");
    } else {
      std::printf("Verifier verdict: FAIL —");
      for (const auto& [rule, count] : report.RuleCounts()) {
        std::printf(" %s:%" PRIu64, RuleName(rule), count);
      }
      std::printf("\n");
    }
  }

  // Per-function census: the pass's emitted/elided/hoisted counts next to
  // what the verifier independently proved in the same function.
  if (per_function) {
    std::printf("\n%-28s %8s %8s %8s %8s %8s | %8s %10s %8s\n", "function", "emitted", "elided",
                "hoisted", "barrier", "mask", "reads", "justified", "checks");
    for (const auto& [fn, s] : kernel->stats.per_function) {
      std::printf("%-28s %8" PRIu64 " %8" PRIu64 " %8" PRIu64 " %8" PRIu64 " %8" PRIu64,
                  fn.c_str(), s.checks_emitted, s.checks_coalesced, s.checks_hoisted,
                  s.spec_barriers, s.spec_masks);
      const FunctionReadCensus* census = nullptr;
      for (const auto& [vfn, vc] : report.per_function) {
        if (vfn == fn) {
          census = &vc;
          break;
        }
      }
      if (census != nullptr) {
        std::printf(" | %8" PRIu64 " %10" PRIu64 " %8" PRIu64 "\n", census->reads_seen,
                    census->justified_reads, census->range_checks_seen);
      } else {
        std::printf(" | %8s %10s %8s\n", "-", "-", "-");
      }
    }
  }

  // Disassembly.
  std::vector<std::string> wanted;
  for (int i = argi; i < argc; ++i) {
    wanted.push_back(argv[i]);
  }
  if (wanted.empty()) {
    wanted = {"commit_creds", "debugfs_leak_read", "sys_null_syscall"};
  }
  for (const std::string& name : wanted) {
    int32_t idx = image.symbols().Find(name);
    if (idx < 0 || !image.symbols().at(idx).defined) {
      std::printf("\n<%s>: not found\n", name.c_str());
      continue;
    }
    Disassemble(image, image.symbols().at(idx));
  }
  return 0;
}

}  // namespace
}  // namespace krx

int main(int argc, char** argv) { return krx::Main(argc, argv); }
