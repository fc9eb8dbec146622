// Mixed-code module loading under kR^X-KAS (§5.1.1 "Kernel Modules", §6):
// a kR^X-protected module and an unprotected legacy module coexist in the
// same kernel; text is sliced into modules_text, data into modules_data;
// unloading zaps the text and restores the physmap synonyms.
//
//   $ ./examples/module_loading
#include <cstdio>
#include <inttypes.h>

#include "src/cpu/cpu.h"
#include "src/kernel/ko_file.h"
#include "src/ir/builder.h"
#include "src/plugin/pipeline.h"
#include "src/workload/corpus.h"

using namespace krx;

namespace {

std::vector<Function> MakeModuleFunctions(const std::string& prefix, SymbolTable& symbols) {
  std::vector<Function> fns;
  FunctionBuilder b(prefix + "_ioctl");
  b.Emit(Instruction::SubRI(Reg::kRsp, 8));
  b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 0)));  // checked if protected
  b.Emit(Instruction::CallSym(symbols.Intern("commit_creds_noop")));
  b.Emit(Instruction::AddRI(Reg::kRax, 2));
  b.Emit(Instruction::AddRI(Reg::kRsp, 8));
  b.Emit(Instruction::Ret());
  fns.push_back(b.Build());
  return fns;
}

}  // namespace

int main() {
  KernelSource source = MakeBaseSource();
  {
    FunctionBuilder b("commit_creds_noop");  // an exported kernel API the modules bind to
    b.Emit(Instruction::MovRI(Reg::kRax, 0));
    b.Emit(Instruction::Ret());
    source.functions.push_back(b.Build());
    source.symbols.Intern("commit_creds_noop");
  }
  auto kernel = CompileKernel(std::move(source), {ProtectionConfig::Full(false, RaScheme::kDecoy, 99), LayoutKind::kKrx});
  KRX_CHECK(kernel.ok());
  KernelImage& image = *kernel->image;
  ModuleLoader loader(&image);

  // --- Module A: compiled with the kR^X plugins (protected). ---
  {
    std::vector<Function> fns = MakeModuleFunctions("moda", image.symbols());
    auto mod = CompileModule("moda", std::move(fns), {}, image.symbols(),
                             ProtectionConfig::Full(false, RaScheme::kDecoy, 7));
    KRX_CHECK(mod.ok());
    auto handle = loader.Load(*mod);
    KRX_CHECK(handle.ok());
    const LoadedModule& lm = loader.module(*handle);
    std::printf("moda (kR^X-protected) loaded:\n");
    std::printf("  .text  -> modules_text 0x%016" PRIx64 " (%" PRIu64 " bytes)\n", lm.text_vaddr,
                lm.text_size);
    std::printf("  .data  -> modules_data 0x%016" PRIx64 "\n", lm.data_vaddr);
    std::printf("  physmap synonym of its text unmapped: %s\n\n",
                !image.page_table().Lookup(image.PhysmapVaddr(lm.text_first_frame))
                    ? "yes"
                    : "no");
  }

  // --- Module B: legacy, compiled without instrumentation (mixed code),
  // and shipped through the on-disk .ko path: the image is one conventional
  // blob; the kR^X-aware loader does the text/data slicing at load time
  // (§5.1.1). ---
  int32_t modb_handle;
  {
    SymbolTable vendor;  // built on a machine that has never seen this kernel
    std::vector<Function> fns = MakeModuleFunctions("modb", vendor);
    auto mod = CompileModule("modb", std::move(fns), {}, vendor, ProtectionConfig::Vanilla());
    KRX_CHECK(mod.ok());
    auto ko = SerializeModule(*mod, vendor);
    KRX_CHECK(ko.ok());
    std::printf("modb.ko built: %zu bytes on disk (conventional layout, unsliced)\n", ko->size());
    auto parsed = ParseModule(*ko, image.symbols());
    KRX_CHECK(parsed.ok());
    auto handle = loader.Load(*parsed);
    KRX_CHECK(handle.ok());
    modb_handle = *handle;
    std::printf("modb (unprotected legacy module) loaded alongside — mixed code works.\n\n");
  }

  // Call into both modules.
  Cpu cpu(&image);
  auto buf = image.AllocDataPages(1);
  KRX_CHECK(buf.ok());
  KRX_CHECK(image.Poke64(*buf, 40).ok());
  for (const char* entry : {"moda_ioctl", "modb_ioctl"}) {
    RunResult r = cpu.CallFunction(entry, {*buf});
    std::printf("%s(&40) -> %" PRIu64 " (%s)\n", entry, r.rax,
                r.reason == StopReason::kReturned ? "clean return" : "fault");
  }

  // Unload modb: text zapped, synonym restored, symbols dropped.
  const LoadedModule& lm = loader.module(modb_handle);
  uint64_t frame = lm.text_first_frame;
  KRX_CHECK(loader.Unload(modb_handle).ok());
  auto first_byte = image.phys().Read8(frame << kPageShift);
  std::printf("\nmodb unloaded: text zapped (first byte now int3: %s), synonym restored: %s, "
              "symbol gone: %s\n",
              first_byte == 2 ? "yes" : "no",
              image.page_table().Lookup(image.PhysmapVaddr(frame)) ? "yes" : "no",
              image.symbols().AddressOf("modb_ioctl").ok() ? "no" : "yes");
  return 0;
}
