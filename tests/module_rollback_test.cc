// Transactional module loading: a failure interposed before every load step
// must roll the image back completely (address space, page tables, symbol
// namespace, physmap synonyms — re-proven by the src/verify checker), and
// unloading must destroy the module's text and key material.
#include <gtest/gtest.h>

#include "src/cpu/cpu.h"
#include "src/ir/builder.h"
#include "src/kernel/assembler.h"
#include "src/plugin/pipeline.h"
#include "src/verify/verifier.h"
#include "src/workload/corpus.h"

namespace krx {
namespace {

struct Env {
  CompiledKernel kernel;
  std::unique_ptr<ModuleLoader> loader;
  std::unique_ptr<Cpu> cpu;
  uint64_t buf = 0;
};

Env MakeEnv(uint64_t seed) {
  auto kernel = CompileKernel(MakeBaseSource(), {ProtectionConfig::Full(false, RaScheme::kEncrypt, seed), LayoutKind::kKrx});
  KRX_CHECK(kernel.ok());
  Env env{std::move(*kernel), nullptr, nullptr, 0};
  env.loader = std::make_unique<ModuleLoader>(env.kernel.image.get());
  env.cpu = std::make_unique<Cpu>(env.kernel.image.get());
  auto buf = env.kernel.image->AllocDataPages(1);
  KRX_CHECK(buf.ok());
  env.buf = *buf;
  KRX_CHECK(env.kernel.image->Poke64(env.buf, 100).ok());
  return env;
}

// A module with a function AND a data object, so every load step executes
// (alloc-data / place-data are skipped for data-less modules).
Result<ModuleObject> MakeProbeModule(Env& env, const std::string& name) {
  SymbolTable& symbols = env.kernel.image->symbols();
  FunctionBuilder b(name + "_fn");
  b.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 0)));
  b.Emit(Instruction::AddRI(Reg::kRax, 7));
  b.Emit(Instruction::Ret());
  std::vector<Function> fns;
  fns.push_back(b.Build());
  symbols.Intern(name + "_fn");
  DataObject state;
  state.name = name + "_state";
  state.kind = SectionKind::kData;
  state.bytes.assign(32, 0xa5);
  std::vector<DataObject> data;
  data.push_back(std::move(state));
  return CompileModule(name, std::move(fns), std::move(data), symbols, env.kernel.config);
}

class FailpointSweep : public ::testing::TestWithParam<int> {};

TEST_P(FailpointSweep, LoadFailureRollsBackCompletely) {
  const ModuleLoadStep step = static_cast<ModuleLoadStep>(GetParam());
  Env env = MakeEnv(5);
  KernelImage& image = *env.kernel.image;
  auto mod = MakeProbeModule(env, "roll");
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  ASSERT_GT(mod->xkey_bytes, 0u);  // encrypted config: replenish step runs

  const size_t pages_before = image.page_table().MappedPageCount();
  const auto cursors_before = image.module_cursors();
  const size_t sections_before = image.sections().size();

  env.loader->set_failpoint(step);
  auto failed = env.loader->Load(*mod);
  env.loader->clear_failpoint();
  ASSERT_FALSE(failed.ok()) << "failpoint before " << ModuleLoadStepName(step)
                            << " did not fail the load";
  EXPECT_NE(failed.status().message().find(ModuleLoadStepName(step)), std::string::npos);

  // Total rollback: address space, page tables, sections, symbols.
  EXPECT_EQ(image.page_table().MappedPageCount(), pages_before);
  EXPECT_EQ(image.module_cursors().text, cursors_before.text);
  EXPECT_EQ(image.module_cursors().data, cursors_before.data);
  EXPECT_EQ(image.sections().size(), sections_before);
  EXPECT_EQ(env.loader->module_count(), 0u);
  EXPECT_FALSE(image.symbols().AddressOf("roll_fn").ok());
  EXPECT_FALSE(image.symbols().AddressOf("roll_state").ok());
  EXPECT_TRUE(image.page_table().FindWxViolations().empty());

  // The rolled-back image still proves the full protection contract.
  VerifyReport report = VerifyImage(image, VerifyOptions::ForConfig(env.kernel.config));
  EXPECT_TRUE(report.ok()) << report.Summary(8);

  // The failure was transient: the same module now loads and runs.
  auto handle = env.loader->Load(*mod);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  RunResult r = env.cpu->CallFunction("roll_fn", {env.buf});
  EXPECT_EQ(r.reason, StopReason::kReturned);
  EXPECT_EQ(r.rax, 107u);
  EXPECT_TRUE(env.loader->Unload(*handle).ok());
}

INSTANTIATE_TEST_SUITE_P(Steps, FailpointSweep,
                         ::testing::Range(0, static_cast<int>(ModuleLoadStep::kNumSteps)));

TEST(ModuleUnload, ZapsTextAndZeroesXkeys) {
  Env env = MakeEnv(9);
  KernelImage& image = *env.kernel.image;
  auto mod = MakeProbeModule(env, "zap");
  ASSERT_TRUE(mod.ok());
  auto handle = env.loader->Load(*mod);
  ASSERT_TRUE(handle.ok());
  const LoadedModule lm = env.loader->module(*handle);  // copy before unload
  ASSERT_GT(lm.xkey_bytes, 0u);

  auto key_addr = image.symbols().AddressOf("xkey$zap_fn");
  ASSERT_TRUE(key_addr.ok());
  auto key = image.Peek64(*key_addr);
  ASSERT_TRUE(key.ok());
  EXPECT_NE(*key, 0u);

  ASSERT_TRUE(env.loader->Unload(*handle).ok());

  // The text vaddr is gone from the code region...
  EXPECT_FALSE(image.Peek64(lm.text_vaddr).ok());
  EXPECT_FALSE(image.symbols().AddressOf("zap_fn").ok());
  // ...and the frames themselves hold no code: the body is filled with the
  // tripwire pad byte and the xkey tail is zeroed outright.
  const uint64_t base = lm.text_first_frame << kPageShift;
  const uint64_t xkeys_start = lm.text_size - lm.xkey_bytes;
  for (uint64_t off = 0; off < xkeys_start; ++off) {
    ASSERT_EQ(image.phys().Read8(base + off), kTextPadByte) << "offset " << off;
  }
  for (uint64_t off = xkeys_start; off < lm.text_size; ++off) {
    ASSERT_EQ(image.phys().Read8(base + off), 0) << "xkey offset " << off;
  }

  // Physmap synonyms of the reclaimed text frames are readable again.
  for (uint64_t p = 0; p < lm.text_pages; ++p) {
    const std::optional<Pte> pte = image.page_table().Lookup(image.PhysmapVaddr(lm.text_first_frame + p));
    ASSERT_TRUE(pte.has_value());
    EXPECT_TRUE(pte->flags.present);
  }
}

// A load that fails after its text was placed and keyed (just before the
// physmap synonyms go) leaves the text frames as Unload does: body zapped
// with the pad byte, xkey tail zeroed. Two identical images place the
// module in the same frames; one load fails, the other loads and unloads.
TEST(ModuleRollback, FailedLoadLeavesTheTextAsUnloadDoes) {
  Env failed = MakeEnv(17);
  Env unloaded = MakeEnv(17);
  auto failed_mod = MakeProbeModule(failed, "twin");
  auto unloaded_mod = MakeProbeModule(unloaded, "twin");
  ASSERT_TRUE(failed_mod.ok() && unloaded_mod.ok());

  failed.loader->set_failpoint(ModuleLoadStep::kUnmapSynonyms);
  ASSERT_FALSE(failed.loader->Load(*failed_mod).ok());
  auto handle = unloaded.loader->Load(*unloaded_mod);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const LoadedModule lm = unloaded.loader->module(*handle);  // copy before unload
  ASSERT_GT(lm.xkey_bytes, 0u);
  ASSERT_TRUE(unloaded.loader->Unload(*handle).ok());

  const uint64_t base = lm.text_first_frame << kPageShift;
  const uint64_t xkeys_start = lm.text_size - lm.xkey_bytes;
  for (uint64_t off = 0; off < (lm.text_pages << kPageShift); ++off) {
    const uint8_t want = off >= xkeys_start && off < lm.text_size ? 0 : kTextPadByte;
    ASSERT_EQ(unloaded.kernel.image->phys().Read8(base + off), want) << "unload, offset " << off;
    ASSERT_EQ(failed.kernel.image->phys().Read8(base + off), want) << "failed load, offset "
                                                                    << off;
  }
}

TEST(ModuleReload, FailThenLoadThenUnloadLeavesNoResidue) {
  Env env = MakeEnv(13);
  KernelImage& image = *env.kernel.image;
  const size_t pages_start = image.page_table().MappedPageCount();
  const size_t sections_start = image.sections().size();

  // Several generations of fail → load → run → unload; invariants must hold
  // at every boundary.
  for (int gen = 0; gen < 3; ++gen) {
    const std::string name = "gen" + std::to_string(gen);
    auto mod = MakeProbeModule(env, name);
    ASSERT_TRUE(mod.ok());
    env.loader->set_failpoint(static_cast<ModuleLoadStep>(
        gen % static_cast<int>(ModuleLoadStep::kNumSteps)));
    ASSERT_FALSE(env.loader->Load(*mod).ok());
    env.loader->clear_failpoint();
    auto handle = env.loader->Load(*mod);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    RunResult r = env.cpu->CallFunction(name + "_fn", {env.buf});
    ASSERT_EQ(r.reason, StopReason::kReturned);
    EXPECT_EQ(r.rax, 107u);
    ASSERT_TRUE(env.loader->Unload(*handle).ok());
    EXPECT_EQ(image.sections().size(), sections_start);
    VerifyReport report = VerifyImage(image, VerifyOptions::ForConfig(env.kernel.config));
    ASSERT_TRUE(report.ok()) << "generation " << gen << ":\n" << report.Summary(8);
  }
  // Unload does not reclaim module address space (bump cursors), but it must
  // return every mapped page.
  EXPECT_EQ(image.page_table().MappedPageCount(), pages_start);
}

}  // namespace
}  // namespace krx
