// XnR and HideM baseline defenses (§2): both hide code from direct reads,
// both fall to indirect JIT-ROP — unlike kR^X.
#include <gtest/gtest.h>

#include "src/attack/experiments.h"
#include "src/attack/gadget_scanner.h"
#include "src/kernel/baseline_defenses.h"
#include "src/workload/corpus.h"
#include "src/workload/harness.h"

namespace krx {
namespace {

CompiledKernel BuildPlain(const KernelSource& src) {
  // The baselines run on an undiversified, uninstrumented kernel (they are
  // page-table tricks, not compiler transformations).
  auto kernel = CompileKernel(src, {ProtectionConfig::Vanilla(), LayoutKind::kVanilla});
  KRX_CHECK(kernel.ok());
  return std::move(*kernel);
}

class BaselineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { src_ = new KernelSource(MakeBenchSource(0xBA5E)); }
  static KernelSource* src_;
};
KernelSource* BaselineTest::src_ = nullptr;

// ---- XnR ----

TEST_F(BaselineTest, XnrExecutionStillWorks) {
  CompiledKernel kernel = BuildPlain(*src_);
  XnrState* xnr = EnableXnr(*kernel.image, /*window_size=*/4);
  Cpu cpu(kernel.image.get());
  RunResult r = cpu.CallFunction("sys_deep_call", {0});
  EXPECT_EQ(r.reason, StopReason::kReturned);
  EXPECT_GT(xnr->fetch_faults(), 0u);  // pages were faulted in on demand
  EXPECT_LE(xnr->resident_pages(), 4u);
}

TEST_F(BaselineTest, XnrWindowEvictsOldestPage) {
  CompiledKernel kernel = BuildPlain(*src_);
  XnrState* xnr = EnableXnr(*kernel.image, /*window_size=*/1);
  Cpu cpu(kernel.image.get());
  // Alternate between two syscalls that live on different text pages: with
  // a single-page window every switch re-faults.
  auto a = kernel.image->symbols().AddressOf("sys_deep_call");
  auto b = kernel.image->symbols().AddressOf("sys_file_io_bw");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_NE(PageFloor(*a), PageFloor(*b));
  auto buf = SetUpOpBuffer(*kernel.image, 1);
  ASSERT_TRUE(buf.ok());
  uint64_t before = xnr->fetch_faults();
  std::vector<uint64_t> zero = {0};
  std::vector<uint64_t> barg = {*buf};
  EXPECT_EQ(cpu.CallFunction(*a, zero).reason, StopReason::kReturned);
  EXPECT_EQ(cpu.CallFunction(*b, barg).reason, StopReason::kReturned);
  EXPECT_EQ(cpu.CallFunction(*a, zero).reason, StopReason::kReturned);
  EXPECT_GE(xnr->fetch_faults() - before, 3u);
  EXPECT_LE(xnr->resident_pages(), 1u);
}

TEST_F(BaselineTest, XnrStopsDirectCodeRead) {
  CompiledKernel kernel = BuildPlain(*src_);
  EnableXnr(*kernel.image, 4);
  ExploitLab lab(&kernel);
  DisclosureOracle oracle(&lab.cpu());
  // A far-away text page is not resident: the data access is detected.
  const PlacedSection* text = kernel.image->FindSection(".text");
  auto leak = oracle.Leak(text->vaddr + text->size - 16);
  EXPECT_FALSE(leak.ok());
  EXPECT_TRUE(oracle.kernel_killed());
}

TEST_F(BaselineTest, XnrWindowPagesRemainReadable) {
  // The inherent XnR window weakness: pages that are resident (present)
  // are readable, because x86 cannot express execute-only.
  CompiledKernel kernel = BuildPlain(*src_);
  EnableXnr(*kernel.image, 8);
  ExploitLab lab(&kernel);
  DisclosureOracle oracle(&lab.cpu());
  // The leak routine's own page is necessarily resident while it runs.
  auto leak_addr = kernel.image->symbols().AddressOf(kLeakSymbolName);
  ASSERT_TRUE(leak_addr.ok());
  lab.cpu().CallFunction(*leak_addr, {lab.cpu().stack_base()});  // warm the window
  auto v = oracle.Leak(PageFloor(*leak_addr));
  EXPECT_TRUE(v.ok()) << v.status().ToString();
}

TEST_F(BaselineTest, XnrFallsToIndirectJitRop) {
  // Davi et al. / Conti et al.: code-pointer harvesting needs no code read.
  CompiledKernel kernel = BuildPlain(*src_);
  EnableXnr(*kernel.image, 4);
  ExploitLab lab(&kernel);
  IndirectJitRopResult r = IndirectJitRopAttack(lab, 2, 64, 11);
  EXPECT_DOUBLE_EQ(r.success_rate, 1.0) << r.outcome.detail;
}

// ---- HideM ----

TEST_F(BaselineTest, HidemExecutionUnchanged) {
  CompiledKernel kernel = BuildPlain(*src_);
  auto split = EnableHidem(*kernel.image, 0x00);
  ASSERT_TRUE(split.ok());
  EXPECT_GT(*split, 0u);
  Cpu cpu(kernel.image.get());
  RunResult r = cpu.CallFunction("sys_deep_call", {0});
  EXPECT_EQ(r.reason, StopReason::kReturned);
}

TEST_F(BaselineTest, HidemDataViewShowsPoison) {
  CompiledKernel kernel = BuildPlain(*src_);
  ASSERT_TRUE(EnableHidem(*kernel.image, 0x00).ok());
  ExploitLab lab(&kernel);
  DisclosureOracle oracle(&lab.cpu());
  const PlacedSection* text = kernel.image->FindSection(".text");
  // Reads of code "succeed" but return only the poison pattern.
  auto v = oracle.Leak(text->vaddr + 64);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0u);
  EXPECT_FALSE(oracle.kernel_killed());
}

TEST_F(BaselineTest, HidemFoilsDirectJitRop) {
  CompiledKernel kernel = BuildPlain(*src_);
  ASSERT_TRUE(EnableHidem(*kernel.image, 0x00).ok());
  ExploitLab lab(&kernel);
  AttackOutcome out = DirectJitRopAttack(lab);
  // The harvest reads poison: no gadgets, no escalation — but the kernel
  // also never notices (silent failure, unlike kR^X's halt).
  EXPECT_FALSE(out.success);
  EXPECT_FALSE(out.kernel_killed);
}

// ---- Heisenbyte (destructive code reads, §8) ----

TEST_F(BaselineTest, HeisenbyteDestroysWhatItDiscloses) {
  CompiledKernel kernel = BuildPlain(*src_);
  EnableHeisenbyte(*kernel.image);
  ExploitLab lab(&kernel);
  DisclosureOracle oracle(&lab.cpu());
  auto target = kernel.image->symbols().AddressOf("restore_args_rdi");
  ASSERT_TRUE(target.ok());
  // The read succeeds and returns the *real* bytes...
  auto before = kernel.image->Peek64(*target);
  auto leaked = oracle.Leak(*target);
  ASSERT_TRUE(before.ok() && leaked.ok());
  EXPECT_EQ(*leaked, *before);
  // ...but the bytes are destroyed in place.
  auto after = kernel.image->Peek64(*target);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, 0xD7D7D7D7D7D7D7D7ULL);
  // Executing the disclosed-and-destroyed code now traps.
  RunResult r = lab.cpu().RunAt(*target, RunOptions{.max_steps = 8});
  EXPECT_EQ(r.reason, StopReason::kException);
}

TEST_F(BaselineTest, HeisenbyteFoilsDirectJitRop) {
  CompiledKernel kernel = BuildPlain(*src_);
  EnableHeisenbyte(*kernel.image);
  ExploitLab lab(&kernel);
  AttackOutcome out = DirectJitRopAttack(lab);
  // Harvesting works, but every harvested gadget was destroyed by the act
  // of reading it: the payload derails (here the very first harvested page
  // contained the leak routine itself, which the read destroyed — the
  // self-corruption hazard destructive reads accept by design).
  EXPECT_FALSE(out.success) << out.detail;
  EXPECT_GT(out.leaks, 16u);
}

TEST_F(BaselineTest, HeisenbyteBypassedByCodeInference) {
  // Snow et al. [106]: duplicated code yields "zombie gadgets" — read (and
  // destroy) one copy to learn the bytes, execute the intact twin at the
  // same offset. The corpus's krx_memcpy / krx_memcpy_clone pair is exactly
  // such a duplicate.
  CompiledKernel kernel = BuildPlain(*src_);
  EnableHeisenbyte(*kernel.image);
  ExploitLab lab(&kernel);
  DisclosureOracle oracle(&lab.cpu());

  auto copy_a = kernel.image->symbols().AddressOf("krx_memcpy");
  auto copy_b = kernel.image->symbols().AddressOf("krx_memcpy_clone");
  ASSERT_TRUE(copy_a.ok() && copy_b.ok());
  int32_t a_sym = kernel.image->symbols().Find("krx_memcpy");
  uint64_t size = kernel.image->symbols().at(a_sym).size;

  // Read copy A through the vulnerability (destroying it) and locate a
  // gadget: the trailing [mov %rdi,%rax; ret].
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(oracle.LeakBytes(*copy_a, size, &bytes).ok());
  GadgetScanner scanner;
  auto gadgets = scanner.Scan(bytes.data(), bytes.size(), 0);
  auto mov_ret = GadgetScanner::FindMovRR(gadgets, Reg::kRax, Reg::kRdi);
  ASSERT_TRUE(mov_ret.has_value());

  // Copy A is toast at that offset...
  RunResult dead = lab.cpu().RunAt(*copy_a + mov_ret->address, RunOptions{.max_steps = 8});
  EXPECT_EQ(dead.reason, StopReason::kException);

  // ...but the inferred twin executes the zombie gadget fine.
  lab.cpu().set_reg(Reg::kRdi, 0x1337);
  lab.cpu().set_reg(Reg::kRsp, lab.cpu().stack_top() - 16);
  KRX_CHECK(lab.cpu().mmu().Write64(lab.cpu().reg(Reg::kRsp), Cpu::kReturnSentinel).ok());
  RunResult alive = lab.cpu().RunAt(*copy_b + mov_ret->address, RunOptions{.max_steps = 8});
  EXPECT_EQ(alive.reason, StopReason::kReturned);
  EXPECT_EQ(alive.rax, 0x1337u);
}

TEST_F(BaselineTest, HidemFallsToIndirectJitRop) {
  CompiledKernel kernel = BuildPlain(*src_);
  ASSERT_TRUE(EnableHidem(*kernel.image, 0x00).ok());
  ExploitLab lab(&kernel);
  IndirectJitRopResult r = IndirectJitRopAttack(lab, 2, 64, 13);
  EXPECT_DOUBLE_EQ(r.success_rate, 1.0) << r.outcome.detail;
}

}  // namespace
}  // namespace krx
