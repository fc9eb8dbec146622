// The multi-tenant fleet: CoW image sharing, per-tenant divergence, and the
// semantic witness that a CoW-materialized tenant computes exactly what a
// privately-built control computes.
//
//   - Same-source tenants must alias ONE pristine TextBlob (pointer
//     identity, not equality) and one LinkArtifacts set.
//   - After the per-tenant rerand epoch, tenant layouts must diverge.
//   - A CoW tenant's workload run must be call-for-call and rax-for-rax
//     identical to a private control built from scratch with the same
//     options (instruction counts legitimately differ: diversification pads
//     differently per seed).
//   - MemoryUsage() must report the dedup split correctly.
//   - The kernel cache compiles each distinct build once, keyed on every
//     field of the seed-folded BuildOptions, also under concurrent requests.
//   - A tenant materialized with its base's own options is the base image:
//     both builders end in one link tail.

#include <functional>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/fleet/fleet.h"
#include "src/fleet/kernel_cache.h"
#include "src/fleet/tenant.h"
#include "src/verify/decoded_function.h"
#include "src/workload/corpus.h"
#include "src/workload/harness.h"
#include "src/workload/ipc.h"
#include "src/workload/vfs.h"

namespace krx {
namespace {

KernelCache::SourceFactory FleetSourceFactory(uint64_t seed) {
  return [seed] {
    KernelSource src = MakeBenchSource(seed);
    AddVfs(&src, DefaultVfsImage());
    AddIpc(&src);
    return src;
  };
}

TenantSpec LmbenchTenant(int id, const std::string& config, uint64_t seed) {
  TenantSpec spec;
  spec.tenant_id = id;
  spec.config_name = config;
  spec.seed = seed;
  spec.workload = WorkloadKind::kLmbench;
  spec.op_symbol = "sys_read_write";
  return spec;
}

// The kernel cache underpinning the parallel driver and the fleet: one
// compile per distinct build, shared pointers for repeat requests, private
// builds on demand.
TEST(KernelCacheTest, CompilesOncePerKey) {
  KernelCache cache([] { return MakeBaseSource(); });
  const BuildOptions sfi{ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx};
  const BuildOptions mpx{ProtectionConfig::MpxOnly(), LayoutKind::kKrx};

  auto a = cache.Acquire(sfi, Sharing::kShared);
  auto b = cache.Acquire(sfi, Sharing::kShared);
  auto c = cache.Acquire(mpx, Sharing::kShared);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->get(), b->get()) << "same key must share one kernel";
  EXPECT_NE(a->get(), c->get());
  EXPECT_EQ(cache.stats().shared_mode.compiles, 2u);
  EXPECT_EQ(cache.stats().shared_mode.hits, 1u);

  auto priv = cache.Acquire(sfi, Sharing::kPrivate);
  ASSERT_TRUE(priv.ok());
  EXPECT_NE(priv->get(), a->get()) << "private builds are never shared";
  EXPECT_EQ(cache.stats().private_mode.compiles, 1u);
}

// The seed override and the config's own seed are one knob: asking for the
// same effective seed either way is the same build.
TEST(KernelCacheTest, SeedOverrideAndConfigSeedAreOneBuild) {
  KernelCache cache([] { return MakeBaseSource(); });
  BuildOptions by_override{ProtectionConfig::DiversifyOnly(RaScheme::kEncrypt, 0x111),
                           LayoutKind::kKrx};
  by_override.seed = 0x1234;
  BuildOptions by_config = by_override;
  by_config.seed = 0;
  by_config.config.seed = 0x1234;

  auto a = cache.Acquire(by_override, Sharing::kShared);
  auto b = cache.Acquire(by_config, Sharing::kShared);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->get(), b->get());
  EXPECT_EQ((*a)->config.seed, 0x1234u);
  EXPECT_EQ(cache.stats().shared_mode.compiles, 1u);
  EXPECT_EQ(cache.stats().shared_mode.hits, 1u);
}

// Every field of ProtectionConfig and BuildOptions is part of the key:
// changing any one of them asks for a separate compile, and the original
// stays cached.
TEST(KernelCacheTest, EveryFieldIsPartOfTheKey) {
  KernelCache cache([] { return MakeBaseSource(); });
  const BuildOptions base{ProtectionConfig::Full(false, RaScheme::kEncrypt, 0x111),
                          LayoutKind::kKrx};
  const struct {
    const char* field;
    std::function<void(BuildOptions&)> change;
  } kVariants[] = {
      {"config.sfi", [](BuildOptions& o) { o.config.sfi = SfiLevel::kO4; }},
      {"config.mpx", [](BuildOptions& o) { o.config.mpx = true; }},
      {"config.diversify", [](BuildOptions& o) { o.config.diversify = false; }},
      {"config.coarse_kaslr", [](BuildOptions& o) { o.config.coarse_kaslr = true; }},
      {"config.ra", [](BuildOptions& o) { o.config.ra = RaScheme::kDecoy; }},
      {"config.randomize_registers",
       [](BuildOptions& o) { o.config.randomize_registers = true; }},
      {"config.spec.barrier", [](BuildOptions& o) { o.config.spec = SpecMitigation::kBarrier; }},
      {"config.spec.mask", [](BuildOptions& o) { o.config.spec = SpecMitigation::kMask; }},
      {"config.entropy_bits_k", [](BuildOptions& o) { o.config.entropy_bits_k = 20; }},
      {"config.seed", [](BuildOptions& o) { o.config.seed = 0x222; }},
      {"config.exempt_functions",
       [](BuildOptions& o) { o.config.exempt_functions.insert("commit_creds"); }},
      {"layout", [](BuildOptions& o) { o.layout = LayoutKind::kVanilla; }},
      {"seed", [](BuildOptions& o) { o.seed = 0x333; }},
      {"verify", [](BuildOptions& o) { o.verify = BuildOptions::Verify::kOff; }},
  };
  ASSERT_TRUE(cache.Acquire(base, Sharing::kShared).ok());
  uint64_t compiles = 1;
  for (const auto& variant : kVariants) {
    SCOPED_TRACE(variant.field);
    BuildOptions changed = base;
    variant.change(changed);
    // A variant may be an invalid build (vanilla layout under range
    // checks); it is still a build of its own, never the cached one.
    (void)cache.Acquire(changed, Sharing::kShared);
    EXPECT_EQ(cache.stats().shared_mode.compiles, ++compiles);
    EXPECT_EQ(cache.stats().shared_mode.hits, 0u);
  }
  ASSERT_TRUE(cache.Acquire(base, Sharing::kShared).ok());
  EXPECT_EQ(cache.stats().shared_mode.compiles, compiles);
  EXPECT_EQ(cache.stats().shared_mode.hits, 1u);
}

// Four threads asking for one key at the same moment get one compile and
// one kernel: the shared_future dedups the requests that arrive while the
// build runs.
TEST(KernelCacheTest, ConcurrentAcquiresOfOneKeyCompileOnce) {
  KernelCache cache([] { return MakeBaseSource(); });
  const BuildOptions options{ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx};
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<Result<std::shared_ptr<CompiledKernel>>> results(
      kThreads, InternalError("not acquired"));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      results[static_cast<size_t>(t)] = cache.Acquire(options, Sharing::kShared);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->get(), results[0]->get());
  }
  const KernelCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.shared_mode.requests, 4u);
  EXPECT_EQ(stats.shared_mode.compiles, 1u);
  EXPECT_EQ(stats.shared_mode.hits, 3u);
}

// CompileKernel and MaterializeTenant end in the same link tail: a tenant
// materialized with its base's own options is the base image, byte for byte
// and address for address, except for the xkeys each draws from its own
// stream. It also records the same effective seed.
TEST(FleetTest, TenantOfBaseOptionsMatchesCompileKernel) {
  for (const char* name : {"vanilla", "sfi-o3", "x", "sfi+x", "mpx+d", "spec-mask"}) {
    SCOPED_TRACE(name);
    BuildOptions options;
    ASSERT_TRUE(ParseConfigName(name, 0x1234, &options.config, &options.layout));
    options.seed = 0x1234;
    auto base = CompileKernel(MakeBenchSource(0x5173), options);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    auto tenant = MaterializeTenant(*base, options);
    ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
    EXPECT_EQ(base->config.seed, 0x1234u);
    EXPECT_EQ(tenant->config.seed, base->config.seed);

    const KernelImage& a = *base->image;
    const KernelImage& b = *tenant->image;
    ASSERT_EQ(a.sections().size(), b.sections().size());
    for (size_t i = 0; i < a.sections().size(); ++i) {
      const PlacedSection& sa = a.sections()[i];
      const PlacedSection& sb = b.sections()[i];
      SCOPED_TRACE(sa.name);
      ASSERT_EQ(sa.name, sb.name);
      EXPECT_EQ(sa.vaddr, sb.vaddr);
      ASSERT_EQ(sa.size, sb.size);
      if (sa.name == ".krx_xkeys") {
        continue;
      }
      std::vector<uint8_t> bytes_a(sa.size);
      std::vector<uint8_t> bytes_b(sb.size);
      ASSERT_TRUE(a.PeekBytes(sa.vaddr, bytes_a.data(), bytes_a.size()).ok());
      ASSERT_TRUE(b.PeekBytes(sb.vaddr, bytes_b.data(), bytes_b.size()).ok());
      EXPECT_TRUE(bytes_a == bytes_b);
    }
    ASSERT_EQ(a.symbols().size(), b.symbols().size());
    for (size_t i = 0; i < a.symbols().size(); ++i) {
      const Symbol& sym_a = a.symbols().at(static_cast<int32_t>(i));
      const Symbol& sym_b = b.symbols().at(static_cast<int32_t>(i));
      EXPECT_EQ(sym_a.name, sym_b.name);
      EXPECT_EQ(sym_a.address, sym_b.address) << sym_a.name;
    }
  }
}

TEST(FleetTest, SameSourceTenantsShareOnePristineBlob) {
  KernelCache cache(FleetSourceFactory(0xF1EE7));
  FleetOptions options;
  options.base_seed = 0xF1EE7;
  TenantFleet fleet(&cache, options);

  auto a = fleet.Admit(LmbenchTenant(0, "sfi+x", 0xA11CE));
  auto b = fleet.Admit(LmbenchTenant(1, "sfi+x", 0xB0B));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  // Pointer identity: the two tenants' rerand maps alias the SAME blob
  // object, and the same LinkArtifacts — the sharing is real, not a copy.
  const TextBlob* blob_a = (*a)->kernel->rerand->pristine.get();
  const TextBlob* blob_b = (*b)->kernel->rerand->pristine.get();
  ASSERT_NE(blob_a, nullptr);
  EXPECT_EQ(blob_a, blob_b);
  EXPECT_EQ((*a)->kernel->artifacts.get(), (*b)->kernel->artifacts.get());
  EXPECT_EQ(blob_a, (*a)->kernel->artifacts->pristine.get());

  // One compile served both tenants.
  EXPECT_EQ(cache.stats().shared_mode.compiles, 1u);
  EXPECT_EQ(cache.stats().shared_mode.hits, 1u);

  // A different config is a different pristine group.
  auto c = fleet.Admit(LmbenchTenant(2, "x", 0xCA7));
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_NE((*c)->kernel->rerand->pristine.get(), blob_a);
  EXPECT_EQ(cache.stats().shared_mode.compiles, 2u);
}

TEST(FleetTest, TenantLayoutsDivergeAfterEpoch) {
  KernelCache cache(FleetSourceFactory(0xF1EE7));
  FleetOptions options;
  options.base_seed = 0xF1EE7;
  TenantFleet fleet(&cache, options);

  auto a = fleet.Admit(LmbenchTenant(0, "sfi+x", 0xA11CE));
  auto b = fleet.Admit(LmbenchTenant(1, "sfi+x", 0xB0B));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GE((*a)->epochs, 1u);
  EXPECT_GE((*b)->epochs, 1u);

  // Same function set, different per-tenant placement: at least one
  // function must sit at a different offset (the whole point of per-tenant
  // diversification; 100+ functions at identical offsets would mean the
  // epoch did nothing).
  const RerandMap& map_a = *(*a)->kernel->rerand;
  const RerandMap& map_b = *(*b)->kernel->rerand;
  ASSERT_EQ(map_a.functions.size(), map_b.functions.size());
  ASSERT_FALSE(map_a.functions.empty());
  bool diverged = false;
  for (size_t i = 0; i < map_a.functions.size(); ++i) {
    EXPECT_EQ(map_a.functions[i].name, map_b.functions[i].name);
    if (map_a.functions[i].current_offset != map_b.functions[i].current_offset) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged) << "tenant layouts must differ after per-tenant epochs";

  // And both diverged from the shared pristine order's base placement: the
  // pristine blob itself is untouched (identical object, immutable).
  EXPECT_EQ(map_a.pristine.get(), map_b.pristine.get());
}

// Return sites are decoded once, when the build captures its pristine blob,
// and every tenant's map carries them from there. Each must still be
// exactly the set of call ends an independent decode of the function's
// linked bytes finds, in the tenant's own image.
TEST(RerandMap, TenantReturnSitesMatchPristineDecode) {
  ProtectionConfig config;
  LayoutKind layout;
  ASSERT_TRUE(ParseConfigName("sfi+x", 0x5173, &config, &layout));
  auto base = CompileKernel(MakeBenchSource(0x5173), {config, layout});
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  for (uint64_t tenant_seed : {0xA11CEULL, 0xB0BULL}) {
    BuildOptions options{config, layout};
    options.seed = tenant_seed;
    auto tenant = MaterializeTenant(*base, options);
    ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
    const RerandMap& map = *tenant->rerand;
    EXPECT_EQ(map.pristine.get(), base->rerand->pristine.get());
    ASSERT_EQ(map.functions.size(), base->rerand->functions.size());

    size_t sites = 0;
    for (const RerandFunction& fn : map.functions) {
      const uint64_t entry = map.text_base + fn.current_offset;
      auto decoded = DecodeFunction(*tenant->image, fn.name, entry, fn.size);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      std::vector<uint64_t> call_ends;
      for (const DecodedInst& di : decoded->insts) {
        if (di.inst.IsCall()) {
          call_ends.push_back(di.address + di.size - entry);
        }
      }
      EXPECT_EQ(fn.return_sites, call_ends) << fn.name;
      sites += call_ends.size();
    }
    EXPECT_GT(sites, map.functions.size());  // the corpus is call-heavy
  }
}

// The acceptance witness: a CoW tenant is semantically bit-identical to a
// control built privately from scratch with the tenant's own options —
// same calls, same rax checksum, over every workload kind.
TEST(FleetTest, CowTenantMatchesPrivateControl) {
  const uint64_t kBaseSeed = 0xF1EE7;
  const uint64_t kTenantSeed = 0x7E4A47;
  KernelCache cache(FleetSourceFactory(kBaseSeed));
  FleetOptions options;
  options.base_seed = kBaseSeed;
  TenantFleet fleet(&cache, options);

  const struct {
    WorkloadKind workload;
    const char* name;
  } kWorkloads[] = {
      {WorkloadKind::kLmbench, "lmbench"},
      {WorkloadKind::kVfs, "vfs"},
      {WorkloadKind::kIpc, "ipc"},
  };

  for (const auto& wl : kWorkloads) {
    SCOPED_TRACE(wl.name);
    TenantSpec spec = LmbenchTenant(0, "sfi+x", kTenantSeed);
    spec.workload = wl.workload;
    auto tenant = fleet.Admit(spec);
    ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
    auto cow = fleet.Serve((*tenant)->index, /*worker=*/0);
    ASSERT_TRUE(cow.ok()) << cow.status().ToString();

    // Control: full CompileKernel with the tenant's exact options, its own
    // Cpu and identically-seeded buffers.
    auto control_options = spec.ResolveBuildOptions(kBaseSeed);
    ASSERT_TRUE(control_options.ok());
    auto control = cache.Acquire(*control_options, Sharing::kPrivate);
    ASSERT_TRUE(control.ok()) << control.status().ToString();
    CpuOptions copts;
    copts.mpx_enabled = (*control)->config.mpx;
    Cpu cpu((*control)->image.get(), CostModel(), copts);
    ASSERT_TRUE(cpu.init_error().empty()) << cpu.init_error();
    auto buffers = SetUpWorkloadBuffers(*(*control)->image, spec.workload, kTenantSeed);
    ASSERT_TRUE(buffers.ok()) << buffers.status().ToString();
    WorkloadCounters expected;
    ASSERT_TRUE(RunWorkloadOnce(cpu, spec, *buffers, RunOptions{}, &expected).ok());

    // Semantic witness: same calls in the same order computing the same
    // values. Instruction counts are NOT compared — diversification pads
    // (nop sleds, decoys) legitimately differ between the base-seed
    // instrumentation and the control's tenant-seed instrumentation.
    EXPECT_EQ(cow->calls, expected.calls);
    EXPECT_EQ(cow->rax_checksum, expected.rax_checksum);
  }
}

TEST(FleetTest, MemoryReportAccountsDedup) {
  KernelCache cache(FleetSourceFactory(0xF1EE7));
  FleetOptions options;
  options.base_seed = 0xF1EE7;
  TenantFleet fleet(&cache, options);

  // 4 tenants over 2 configs: dedup ratio must be 1 - 2/4 = 0.5.
  ASSERT_TRUE(fleet.Admit(LmbenchTenant(0, "sfi+x", 0x1)).ok());
  ASSERT_TRUE(fleet.Admit(LmbenchTenant(1, "sfi+x", 0x2)).ok());
  ASSERT_TRUE(fleet.Admit(LmbenchTenant(2, "x", 0x3)).ok());
  ASSERT_TRUE(fleet.Admit(LmbenchTenant(3, "x", 0x4)).ok());

  const TenantFleet::MemoryReport report = fleet.MemoryUsage();
  EXPECT_EQ(report.tenants, 4);
  EXPECT_EQ(report.pristine_groups, 2);
  EXPECT_DOUBLE_EQ(report.dedup_ratio, 0.5);
  EXPECT_GT(report.shared_bytes, 0u);
  EXPECT_GT(report.image_bytes, 0u);
  EXPECT_EQ(report.cow_total_bytes, report.shared_bytes + report.image_bytes);
  // The naive baseline duplicates the artifacts per tenant; with 4 tenants
  // over 2 groups it must strictly exceed the CoW total by exactly the
  // duplicated artifact bytes.
  EXPECT_EQ(report.naive_total_bytes, report.image_bytes + 2 * report.shared_bytes);
  EXPECT_GT(report.naive_total_bytes, report.cow_total_bytes);
  EXPECT_DOUBLE_EQ(report.avg_bytes_per_tenant,
                   static_cast<double>(report.cow_total_bytes) / 4.0);

  // Per-sharing-mode stats: two shared compiles (one per group), two hits,
  // no private builds through the fleet path.
  const KernelCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.shared_mode.compiles, 2u);
  EXPECT_EQ(stats.shared_mode.hits, 2u);
  EXPECT_EQ(stats.shared_mode.requests, 4u);
  EXPECT_EQ(stats.private_mode.compiles, 0u);
}

// Serve holds a worker for the whole request, so two threads sending
// requests to one worker Cpu each get exactly the single-threaded answer.
// Without that lock the requests interleave on the Cpu's registers, block
// cache and run telemetry.
TEST(FleetTest, ConcurrentRequestsForOneWorkerMatchASerialRun) {
  KernelCache cache(FleetSourceFactory(0xF1EE7));
  FleetOptions options;
  options.base_seed = 0xF1EE7;
  options.phys_bytes = 32ULL << 20;
  TenantFleet fleet(&cache, options);
  auto tenant = fleet.Admit(LmbenchTenant(0, "sfi+x", 0x51));
  ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
  auto reference = fleet.Serve(0, 0);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  constexpr int kThreads = 2;
  constexpr int kRequestsPerThread = 50;
  std::vector<Result<WorkloadCounters>> results[kThreads];
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fleet, &results, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        results[t].push_back(fleet.Serve(0, 0));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), static_cast<size_t>(kRequestsPerThread));
    for (size_t i = 0; i < results[t].size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "thread " << t << " request " << i);
      ASSERT_TRUE(results[t][i].ok()) << results[t][i].status().ToString();
      EXPECT_EQ(results[t][i]->rax_checksum, reference->rax_checksum);
      EXPECT_EQ(results[t][i]->instructions, reference->instructions);
      EXPECT_EQ(results[t][i]->deci_cycles, reference->deci_cycles);
    }
  }
}

// ASan's allocator holds freed blocks back in a quarantine (256MB by
// default) instead of reusing them, so under ASan process RSS also grows by
// up to that much heap churn.
#if defined(__SANITIZE_ADDRESS__)
constexpr uint64_t kHeapQuarantineBytes = 256ULL << 20;
#else
constexpr uint64_t kHeapQuarantineBytes = 0;
#endif

// Tenant images are demand-zero: 16 tenants of 32MB each cost the host the
// frames they wrote, not 512MB of zeroes, and the report's resident bytes
// stay within the frames the images hold.
TEST(FleetTest, TenantImagesCostOnlyTouchedMemory) {
  KernelCache cache(FleetSourceFactory(0xF1EE7));
  FleetOptions options;
  options.base_seed = 0xF1EE7;
  options.phys_bytes = 32ULL << 20;
  TenantFleet fleet(&cache, options);

  const uint64_t rss_before = ProcessRssBytes();
  ASSERT_GT(rss_before, 0u);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        fleet.Admit(LmbenchTenant(i, i % 2 == 0 ? "sfi+x" : "x", 0x100 + static_cast<uint64_t>(i)))
            .ok());
  }
  const TenantFleet::MemoryReport report = fleet.MemoryUsage();
  EXPECT_LT(report.process_rss_bytes, rss_before + (64ULL << 20) + kHeapQuarantineBytes);
  EXPECT_GT(report.resident_bytes, 0u);
  EXPECT_LE(report.resident_bytes, report.image_bytes);
  EXPECT_LT(report.image_bytes, 16 * options.phys_bytes);
}

}  // namespace
}  // namespace krx
