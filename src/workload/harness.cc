#include "src/workload/harness.h"

#include "src/base/math_util.h"
#include "src/workload/corpus.h"

namespace krx {

std::vector<Column> NamedColumns(std::span<const char* const> names,
                                 std::span<const char* const> configs, uint64_t seed) {
  KRX_CHECK(names.size() == configs.size());
  std::vector<Column> cols(names.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    cols[i].name = names[i];
    KRX_CHECK(ParseConfigName(configs[i], seed, &cols[i].config, &cols[i].layout));
  }
  return cols;
}

std::vector<Column> Table1Columns(uint64_t seed) {
  static constexpr const char* kConfigs[kNumTable1Columns] = {
      "sfi-o0", "sfi-o1", "sfi-o2", "sfi-o3", "mpx",   "d",
      "x",      "sfi+d",  "sfi+x",  "mpx+d",  "mpx+x", "sfi-o4",
  };
  return NamedColumns(kTable1ColumnNames, kConfigs, seed);
}

bool ParseConfigName(const std::string& name, uint64_t seed, ProtectionConfig* config,
                     LayoutKind* layout) {
  *layout = LayoutKind::kKrx;
  if (name == "vanilla") {
    *config = ProtectionConfig::Vanilla();
    *layout = LayoutKind::kVanilla;
  } else if (name == "sfi-o0") {
    *config = ProtectionConfig::SfiOnly(SfiLevel::kO0);
  } else if (name == "sfi-o1") {
    *config = ProtectionConfig::SfiOnly(SfiLevel::kO1);
  } else if (name == "sfi-o2") {
    *config = ProtectionConfig::SfiOnly(SfiLevel::kO2);
  } else if (name == "sfi-o3" || name == "sfi") {
    *config = ProtectionConfig::SfiOnly(SfiLevel::kO3);
  } else if (name == "sfi-o4") {
    *config = ProtectionConfig::SfiOnly(SfiLevel::kO4);
  } else if (name == "mpx") {
    *config = ProtectionConfig::MpxOnly();
  } else if (name == "mpx-o4") {
    *config = ProtectionConfig::MpxOnly();
    config->sfi = SfiLevel::kO4;
  } else if (name == "d") {
    *config = ProtectionConfig::DiversifyOnly(RaScheme::kDecoy, seed);
  } else if (name == "x") {
    *config = ProtectionConfig::DiversifyOnly(RaScheme::kEncrypt, seed);
  } else if (name == "sfi+d") {
    *config = ProtectionConfig::Full(false, RaScheme::kDecoy, seed);
  } else if (name == "sfi+x") {
    *config = ProtectionConfig::Full(false, RaScheme::kEncrypt, seed);
  } else if (name == "spec-barrier") {
    *config = ProtectionConfig::SpecHardened(SpecMitigation::kBarrier);
  } else if (name == "spec-mask") {
    *config = ProtectionConfig::SpecHardened(SpecMitigation::kMask);
  } else if (name == "mpx+d") {
    *config = ProtectionConfig::Full(true, RaScheme::kDecoy, seed);
  } else if (name == "mpx+x") {
    *config = ProtectionConfig::Full(true, RaScheme::kEncrypt, seed);
  } else {
    return false;
  }
  return true;
}

KernelSource MakeBenchSource(uint64_t seed) {
  CorpusOptions opts;
  opts.seed = seed;
  KernelSource src = MakeBaseSource(opts);
  for (const LmbenchRow& row : LmbenchRows()) {
    EmitKernelOp(&src, row.profile);
  }
  return src;
}

Result<RowMeasurement> MeasureOp(Cpu& cpu, uint64_t buffer_vaddr, const std::string& op_symbol) {
  auto entry = cpu.image()->symbols().AddressOf(op_symbol);
  if (!entry.ok()) {
    return entry.status();
  }
  RunResult r = cpu.CallFunction(*entry, {buffer_vaddr}, RunOptions{.max_steps = 50'000'000});
  if (r.reason != StopReason::kReturned) {
    return InternalError(op_symbol + " did not return cleanly: " +
                         std::string(ExceptionKindName(r.exception)) +
                         (r.krx_violation ? " (krx violation)" : ""));
  }
  RowMeasurement m;
  m.row = op_symbol;
  m.deci_cycles = r.deci_cycles;
  m.instructions = r.instructions;
  m.rax = r.rax;
  return m;
}

Result<std::vector<RowMeasurement>> MeasureAllRows(CompiledKernel& kernel,
                                                   uint64_t buffer_seed) {
  CpuOptions copts;
  copts.mpx_enabled = kernel.config.mpx;
  Cpu cpu(kernel.image.get(), CostModel(), copts);
  auto buf = SetUpOpBuffer(*kernel.image, buffer_seed);
  if (!buf.ok()) {
    return buf.status();
  }
  std::vector<RowMeasurement> out;
  for (const LmbenchRow& row : LmbenchRows()) {
    auto m = MeasureOp(cpu, *buf, "sys_" + row.profile.name);
    if (!m.ok()) {
      return m.status();
    }
    m->row = row.display_name;
    out.push_back(*m);
  }
  return out;
}

Result<OverheadMatrix> RunTable1(uint64_t seed, int randomized_builds) {
  KernelSource source = MakeBenchSource(seed);

  auto vanilla = CompileKernel(source, {ProtectionConfig::Vanilla(), LayoutKind::kVanilla});
  if (!vanilla.ok()) {
    return vanilla.status();
  }
  auto base = MeasureAllRows(*vanilla);
  if (!base.ok()) {
    return base.status();
  }

  OverheadMatrix matrix;
  for (const auto& m : *base) {
    matrix.row_names.push_back(m.row);
    matrix.baseline.push_back(m.deci_cycles);
  }
  matrix.percent.assign(matrix.row_names.size(), {});

  for (const Column& col : Table1Columns(seed)) {
    matrix.column_names.push_back(col.name);
    // Diversified builds are randomized: average over several seeds, as the
    // paper does across its ten identically-configured compiles.
    const int samples = col.config.diversify ? std::max(randomized_builds, 1) : 1;
    std::vector<double> total(matrix.row_names.size(), 0.0);
    for (int sample = 0; sample < samples; ++sample) {
      ProtectionConfig config = col.config;
      config.seed = seed + static_cast<uint64_t>(sample) * 0x9E3779B9ULL;
      auto kernel = CompileKernel(source, {config, col.layout});
      if (!kernel.ok()) {
        return kernel.status();
      }
      auto rows = MeasureAllRows(*kernel);
      if (!rows.ok()) {
        return rows.status();
      }
      for (size_t i = 0; i < rows->size(); ++i) {
        // Semantic witness: every variant must compute the same result.
        if ((*rows)[i].rax != (*base)[i].rax) {
          return InternalError("variant " + col.name + " diverged on row " +
                               matrix.row_names[i]);
        }
        total[i] += static_cast<double>((*rows)[i].deci_cycles);
      }
    }
    for (size_t i = 0; i < matrix.row_names.size(); ++i) {
      matrix.percent[i].push_back(OverheadPercent(static_cast<double>(matrix.baseline[i]),
                                                  total[i] / samples));
    }
  }
  return matrix;
}

}  // namespace krx
