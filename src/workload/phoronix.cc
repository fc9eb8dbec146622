#include "src/workload/phoronix.h"

#include <map>

#include "src/base/math_util.h"
#include "src/workload/corpus.h"

namespace krx {

const char* const kTable2ColumnNames[kNumTable2Columns] = {
    "SFI", "MPX", "SFI+D", "SFI+X", "MPX+D", "MPX+X",
};

namespace {

std::vector<PhoronixRow> BuildRows() {
  std::vector<PhoronixRow> rows;
  auto add = [&rows](std::string name, std::string metric, double fraction,
                     std::vector<std::pair<std::string, int>> ops,
                     std::initializer_list<double> paper) {
    PhoronixRow r;
    r.name = std::move(name);
    r.metric = std::move(metric);
    r.kernel_fraction = fraction;
    r.ops = std::move(ops);
    int i = 0;
    for (double v : paper) {
      r.paper[i++] = v;
    }
    rows.push_back(std::move(r));
  };

  add("Apache", "Req/s", 0.04,
      {{"sys_tcp_sock_lat", 3}, {"sys_read_write", 2}, {"sys_open_close", 1}},
      {0.54, 0.48, 0.97, 1.00, 0.81, 0.68});
  add("PostgreSQL", "Trans/s", 0.25,
      {{"sys_read_write", 3}, {"sys_select_10", 2}, {"sys_fstat", 1}, {"sys_unix_sock_lat", 2}},
      {3.36, 1.06, 6.15, 6.02, 3.45, 4.74});
  add("Kbuild", "sec", 0.14,
      {{"sys_open_close", 2},
       {"sys_read_write", 3},
       {"sys_fork_execve", 1},
       {"sys_mmap_munmap", 1},
       {"sys_fstat", 1}},
      {1.48, 0.03, 3.21, 3.50, 2.82, 3.52});
  add("Kextract", "sec", 0.15, {{"sys_file_io_bw", 3}},
      {0.52, 0.0, 0.0, 0.0, 0.0, 0.0});
  add("GnuPG", "sec", 0.01, {{"sys_read_write", 1}, {"sys_null_syscall", 2}},
      {0.15, 0.0, 0.15, 0.15, 0.0, 0.0});
  add("OpenSSL", "Sign/s", 0.002, {{"sys_null_syscall", 1}},
      {0.0, 0.0, 0.03, 0.0, 0.01, 0.0});
  add("PyBench", "msec", 0.005, {{"sys_null_syscall", 1}, {"sys_mmap_munmap", 1}},
      {0.0, 0.0, 0.0, 0.15, 0.0, 0.0});
  add("PHPBench", "Score", 0.005, {{"sys_null_syscall", 2}, {"sys_fstat", 1}},
      {0.06, 0.0, 0.03, 0.50, 0.66, 0.0});
  add("IOzone", "MB/s", 0.45, {{"sys_file_io_bw", 1}, {"sys_read_write", 8}},
      {4.65, 0.0, 8.96, 8.59, 3.25, 4.26});
  add("DBench", "MB/s", 0.20,
      {{"sys_file_io_bw", 1}, {"sys_open_close", 2}, {"sys_read_write", 4}, {"sys_fstat", 2}},
      {0.86, 0.0, 4.98, 0.0, 4.28, 3.54});
  // PostMark "spends ~83% of its time in kernel mode, mainly executing
  // read()/write() and open()/close()" (§7.2).
  add("PostMark", "Trans/s", 0.83,
      {{"sys_read_write", 4}, {"sys_open_close", 1}},
      {13.51, 1.81, 19.99, 19.98, 10.09, 12.07});
  return rows;
}

// Weighted kernel-mode cycles of one row's op mix.
Result<double> MixCycles(CompiledKernel& kernel, const PhoronixRow& row, uint64_t buffer_seed) {
  CpuOptions copts;
  copts.mpx_enabled = kernel.config.mpx;
  Cpu cpu(kernel.image.get(), CostModel(), copts);
  auto buf = SetUpOpBuffer(*kernel.image, buffer_seed);
  if (!buf.ok()) {
    return buf.status();
  }
  double total = 0;
  for (const auto& [op, weight] : row.ops) {
    auto m = MeasureOp(cpu, *buf, op);
    if (!m.ok()) {
      return m.status();
    }
    total += static_cast<double>(m->deci_cycles) * weight;
  }
  return total;
}

}  // namespace

const std::vector<PhoronixRow>& PhoronixRows() {
  static const std::vector<PhoronixRow>* rows = new std::vector<PhoronixRow>(BuildRows());
  return *rows;
}

Result<Table2Matrix> RunTable2(uint64_t seed) {
  const auto& rows = PhoronixRows();
  KernelSource source = MakeBenchSource(seed);

  auto vanilla = CompileKernel(source, {ProtectionConfig::Vanilla(), LayoutKind::kVanilla});
  if (!vanilla.ok()) {
    return vanilla.status();
  }

  static constexpr const char* kConfigs[kNumTable2Columns] = {
      "sfi-o3", "mpx", "sfi+d", "sfi+x", "mpx+d", "mpx+x",
  };
  const std::vector<Column> columns = NamedColumns(kTable2ColumnNames, kConfigs, seed);

  Table2Matrix matrix;
  for (const PhoronixRow& row : rows) {
    matrix.row_names.push_back(row.name);
  }
  matrix.percent.assign(rows.size(), {});

  // Vanilla kernel-mode cycles per row.
  std::vector<double> base_kernel;
  for (const PhoronixRow& row : rows) {
    auto c = MixCycles(*vanilla, row, seed);
    if (!c.ok()) {
      return c.status();
    }
    base_kernel.push_back(*c);
  }

  matrix.average.assign(columns.size(), 0.0);
  for (size_t ci = 0; ci < columns.size(); ++ci) {
    matrix.column_names.push_back(columns[ci].name);
    auto kernel = CompileKernel(source, {columns[ci].config, columns[ci].layout});
    if (!kernel.ok()) {
      return kernel.status();
    }
    for (size_t ri = 0; ri < rows.size(); ++ri) {
      auto c = MixCycles(*kernel, rows[ri], seed);
      if (!c.ok()) {
        return c.status();
      }
      double f = rows[ri].kernel_fraction;
      double user = base_kernel[ri] * (1.0 - f) / f;
      double total_base = user + base_kernel[ri];
      double total_new = user + *c;
      double pct = OverheadPercent(total_base, total_new);
      matrix.percent[ri].push_back(pct);
      matrix.average[ci] += pct / static_cast<double>(rows.size());
    }
  }
  return matrix;
}

}  // namespace krx
