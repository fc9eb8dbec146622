// Measurement harness: builds the 12 kernel variants (vanilla baseline plus
// the 11 Table-1 columns) from one source tree and measures cycle counts.
#ifndef KRX_SRC_WORKLOAD_HARNESS_H_
#define KRX_SRC_WORKLOAD_HARNESS_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/cpu/cpu.h"
#include "src/plugin/pipeline.h"
#include "src/workload/lmbench.h"

namespace krx {

struct Column {
  std::string name;
  ProtectionConfig config;
  LayoutKind layout = LayoutKind::kKrx;
};

// Columns displayed as `names[i]`, each built as ParseConfigName(configs[i],
// seed) resolves it. The two lists are parallel; an unknown config name is
// a program bug and aborts.
std::vector<Column> NamedColumns(std::span<const char* const> names,
                                 std::span<const char* const> configs, uint64_t seed);

// The 11 protection columns of Table 1 plus SFI(-O4), in kTable1ColumnNames
// order.
std::vector<Column> Table1Columns(uint64_t seed);

// CLI-style config names shared by krx_objdump and krx_verify:
//   vanilla | sfi-o0..sfi-o4 | sfi | mpx | mpx-o4 | spec-barrier | spec-mask
//   | d | x | sfi+d | sfi+x | mpx+d | mpx+x. Returns false on an unknown
//   name.
bool ParseConfigName(const std::string& name, uint64_t seed, ProtectionConfig* config,
                     LayoutKind* layout);

// The accepted names, for usage messages.
inline constexpr const char* kConfigNamesUsage =
    "vanilla|sfi-o0..o4|mpx|mpx-o4|spec-barrier|spec-mask|d|x|sfi+d|sfi+x|mpx+d|mpx+x";

// Base corpus + one kernel op per LMBench row.
KernelSource MakeBenchSource(uint64_t seed);

// Per-row measurement of one kernel build: calls each row's op through a
// simulated mode switch and records deci-cycles. All rows must return
// cleanly; a range-check violation or exception is a build bug.
struct RowMeasurement {
  std::string row;
  uint64_t deci_cycles = 0;
  uint64_t instructions = 0;
  uint64_t rax = 0;  // semantic witness: must match across variants
};

Result<std::vector<RowMeasurement>> MeasureAllRows(CompiledKernel& kernel,
                                                   uint64_t buffer_seed = 0xB0F);

// Measures one op symbol on an already-set-up CPU/buffer.
Result<RowMeasurement> MeasureOp(Cpu& cpu, uint64_t buffer_vaddr, const std::string& op_symbol);

// Full Table-1 style matrix: overhead % per row per column vs. vanilla.
struct OverheadMatrix {
  std::vector<std::string> row_names;
  std::vector<std::string> column_names;
  // [row][column] -> % overhead
  std::vector<std::vector<double>> percent;
  // Vanilla per-row baselines (deci-cycles).
  std::vector<uint64_t> baseline;
};

// `randomized_builds`: diversified columns are measured over this many
// differently-seeded builds and averaged — the paper compiles the kernel
// ten times with identical configuration and averages (§7). The default of
// 3 keeps the harness fast while still smoothing permutation jitter.
Result<OverheadMatrix> RunTable1(uint64_t seed, int randomized_builds = 3);

}  // namespace krx

#endif  // KRX_SRC_WORKLOAD_HARNESS_H_
