// krx_perfbench: runs one workload of the repository benchmark and prints
// its metrics; perfbench/run.py builds this binary and runs it.
//
//   krx_perfbench --workload <exec-matrix|build-churn|rerand-live|serve-open>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0: sets the workload up several times (set-up time is the median),
// runs the timed phase for --seconds, and prints the end-to-end metrics.
// --trace 1: runs half the timed phase untraced and half traced (the
// difference is the tracing overhead, printed), then the layer probes and
// short runs of the workloads that own the remaining layers, and prints the
// per-layer metrics. Every span is written to
// .bench_out/trace-<workload>-<seed>.json in one JSON schema.
//
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// only when every correctness check passed.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "src/plugin/pipeline.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// The per-layer metrics of a traced run: each is the q-quantile of the
// samples of the same name. Samples the traced workload took itself win
// over the probes'.
struct LayerMetric {
  const char* name;
  const char* unit;
  double q;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"plugin.sfi_us", "us", 0.5},
    {"plugin.ra_encrypt_us", "us", 0.5},
    {"plugin.ra_decoy_us", "us", 0.5},
    {"plugin.reg_rand_us", "us", 0.5},
    {"plugin.kaslr_us", "us", 0.5},
    {"ir.callee_clobbers_us", "us", 0.5},
    {"plugin.ir_insts", "count", 0.5},
    {"plugin.sfi.checks_emitted", "count", 0.5},
    {"kernel.assemble_us", "us", 0.5},
    {"kernel.text_bytes", "bytes", 0.5},
    {"kernel.link_us", "us", 0.5},
    {"kernel.replenish_xkeys_us", "us", 0.5},
    {"mem.physmem_ctor_us", "us", 0.5},
    {"mem.frames_allocated_delta", "frames", 1.0},
    {"mem.rss_mb_per_tenant", "MB", 0.5},
    {"verify.image_us", "us", 0.5},
    {"rerand.map_finalize_us", "us", 0.5},
    {"rerand.quiesce_wait_ms", "ms", 0.5},
    {"rerand.functions_moved", "count", 0.5},
    {"rerand.stack_words_rewritten", "count", 0.5},
    {"fleet.materialize_us", "us", 0.5},
    {"fleet.admit_us", "us", 0.5},
    {"fleet.acquire_hit_us", "us", 0.5},
    {"fleet.queue_ms", "ms", 0.99},
    {"fleet.exec_ms", "ms", 0.5},
    {"fleet.reported_bytes_per_tenant", "bytes", 0.5},
    {"fleet.reported_to_rss_ratio", "ratio", 0.5},
    {"fleet.dedup_ratio", "ratio", 0.5},
    {"cpu.init_us", "us", 0.5},
    {"cpu.single_step_ns_per_inst", "ns", 0.5},
    {"cpu.block_cache_ns_per_inst", "ns", 0.5},
    {"cpu.superblock_ns_per_inst", "ns", 0.5},
    {"cpu.spec_window_ns_per_inst", "ns", 0.5},
    {"cpu.block_cache.hit_rate", "ratio", 0.5},
    {"cpu.superblock.chain_break_ratio", "ratio", 0.5},
    {"cpu.superblock.fastpath_share", "ratio", 0.5},
    {"cpu.superblock.tlb_hit_rate", "ratio", 0.5},
    {"cpu.first_call_after_epoch_us", "us", 0.5},
    {"workload.setup_buffers_us", "us", 0.5},
    {"loadgen.lag_ms_p99", "ms", 0.5},
};

// Workloads whose short traced runs supply the layers the probes cannot
// exercise on their own (quiescence of live Cpus, open-loop serving).
constexpr const char* kMiniWorkloads[] = {"rerand-live", "serve-open"};
constexpr double kMiniSeconds = 1.0;

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
  // False for figures printed in the summary only: op_ms_p99 and
  // mean_ops_per_s swung with host load by more than any bound a later
  // change could be held to.
  bool in_result = true;
};

// Throughput, p50 and p99 are taken over kWindows windows of the timed
// phase (see Windowed); the whole-phase throughput is printed beside them.
constexpr int kWindows = 320;

std::vector<Metric> EndToEnd(const PhaseResult& r, double setup_s, double peak_rss_mb) {
  const WindowedStats w = Windowed(r, kWindows);
  const size_t n = w.window_ops;
  const size_t beyond = n - static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
  const std::string windows = std::to_string(w.ops) + " ops, " + std::to_string(w.windows) +
                              " windows of " + std::to_string(n);
  return {
      {"setup_s", setup_s, "s", "median of the untraced set-ups"},
      r.ops_per_s > 0
          ? Metric{"ops_per_s", r.ops_per_s, "1/s", "the workload's own figure, see its source"}
          : Metric{"ops_per_s", w.ops_per_s, "1/s",
                   windows + ", " + std::to_string(r.clients) + " client(s) / mean service time"},
      {"mean_ops_per_s", w.mean_ops_per_s, "1/s", "over the whole phase, every window", false},
      {"op_ms_p50", w.p50_ms, "ms", windows},
      {"op_ms_p99", w.p99_ms, "ms", windows + ", " + std::to_string(beyond) + " beyond p99",
       false},
      {"peak_rss_mb", peak_rss_mb, "MB", "VmHWM"},
  };
}

void PrintMetric(const Metric& m);
void Diag(const PhaseResult& r) {
  const size_t cycle = std::max<size_t>(r.ops_per_cycle, 1);
  std::vector<CompletedOp> ops = r.ops;
  std::stable_sort(ops.begin(), ops.end(),
                   [](const CompletedOp& a, const CompletedOp& b) { return a.end_s < b.end_s; });
  for (int nw : {40, 320}) {
    const size_t cycles = ops.size() / cycle;
    const size_t windows = std::min(cycles, static_cast<size_t>(nw));
    if (windows == 0) continue;
    const size_t wo = cycles / windows * cycle;
    std::vector<double> rate, p50;
    for (size_t w = 0; w < windows; ++w) {
      std::vector<double> ms;
      double svc = 0;
      for (size_t i = w * wo; i < (w + 1) * wo; ++i) {
        ms.push_back(ops[i].ms);
        svc += ops[i].service_ms;
      }
      rate.push_back(r.clients * 1000.0 * ms.size() / svc);
      p50.push_back(Percentile(ms, 0.5));
    }
    for (double q : {0.5, 0.75, 0.9, 1.0}) std::printf("  diag_rate_w%d_q%g %g\n", nw, q, Percentile(rate, q));
    for (double q : {0.0, 0.1, 0.25, 0.5}) std::printf("  diag_p50_w%d_q%g %g\n", nw, q, Percentile(p50, q));
  }
  std::vector<double> cyc;
  for (size_t c = 0; (c + 1) * cycle <= ops.size(); ++c) {
    double svc = 0;
    for (size_t i = c * cycle; i < (c + 1) * cycle; ++i) svc += ops[i].service_ms;
    cyc.push_back(svc);
  }
  for (double q : {0.05, 0.1, 0.25, 0.5}) std::printf("  diag_cycle_q%g %g\n", q, r.clients * 1000.0 * cycle / Percentile(cyc, q));
  std::vector<double> all;
  for (const CompletedOp& o : ops) all.push_back(o.ms);
  for (double q : {0.1, 0.25, 0.5}) std::printf("  diag_lat_q%g %g\n", q, Percentile(all, q));
}

void PrintMetric(const Metric& m) {
  std::printf("  %-32s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
              m.note.c_str());
}

void PrintPhase(const PhaseResult& r) {
  const double share = r.attempted == 0 ? 0 : static_cast<double>(r.failed) / r.attempted;
  PrintMetric({"failed_share", share, "ratio",
               std::to_string(r.failed) + "/" + std::to_string(r.attempted)});
  if (r.guest_ops > 0 && r.wall_s > 0) {
    PrintMetric({"guest_minst_per_s", static_cast<double>(r.guest_instructions) / r.wall_s / 1e6,
                 "1/s", "guest instructions (millions) per host second"});
  }
  for (const PhaseResult::Extra& e : r.extras) PrintMetric({e.name, e.value, e.unit, e.note});
  for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
  for (const std::string& e : r.errors) std::printf("  FAILED: %s\n", e.c_str());
}

// Each span's self time: its duration minus the part its children cover.
std::unordered_map<uint64_t, int64_t> SelfTimes(const std::vector<Tracer::Span>& spans) {
  std::unordered_map<uint64_t, int64_t> self;
  self.reserve(spans.size());
  for (const Tracer::Span& s : spans) self[s.id] += s.end_ns - s.start_ns;
  for (const Tracer::Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = self.find(s.parent);
    if (it != self.end()) it->second -= s.end_ns - s.start_ns;
  }
  return self;
}

// Writes every span (up to kSpansPerName per name) and per-name aggregates.
bool WriteTrace(const std::string& path, const Args& args, const std::vector<Metric>& untraced,
                const std::vector<Metric>& traced, const std::vector<Metric>& layers) {
  constexpr size_t kSpansPerName = 20000;
  const std::vector<Tracer::Span> spans = Tracer::Global().Spans();
  const std::unordered_map<uint64_t, int64_t> self = SelfTimes(spans);
  struct Agg {
    uint64_t count = 0;
    double total_us = 0, self_us = 0;
    std::vector<double> dur_us;
  };
  std::map<std::string, Agg> agg;
  std::string out = "{\n  \"schema\": \"krx-perfbench-trace/1\",\n";
  out += "  \"workload\": " + Quote(args.workload) + ",\n  \"seed\": " +
         std::to_string(args.seed) + ",\n  \"seconds\": " + Num(args.seconds) + ",\n";
  out += "  \"phases\": {\"1\": \"workload\", \"2\": \"probe\"},\n";
  out += "  \"span_fields\": [\"id\", \"parent\", \"name\", \"phase\", \"thread\", \"tag\", "
         "\"start_us\", \"dur_us\", \"self_us\"],\n  \"spans\": [";
  bool first = true;
  for (const Tracer::Span& s : spans) {
    const std::string key = std::string(s.name) + "@" + std::to_string(s.phase);
    Agg& a = agg[key];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    const double self_us = static_cast<double>(self.at(s.id)) / 1000.0;
    ++a.count;
    a.total_us += dur;
    a.self_us += self_us;
    a.dur_us.push_back(dur);
    if (a.count > kSpansPerName) continue;
    out += first ? "\n    [" : ",\n    [";
    first = false;
    out += std::to_string(s.id) + "," + std::to_string(s.parent) + "," + Quote(s.name) + "," +
           std::to_string(s.phase) + "," + std::to_string(s.thread) + "," +
           std::to_string(s.tag) + "," + Num(static_cast<double>(s.start_ns) / 1000.0) + "," +
           Num(dur) + "," + Num(self_us) + "]";
  }
  out += "\n  ],\n  \"layers\": {";
  first = true;
  for (auto& [key, a] : agg) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += Quote(key) + ": {\"count\": " + std::to_string(a.count) +
           ", \"total_us\": " + Num(a.total_us) + ", \"self_us\": " + Num(a.self_us) +
           ", \"p50_us\": " + Num(Percentile(a.dur_us, 0.5)) +
           ", \"p99_us\": " + Num(Percentile(a.dur_us, 0.99)) + "}";
  }
  auto metrics_block = [](const std::vector<Metric>& ms) {
    std::string s = "{";
    for (size_t i = 0; i < ms.size(); ++i) {
      s += (i ? ", " : "") + Quote(ms[i].name) + ": {\"value\": " + Num(ms[i].value) +
           ", \"unit\": " + Quote(ms[i].unit) + "}";
    }
    return s + "}";
  };
  out += "\n  },\n  \"end_to_end\": {\"untraced\": " + metrics_block(untraced) +
         ", \"traced\": " + metrics_block(traced) + "},\n";
  out += "  \"metrics\": " + metrics_block(layers) + "\n}\n";
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
  std::ofstream f(path);
  f << out;
  return static_cast<bool>(f);
}

void PrintResult(bool correct, const PhaseResult& r, const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    line += (first ? "" : ", ") + Quote(m.name) + ": {\"value\": " + Num(m.value) +
            ", \"unit\": " + Quote(m.unit) + "}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void Merge(PhaseResult* into, const PhaseResult& from) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->errors.insert(into->errors.end(), from.errors.begin(), from.errors.end());
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 0);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (MakeWorkload(args.workload) == nullptr || args.seconds <= 0 || argc % 2 != 1) {
    std::fprintf(stderr,
                 "usage: krx_perfbench --workload <exec-matrix|build-churn|rerand-live|"
                 "serve-open> --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  std::printf("perfbench %s seed=%llu seconds=%s trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), Num(args.seconds).c_str(),
              args.trace ? 1 : 0);
  Tracer& tracer = Tracer::Global();
  PinThisThread(0);
  // Every build the workloads make, and every epoch TenantFleet::Admit
  // runs, proves the kR^X contract on its bytes.
  krx::SetPostLinkVerify(true);

  // Set-up, repeated: at least kMinSetups times, more while cheap; the
  // reported set-up time is the median. A traced run adds one traced set-up.
  // The last set-up is the one the timed phase runs on.
  constexpr size_t kMinSetups = 3, kMaxSetups = 15;
  constexpr double kCheapSetupS = 3.0;
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  double setup_total = 0, traced_setup_s = 0;
  auto set_up = [&](bool traced) -> double {
    workload.reset();
    workload = MakeWorkload(args.workload);
    tracer.SetPhase(kPhaseWorkload);
    tracer.SetEnabled(traced);
    const Clock::time_point t0 = Clock::now();
    krx::Status st = workload->SetUp(args.seed);
    const double s = MsBetween(t0, Clock::now()) / 1000.0;
    tracer.SetEnabled(false);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return -1;
    }
    return s;
  };
  while (setup_s.size() < kMinSetups ||
         (setup_total < kCheapSetupS && setup_s.size() < kMaxSetups)) {
    const double s = set_up(false);
    if (s < 0) return 1;
    setup_s.push_back(s);
    setup_total += s;
  }
  if (args.trace) {
    traced_setup_s = set_up(true);
    if (traced_setup_s < 0) return 1;
  }
  const double setup_median = Median(setup_s);

  if (!args.trace) {
    const PhaseResult r = workload->Run(args.seconds);
    const std::vector<Metric> e2e = EndToEnd(r, setup_median, PeakRssMb());
    for (const Metric& m : e2e) PrintMetric(m);
    Diag(r);
    std::printf("  %-32s %14zu\n", "setup_repetitions", setup_s.size());
    PrintPhase(r);
    const bool correct = r.failed == 0 && r.attempted > 0;
    PrintResult(correct, r, e2e);
    return correct ? 0 : 1;
  }

  // Traced run: untraced half, traced half, then the probes.
  const PhaseResult untraced = workload->Run(args.seconds / 2);
  const double peak_rss = PeakRssMb();
  tracer.SetPhase(kPhaseWorkload);
  tracer.SetEnabled(true);
  const PhaseResult traced = workload->Run(args.seconds / 2);
  const std::vector<Metric> e2e_untraced = EndToEnd(untraced, setup_median, peak_rss);
  const std::vector<Metric> e2e_traced = EndToEnd(traced, traced_setup_s, PeakRssMb());
  workload.reset();

  PhaseResult total;
  Merge(&total, untraced);
  Merge(&total, traced);
  tracer.SetPhase(kPhaseProbe);
  std::string probe_error;
  if (!RunLayerProbes(args.seed, &probe_error)) {
    ++total.attempted;
    total.Fail("layer probe: " + probe_error);
  }
  for (const char* mini : kMiniWorkloads) {
    if (args.workload == mini) continue;
    std::unique_ptr<Workload> w = MakeWorkload(mini);
    krx::Status st = w->SetUp(args.seed);
    if (!st.ok()) {
      ++total.attempted;
      total.Fail(std::string(mini) + " set-up: " + st.message());
      continue;
    }
    Merge(&total, w->Run(kMiniSeconds));
  }
  tracer.SetEnabled(false);

  std::printf("tracing overhead (traced - untraced, %s s each):\n", Num(args.seconds / 2).c_str());
  for (size_t i = 0; i < e2e_untraced.size(); ++i) {
    if (e2e_untraced[i].name == "peak_rss_mb") continue;
    std::printf("  %-32s %14.6g -> %-14.6g %+.6g %s\n", e2e_untraced[i].name.c_str(),
                e2e_untraced[i].value, e2e_traced[i].value,
                e2e_traced[i].value - e2e_untraced[i].value, e2e_untraced[i].unit.c_str());
  }
  std::printf("untraced half:\n");
  for (const Metric& m : e2e_untraced) PrintMetric(m);
  PrintPhase(untraced);

  // Per-layer metrics: the traced workload's own samples first.
  std::map<std::string, std::vector<double>> own, probed;
  for (const Tracer::Sample& s : tracer.Samples()) {
    (s.phase == kPhaseWorkload ? own : probed)[s.name].push_back(s.value);
  }
  std::vector<Metric> layers;
  bool complete = true;
  std::printf("per-layer metrics:\n");
  for (const LayerMetric& lm : kLayerMetrics) {
    const bool mine = own.count(lm.name) > 0;
    const std::vector<double>* values = mine ? &own[lm.name] : &probed[lm.name];
    if (values->empty()) {
      complete = false;
      total.errors.push_back(std::string("no samples for ") + lm.name);
    }
    Metric m{lm.name, Percentile(*values, lm.q), lm.unit,
             std::string(mine ? "workload" : "probe") + ", n=" + std::to_string(values->size())};
    PrintMetric(m);
    layers.push_back(m);
  }
  for (const std::string& e : total.errors) std::printf("  FAILED: %s\n", e.c_str());
  const std::string trace_path =
      ".bench_out/trace-" + args.workload + "-" + std::to_string(args.seed) + ".json";
  if (WriteTrace(trace_path, args, e2e_untraced, e2e_traced, layers)) {
    std::printf("wrote %s\n", trace_path.c_str());
  } else {
    std::printf("could not write %s\n", trace_path.c_str());
  }
  const bool correct = total.failed == 0 && total.attempted > 0 && complete;
  PrintResult(correct, total, layers);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
