// Self-test of the benchmark's own helpers: percentiles, the seeded
// open-loop schedule and the span tracer. `python3 perfbench/run.py
// --self-test` builds and runs it; the exit code is the number of failed
// checks.
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void TestPercentile() {
  Check(Percentile({}, 0.5) == 0, "percentile of nothing is 0");
  Check(Percentile({7}, 0.99) == 7, "percentile of one sample is that sample");
  Check(Median({3, 1, 2}) == 2, "median of an odd count is the middle value");
  Check(Median({4, 1, 3, 2}) == 2, "median of an even count is the lower middle (nearest rank)");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Check(Percentile(hundred, 0.99) == 99, "p99 of 1..100 is 99 (one sample beyond)");
  Check(Percentile(hundred, 1.0) == 100, "p100 is the maximum");
  Check(Percentile(hundred, 0.0) == 1, "p0 is the minimum");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  Check(Percentile(thousand, 0.99) == 990, "p99 of 1000 samples leaves 10 beyond it");
}

void TestWindowed() {
  // 20 windows of 100 ops at 1 ms, except that three windows in four ran at
  // 5 ms: the figures come from an undisturbed window, the whole-phase
  // throughput counts every op.
  PhaseResult r;
  r.wall_s = 1;
  for (int i = 0; i < 2000; ++i) {
    const double ms = (i / 100) % 4 != 0 ? 5.0 : 1.0;
    r.ops.push_back({i / 2000.0, ms, ms});
  }
  WindowedStats w = Windowed(r, 20);
  Check(w.windows == 20 && w.window_ops == 100, "ops are cut into equal windows");
  Check(w.p50_ms == 1.0 && w.p99_ms == 1.0, "p50 and p99 come from the best window");
  Check(std::abs(w.ops_per_s - 1000.0) < 1e-9, "throughput is clients / mean service time");
  Check(std::abs(w.mean_ops_per_s - 2000.0 / 8000.0 * 1000.0) < 1e-9,
        "the whole-phase throughput counts the slowed windows");
  r.clients = 2;
  Check(std::abs(Windowed(r, 20).ops_per_s - 2000.0) < 1e-9, "throughput scales with clients");
  r.clients = 1;
  // Open loop: latency counts queueing, throughput only the service time.
  for (CompletedOp& op : r.ops) {
    op.ms = 3.0;
    op.service_ms = 0.5;
  }
  w = Windowed(r, 20);
  Check(w.p50_ms == 3.0 && std::abs(w.ops_per_s - 2000.0) < 1e-9,
        "latency includes queueing, throughput does not");
  r.ops_per_cycle = 7;
  w = Windowed(r, 20);
  Check(w.window_ops % 7 == 0 && w.windows == 20, "windows hold whole cycles");
  Check(Windowed(PhaseResult{}, 20).ops == 0, "an empty phase yields zeros");
}

void TestSchedule() {
  const auto a = PoissonSchedule(42, 2000, 1000, 16, 4);
  const auto b = PoissonSchedule(42, 2000, 1000, 16, 4);
  const auto c = PoissonSchedule(43, 2000, 1000, 16, 4);
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].at_ms == b[i].at_ms && a[i].tenant == b[i].tenant && a[i].client == b[i].client;
  }
  Check(same, "the same seed gives the same schedule");
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) differs = a[i].at_ms != c[i].at_ms;
  Check(differs, "another seed gives another schedule");
  Check(std::abs(static_cast<double>(a.size()) - 2000.0) < 200, "about rate x duration arrivals");
  bool ordered = true, in_range = true, round_robin = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].at_ms < a[i - 1].at_ms) ordered = false;
    if (a[i].at_ms < 0 || a[i].at_ms >= 1000 || a[i].tenant < 0 || a[i].tenant >= 16) {
      in_range = false;
    }
    if (a[i].client != static_cast<int>(i % 4)) round_robin = false;
  }
  Check(ordered, "send times are ascending");
  Check(in_range, "send times and tenants are in range");
  Check(round_robin, "requests are dealt round-robin to the clients");
  bool decks = a.size() >= 16;
  for (size_t block = 0; block + 16 <= a.size(); block += 16) {
    std::vector<bool> seen(16, false);
    for (size_t i = block; i < block + 16; ++i) seen[static_cast<size_t>(a[i].tenant)] = true;
    for (bool s : seen) decks = decks && s;
  }
  Check(decks, "every block of 16 arrivals visits each tenant once");
  Check(PoissonSchedule(1, 0, 1000, 16, 4).empty(), "a zero rate sends nothing");
}

void TestTracer() {
  Tracer& t = Tracer::Global();
  t.SetPhase(kPhaseWorkload);
  t.SetEnabled(true);
  {
    SpanScope outer("test.outer");
    SpanScope inner("test.inner", 7);
  }
  std::thread([] { SpanScope other("test.thread"); }).join();
  TraceSample("test.sample", 3.5);
  t.SetEnabled(false);
  { SpanScope ignored("test.disabled"); }
  const std::vector<Tracer::Span> spans = t.Spans();
  const Tracer::Span* outer = nullptr;
  const Tracer::Span* inner = nullptr;
  const Tracer::Span* other = nullptr;
  bool disabled_seen = false;
  for (const Tracer::Span& s : spans) {
    const std::string name = s.name;
    if (name == "test.outer") outer = &s;
    if (name == "test.inner") inner = &s;
    if (name == "test.thread") other = &s;
    if (name == "test.disabled") disabled_seen = true;
  }
  Check(outer != nullptr && inner != nullptr && other != nullptr, "spans are recorded");
  if (outer == nullptr || inner == nullptr || other == nullptr) return;
  Check(inner->parent == outer->id && outer->parent == 0, "a nested span names its parent");
  Check(inner->tag == 7, "the request tag is kept");
  Check(inner->start_ns >= outer->start_ns && inner->end_ns <= outer->end_ns,
        "a child lies within its parent");
  Check(other->parent == 0 && other->thread != outer->thread, "another thread has its own stack");
  Check(!disabled_seen, "nothing is recorded while disabled");
  const std::vector<Tracer::Sample> samples = t.Samples();
  Check(samples.size() == 1 && samples[0].value == 3.5 && samples[0].phase == kPhaseWorkload,
        "samples carry their value and phase");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentile();
  perfbench::TestWindowed();
  perfbench::TestSchedule();
  perfbench::TestTracer();
  std::printf("%d failure(s)\n", perfbench::failures);
  return perfbench::failures;
}
