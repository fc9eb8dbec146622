#!/bin/sh
# CI driver: builds the default and ASan+UBSan presets, runs the tier-1
# suite, the sanitizer subset, the fault-injection campaigns, the live
# re-randomization (rerand) stage, the perf stage (block-cache equivalence
# tests + parallel bench smoke matrix with the telemetry overhead gate), the
# superblock stage (translate-and-chain engine equivalence, invalidation
# and inline-TLB tests; the TSan preset re-runs them for the concurrent
# invalidation protocol), the telemetry stage (subsystem tests + krx_trace
# export/validate smoke + the
# traced security_eval attack timeline), the supervise stage (watchdog,
# deadline, retry, degradation-ladder and checkpoint/restore tests) with the
# chaos campaign acceptance gate, the fleet stage (multi-tenant CoW sharing
# tests plus the Poisson traffic bench with its dedup-ratio and
# thread-scaling gates), the spec stage (transient-execution subsystem tests
# plus the Spectre-v1 mitigation bench, which fails if a hardened config
# leaks or the unhardened baseline does not), and the static-analysis stage
# (krx_verify over the full config matrix — including spec-barrier and
# spec-mask — proving every image still carries a sufficient dominating
# check, fence, or clamp for each load/store).
# Produces the BENCH_fault.json, BENCH_rerand.json, BENCH_perf.json,
# BENCH_chaos.json, BENCH_fleet.json, BENCH_trace.json, BENCH_spec.json and
# BENCH_attacks_trace.json artifacts.
# The fault labels include fault_campaign_golden, which pins the campaign's
# report byte for byte to tests/golden/fault_campaign.txt.
# The full (non-quick) run re-verifies under the ASan preset and adds a
# ThreadSanitizer preset pass over the telemetry-, superblock-, fleet- and
# rerand-labelled suites (rerand: epochs under live gated Cpus, the bounded
# writer wait). The supervise label stays out until FakeClock::Advance no
# longer notifies a sleeper's condition variable after it has returned.
#
# Usage: tools/ci.sh [--quick]
#   --quick   skip the ASan and TSan presets (default preset stages only)
set -eu

cd "$(dirname "$0")/.."
QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "usage: tools/ci.sh [--quick]" >&2; exit 2 ;;
  esac
done

echo "==> configure + build (default preset)"
cmake --preset default
cmake --build --preset default -j

echo "==> tier-1 tests (default preset)"
ctest --preset default -j8

echo "==> fault-injection labels (default preset)"
ctest --test-dir build -L fault --output-on-failure -j4

echo "==> fault campaign artifact (build/BENCH_fault.json)"
./build/bench/fault_campaign --n 500 --json > build/BENCH_fault.json
./build/bench/fault_campaign --n 500 > /dev/null || {
  echo "fault campaign acceptance failed" >&2; exit 1;
}

echo "==> rerand stage: live re-randomization epoch tests"
ctest --test-dir build -L rerand --output-on-failure -j4

echo "==> rerand bench artifact (build/BENCH_rerand.json)"
./build/bench/rerand_epoch --quick --json > build/BENCH_rerand.json

echo "==> perf stage: engine-equivalence tests + bench smoke matrix"
ctest --test-dir build -L perf --output-on-failure -j4
./build/bench/bench_perf --quick --json build/BENCH_perf.json \
    --trace build/BENCH_perf_trace.json || {
  echo "bench_perf smoke matrix failed" >&2; exit 1;
}

echo "==> superblock stage: translate-and-chain engine tests"
ctest --test-dir build -L superblock --output-on-failure -j4

echo "==> telemetry stage: subsystem tests + trace export smoke"
ctest --test-dir build -L telemetry --output-on-failure -j4
./build/tools/krx_trace trace --out build/BENCH_trace.json
./build/tools/krx_trace validate build/BENCH_trace.json || {
  echo "exported chrome trace failed validation" >&2; exit 1;
}
./build/tools/krx_trace validate build/BENCH_perf_trace.json || {
  echo "bench_perf chrome trace failed validation" >&2; exit 1;
}

echo "==> telemetry stage: per-attack timeline (build/BENCH_attacks_trace.json)"
./build/bench/security_eval --trace build/BENCH_attacks_trace.json > /dev/null
./build/tools/krx_trace validate build/BENCH_attacks_trace.json || {
  echo "security_eval chrome trace failed validation" >&2; exit 1;
}

echo "==> spec stage: transient-execution tests + mitigation bench (build/BENCH_spec.json)"
ctest --test-dir build -L spec --output-on-failure -j4
./build/bench/spec_eval --quick --json > build/BENCH_spec.json || {
  echo "spec_eval acceptance failed (hardened config leaked, or sfi-o3 did not)" >&2
  exit 1
}

echo "==> supervise stage: watchdog/retry/health/checkpoint tests"
ctest --test-dir build -L supervise --output-on-failure -j4

echo "==> fleet stage: multi-tenant CoW tests + traffic bench (build/BENCH_fleet.json)"
ctest --test-dir build -L fleet --output-on-failure -j4
./build/bench/fleet --quick --json build/BENCH_fleet.json || {
  echo "fleet bench acceptance failed (request failures, dedup floor, or scaling gate)" >&2
  exit 1
}

echo "==> chaos stage: self-healing campaign (build/BENCH_chaos.json)"
./build/bench/chaos_campaign --quick --json > build/BENCH_chaos.json || {
  echo "chaos campaign acceptance failed" >&2; exit 1;
}

echo "==> static-analysis stage: verifier over the full config matrix"
./build/tools/krx_verify all || {
  echo "static-analysis verification failed (default preset)" >&2; exit 1;
}

if [ "$QUICK" -eq 0 ]; then
  echo "==> configure + build (asan preset)"
  cmake --preset asan
  cmake --build --preset asan -j

  echo "==> sanitize label (asan preset)"
  ctest --preset asan -j8

  echo "==> fault-injection labels (asan preset)"
  ctest --test-dir build-asan -L fault --output-on-failure -j4

  echo "==> rerand labels (asan preset)"
  ctest --test-dir build-asan -L rerand --output-on-failure -j4

  echo "==> telemetry labels (asan preset)"
  ctest --test-dir build-asan -L telemetry --output-on-failure -j4

  echo "==> superblock labels (asan preset)"
  ctest --test-dir build-asan -L superblock --output-on-failure -j4

  echo "==> spec labels (asan preset)"
  ctest --test-dir build-asan -L spec --output-on-failure -j4

  echo "==> supervise labels (asan preset)"
  ctest --test-dir build-asan -L supervise --output-on-failure -j4

  echo "==> fleet labels (asan preset)"
  ctest --test-dir build-asan -L fleet --output-on-failure -j4

  echo "==> static-analysis stage (asan preset)"
  ./build-asan/tools/krx_verify all || {
    echo "static-analysis verification failed (asan preset)" >&2; exit 1;
  }

  echo "==> configure + build (tsan preset)"
  cmake --preset tsan
  cmake --build --preset tsan -j

  echo "==> telemetry + concurrency + superblock + fleet + rerand suites (tsan preset)"
  ctest --preset tsan -j8
fi

echo "==> CI OK"
