// The compiled-image store: compile each distinct build exactly once, even
// when many worker threads request it concurrently.
//
// The store is one map from the seed-folded BuildOptions
// (BuildOptions::Resolved(), compared field by field) to a shared_future of
// the build, behind one mutex that also guards the stats. The lock covers
// only the lookup or insertion of the future and the accounting: a compile
// holds no lock at all, so builds of different keys run in parallel, and
// same-key requesters block on the shared_future of the in-flight build
// instead.
//
// The old Get/GetExclusive pair is collapsed into one entry point:
//
//   cache.Acquire(options, Sharing::kShared)   // cached, one build per key
//   cache.Acquire(options, Sharing::kPrivate)  // uncached private build
//
// Shared kernels are execute-only state: per-thread Cpu instances may run
// on one concurrently (each owns its Mmu and stack; frame allocation is
// thread-safe) but nothing may remap or poke text. Stateful workloads that
// mutate guest globals (VFS fd tables, IPC rings) — and tenant
// materializations that need a mutable image — request Sharing::kPrivate.
#ifndef KRX_SRC_FLEET_KERNEL_CACHE_H_
#define KRX_SRC_FLEET_KERNEL_CACHE_H_

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>

#include "src/plugin/pipeline.h"

namespace krx {

// How an acquired kernel may be used. kShared returns the one cached build
// for the key (immutable image, many concurrent readers); kPrivate compiles
// a fresh uncached kernel the caller owns outright.
enum class Sharing : uint8_t { kShared, kPrivate };

const char* SharingName(Sharing sharing);

class KernelCache {
 public:
  // `factory` produces the kernel source tree for every build (called once
  // per distinct shared key, and once per private acquire). It must be
  // callable from any worker thread.
  using SourceFactory = std::function<KernelSource()>;
  explicit KernelCache(SourceFactory factory);

  // The one entry point. Thread-safe.
  Result<std::shared_ptr<CompiledKernel>> Acquire(const BuildOptions& options, Sharing sharing);

  // Per-sharing-mode accounting (the old flat hits/compiles/
  // exclusive_compiles triple, folded into one shape per mode).
  struct ModeStats {
    uint64_t requests = 0;
    uint64_t hits = 0;      // shared only: served an already-requested key
    uint64_t compiles = 0;  // builds actually run in this mode
    // Shared only: hits that arrived while the keyed build was still
    // compiling — requests the shared_future deduplicated into one run.
    uint64_t inflight_dedup = 0;
  };
  struct Stats {
    ModeStats shared_mode;
    ModeStats private_mode;
  };
  Stats stats() const;

 private:
  struct Built {
    std::shared_ptr<CompiledKernel> kernel;  // null on failure
    Status status;
  };

  SourceFactory factory_;
  mutable std::mutex mu_;  // guards entries_ and stats_
  std::map<BuildOptions, std::shared_future<Built>> entries_;
  Stats stats_;
};

}  // namespace krx

#endif  // KRX_SRC_FLEET_KERNEL_CACHE_H_
