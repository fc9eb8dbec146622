#include "src/fleet/kernel_cache.h"

#include <chrono>

#include "src/telemetry/metrics.h"

namespace krx {

const char* SharingName(Sharing sharing) {
  switch (sharing) {
    case Sharing::kShared:
      return "shared";
    case Sharing::kPrivate:
      return "private";
  }
  return "?";
}

KernelCache::KernelCache(SourceFactory factory) : factory_(std::move(factory)) {}

Result<std::shared_ptr<CompiledKernel>> KernelCache::Acquire(const BuildOptions& options,
                                                             Sharing sharing) {
  if (sharing == Sharing::kPrivate) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.private_mode.requests;
      ++stats_.private_mode.compiles;
    }
    KRX_COUNTER_ADD("kernel_cache.private_compiles", 1);
    auto compiled = CompileKernel(factory_(), options);
    if (!compiled.ok()) {
      return compiled.status();
    }
    return std::make_shared<CompiledKernel>(std::move(*compiled));
  }

  const BuildOptions key = options.Resolved();
  std::promise<Built> promise;
  std::shared_future<Built> future;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.shared_mode.requests;
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      future = promise.get_future().share();
      entries_.emplace(key, future);
      builder = true;
      ++stats_.shared_mode.compiles;
    } else {
      future = it->second;
      ++stats_.shared_mode.hits;
      // A not-yet-ready future means the keyed build is still running: this
      // request was deduplicated into it rather than served from cache.
      if (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++stats_.shared_mode.inflight_dedup;
        KRX_COUNTER_ADD("kernel_cache.inflight_dedup", 1);
      }
    }
  }
  if (builder) {
    KRX_COUNTER_ADD("kernel_cache.misses", 1);
    // Compile outside the lock: other keys proceed in parallel, and
    // same-key requesters block on the future, not the mutex.
    Built built;
    auto compiled = CompileKernel(factory_(), options);
    if (compiled.ok()) {
      built.kernel = std::make_shared<CompiledKernel>(std::move(*compiled));
    } else {
      built.status = compiled.status();
    }
    promise.set_value(std::move(built));
  } else {
    KRX_COUNTER_ADD("kernel_cache.hits", 1);
  }
  const Built& built = future.get();
  if (built.kernel == nullptr) {
    return built.status;
  }
  return built.kernel;
}

KernelCache::Stats KernelCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace krx
