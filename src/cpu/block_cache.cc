#include "src/cpu/block_cache.h"

#include "src/telemetry/telemetry.h"

namespace krx {

const DecodedBlock* BlockCache::Lookup(uint64_t rip, uint64_t generation) {
  if (generation != generation_) {
    if (!blocks_.empty()) {
      blocks_.clear();
      ++stats_.flushes;
      KRX_TRACE_EVENT(kBlockCacheFlush, "block_cache_flush", generation, 0);
    }
    generation_ = generation;
  }
  auto it = blocks_.find(rip);
  if (it == blocks_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second;
}

const DecodedBlock* BlockCache::Insert(DecodedBlock block) {
  stats_.decoded_insts += block.insts.size();
  auto [it, inserted] = blocks_.insert_or_assign(block.start, std::move(block));
  (void)inserted;
  return &it->second;
}

void BlockCache::Flush() {
  if (!blocks_.empty()) {
    blocks_.clear();
    ++stats_.flushes;
    KRX_TRACE_EVENT(kBlockCacheFlush, "block_cache_flush", 0, 0);
  }
}

}  // namespace krx
