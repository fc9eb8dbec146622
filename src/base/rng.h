// Deterministic pseudo-random number generation.
//
// All randomized components of the reproduction (code diversification, xkey
// replenishment, workload generation, attack guessing) draw from Rng so that
// every experiment is reproducible from a seed. The generator is
// xoshiro256** seeded via splitmix64, which is the standard seeding recipe.
//
// Thread-safety contract: Rng is thread-COMPATIBLE, not thread-safe. Every
// draw mutates the four state words with no synchronization, so concurrent
// use of one Rng is a data race (torn state, repeated or corrupted outputs).
// The safe pattern is one Rng per thread, derived up front via Fork() (what
// the pipeline and the bench driver do).
#ifndef KRX_SRC_BASE_RNG_H_
#define KRX_SRC_BASE_RNG_H_

#include <cstdint>
#include <vector>

#include "src/base/status.h"

namespace krx {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform 64-bit value.
  uint64_t Next();

  // Uniform in [0, bound). bound must be > 0. Uses rejection sampling to
  // avoid modulo bias.
  uint64_t NextBelow(uint64_t bound);

  // Uniform in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // Bernoulli trial with probability p (clamped to [0,1]).
  bool NextBool(double p = 0.5);

  // Uniform double in [0, 1).
  double NextDouble();

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    if (items.size() < 2) {
      return;
    }
    for (size_t i = items.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBelow(i + 1));
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  // Derives an independent child generator (for per-component streams).
  Rng Fork();

 private:
  uint64_t state_[4];
};

}  // namespace krx

#endif  // KRX_SRC_BASE_RNG_H_
