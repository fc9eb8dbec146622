#include "src/fleet/image_key.h"

#include <sstream>
#include <tuple>

namespace krx {
namespace {

// FNV-1a over the key's field stream; strings are folded byte-wise with a
// terminator so {"a","b"} and {"ab"} cannot collide.
struct Fnv {
  uint64_t h = 0xCBF29CE484222325ULL;
  void Fold(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  void Fold(const std::string& s) {
    for (char c : s) {
      h = (h ^ static_cast<uint8_t>(c)) * 0x100000001B3ULL;
    }
    h = (h ^ 0xFF) * 0x100000001B3ULL;
  }
};

}  // namespace

ImageKey ImageKey::FromOptions(const BuildOptions& options) {
  const ProtectionConfig& c = options.config;
  ImageKey key;
  key.sfi = c.sfi;
  key.mpx = c.mpx;
  key.spec = c.spec;
  key.diversify = c.diversify;
  key.coarse_kaslr = c.coarse_kaslr;
  key.ra = c.ra;
  key.randomize_registers = c.randomize_registers;
  key.entropy_bits_k = c.entropy_bits_k;
  key.seed = options.seed != 0 ? options.seed : c.seed;
  key.exempt.assign(c.exempt_functions.begin(), c.exempt_functions.end());
  key.layout = options.layout;
  key.verify = options.verify;
  key.max_verify_retries = options.max_verify_retries;
  return key;
}

bool ImageKey::operator==(const ImageKey& other) const {
  return std::tie(sfi, mpx, spec, diversify, coarse_kaslr, ra, randomize_registers,
                  entropy_bits_k, seed, exempt, layout, verify, max_verify_retries) ==
         std::tie(other.sfi, other.mpx, other.spec, other.diversify, other.coarse_kaslr,
                  other.ra, other.randomize_registers, other.entropy_bits_k, other.seed,
                  other.exempt, other.layout, other.verify, other.max_verify_retries);
}

size_t ImageKey::Hash() const {
  Fnv fnv;
  fnv.Fold(static_cast<uint64_t>(sfi));
  fnv.Fold((static_cast<uint64_t>(mpx) << 0) | (static_cast<uint64_t>(diversify) << 1) |
           (static_cast<uint64_t>(coarse_kaslr) << 2) |
           (static_cast<uint64_t>(randomize_registers) << 3) |
           (static_cast<uint64_t>(spec) << 4));
  fnv.Fold(static_cast<uint64_t>(ra));
  fnv.Fold(static_cast<uint64_t>(entropy_bits_k));
  fnv.Fold(seed);
  for (const std::string& fn : exempt) {
    fnv.Fold(fn);
  }
  fnv.Fold(static_cast<uint64_t>(layout));
  fnv.Fold(static_cast<uint64_t>(verify));
  fnv.Fold(static_cast<uint64_t>(max_verify_retries));
  return static_cast<size_t>(fnv.h);
}

std::string ImageKey::DebugString() const {
  std::ostringstream key;
  key << "sfi=" << static_cast<int>(sfi) << ";mpx=" << mpx
      << ";spec=" << static_cast<int>(spec) << ";div=" << diversify
      << ";ckaslr=" << coarse_kaslr << ";ra=" << static_cast<int>(ra)
      << ";regrand=" << randomize_registers << ";k=" << entropy_bits_k << ";seed=" << seed
      << ";layout=" << static_cast<int>(layout) << ";verify=" << static_cast<int>(verify)
      << ";retries=" << max_verify_retries << ";exempt=";
  for (const std::string& fn : exempt) {  // sorted, stable
    key << fn << ',';
  }
  return key.str();
}

}  // namespace krx
