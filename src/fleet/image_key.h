// ImageKey: the typed identity of a compiled kernel image.
//
// Replaces the old stringly-typed KernelCache::Key(BuildOptions) ->
// std::string. An ImageKey carries exactly the fields that change the
// emitted image — every build-relevant ProtectionConfig knob, the layout,
// the effective diversification seed, and the verify policy — as typed
// values with operator== and a std::hash specialization, so the
// compiled-image store (src/fleet/kernel_cache.h) can key and dedupe on it
// directly. The serialized string form survives only as
// DebugString(), a debug formatter for krx_objdump/stats output.
#ifndef KRX_SRC_FLEET_IMAGE_KEY_H_
#define KRX_SRC_FLEET_IMAGE_KEY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/plugin/pipeline.h"

namespace krx {

struct ImageKey {
  // Build-relevant ProtectionConfig fields (everything that changes the
  // emitted bytes).
  SfiLevel sfi = SfiLevel::kNone;
  bool mpx = false;
  SpecMitigation spec = SpecMitigation::kNone;
  bool diversify = false;
  bool coarse_kaslr = false;
  RaScheme ra = RaScheme::kNone;
  bool randomize_registers = false;
  int entropy_bits_k = 0;
  uint64_t seed = 0;  // effective: BuildOptions::seed when nonzero, else config.seed
  std::vector<std::string> exempt;  // sorted (std::set order preserved)

  // Link / policy fields.
  LayoutKind layout = LayoutKind::kVanilla;
  BuildOptions::Verify verify = BuildOptions::Verify::kDefault;
  int max_verify_retries = 0;

  static ImageKey FromOptions(const BuildOptions& options);

  bool operator==(const ImageKey& other) const;
  bool operator!=(const ImageKey& other) const { return !(*this == other); }
  size_t Hash() const;

  // The legacy serialized form ("sfi=3;mpx=0;..."), kept only as a debug
  // formatter (krx_objdump --stats, fleet stats dumps). Never used as a
  // map key.
  std::string DebugString() const;
};

}  // namespace krx

namespace std {
template <>
struct hash<krx::ImageKey> {
  size_t operator()(const krx::ImageKey& key) const { return key.Hash(); }
};
}  // namespace std

#endif  // KRX_SRC_FLEET_IMAGE_KEY_H_
