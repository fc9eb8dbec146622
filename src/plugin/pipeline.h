// The kR^X toolchain pipeline: the reproduction's equivalent of
// GCC -fplugin=krx -fplugin=kaslr + binutils + the patched kernel build.
//
// Pass order follows §6: the krx (R^X) instrumentation runs first, then
// return-address protection, and code block slicing/permutation is the
// final step. Function permutation happens at assembly time by shuffling
// the order in which functions are laid out in .text.
#ifndef KRX_SRC_PLUGIN_PIPELINE_H_
#define KRX_SRC_PLUGIN_PIPELINE_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/ir/function.h"
#include "src/kernel/image.h"
#include "src/kernel/module_loader.h"
#include "src/kernel/object.h"
#include "src/plugin/kaslr_pass.h"
#include "src/plugin/pass_config.h"
#include "src/plugin/ra_decoy_pass.h"
#include "src/plugin/ra_encrypt_pass.h"
#include "src/plugin/reg_rand_pass.h"
#include "src/plugin/sfi_pass.h"
#include "src/rerand/rerand_map.h"

namespace krx {

// A kernel "source tree": IR functions plus data objects. Symbols referenced
// by the functions (call targets, data) must be interned in `symbols`.
struct KernelSource {
  std::vector<Function> functions;
  std::vector<DataObject> data_objects;
  SymbolTable symbols;
  uint64_t phys_bytes = 64ULL << 20;
};

struct PipelineStats {
  SfiStats sfi;
  KaslrStats kaslr;
  DecoyStats decoy;
  RegRandStats reg_rand;
  uint64_t functions = 0;
  uint64_t instrumented_functions = 0;
  uint64_t xkeys = 0;
  uint64_t phantom_guard_size = 0;
  // How many post-link-verify failures CompileKernel recovered from by
  // rebuilding with a rotated diversification seed (0 on a clean build).
  uint64_t verify_retries = 0;
  // Per-function SFI census (function name -> that function's SfiStats),
  // in instrumentation order. Drives the per-function elided/kept/hoisted
  // tables in krx_objdump/krx_verify and the O4 check-census benches.
  std::vector<std::pair<std::string, SfiStats>> per_function;
};

// A build's pre-link inputs: the pristine (pre-relocation) text blob plus
// everything else LinkKernel consumes. CompileKernel links its own image
// from them (LinkFromArtifacts), and a copy-on-write tenant materialization
// (src/fleet) re-links a private image from the same object without
// re-running the expensive protect/assemble phases. Immutable once
// captured; shared across every tenant of a pristine group — the
// `pristine` pointer here is the *same object* each tenant's RerandMap
// aliases, which is what makes the per-tenant cost the relocated image,
// not a private copy of the blob.
struct LinkArtifacts {
  std::shared_ptr<const PristineText> pristine;
  std::vector<uint8_t> xkeys;  // zero template; each link replenishes keys
  std::vector<std::pair<int32_t, uint64_t>> xkey_symbols;
  std::vector<DataObject> data_objects;
  std::vector<RerandMap::PendingPtrSite> pending_ptr_sites;
  SymbolTable symbols;  // pre-link (no addresses bound)
  uint64_t phantom_guard_size = 0;
  uint64_t phys_bytes = 0;

  // Host-side footprint of the shared artifacts — what the naive
  // copy-per-tenant baseline would duplicate per tenant.
  uint64_t ApproxBytes() const;
};

struct CompiledKernel {
  std::unique_ptr<KernelImage> image;
  PipelineStats stats;
  ProtectionConfig config;
  LayoutKind layout = LayoutKind::kVanilla;
  // Live re-randomization metadata (pristine text, function extents, xkey
  // slots, patchable pointer sites) — what RerandEngine epochs consume.
  // Always populated; shared so engines and tools can outlive moves of the
  // CompiledKernel wrapper.
  std::shared_ptr<RerandMap> rerand;
  // Pre-link artifacts for CoW tenant materialization. Always populated by
  // CompileKernel; tenants materialized from this build alias the same
  // object (never copy it).
  std::shared_ptr<const LinkArtifacts> artifacts;
};

// The _krx_edata value the instrumentation will compare against, given the
// guard size the pipeline chooses. Exposed for tests.
int64_t ComputeEdata(uint64_t phantom_guard_size);

// Applies the configured passes to the functions in place; returns the
// xkey layout (encryption scheme) and accumulated statistics.
Status ApplyProtection(std::vector<Function>& functions, SymbolTable& symbols,
                       const ProtectionConfig& config, int64_t edata_imm, XkeyLayout* xkeys,
                       PipelineStats* stats, Rng& rng);

// Upper bound on rebuild attempts after a post-link verification failure.
inline constexpr int kMaxVerifyRetries = 3;

// Everything that parameterizes a kernel build, in one place. Replaces the
// old positional (config, layout) signature; call sites read
//   CompileKernel(src, {config, layout})
// or spell fields out for the less common knobs:
//   CompileKernel(src, {.config = cfg, .layout = LayoutKind::kKrx,
//                       .seed = s, .verify = BuildOptions::Verify::kOff})
struct BuildOptions {
  ProtectionConfig config;
  LayoutKind layout = LayoutKind::kVanilla;
  // Nonzero overrides config.seed — the compiled-kernel cache and bench
  // matrices sweep seeds without cloning whole configs.
  uint64_t seed = 0;
  // Post-link verification policy. kDefault consults the process-wide
  // setting (KRX_POST_LINK_VERIFY / SetPostLinkVerify); kOn / kOff force it
  // for this build only.
  enum class Verify : uint8_t { kDefault, kOn, kOff };
  Verify verify = Verify::kDefault;

  // The same build with the seed override folded in: config.seed holds the
  // effective diversification seed and `seed` is 0. Two options that
  // resolve equal ask for the same build; KernelCache keys on this.
  BuildOptions Resolved() const;

  auto operator<=>(const BuildOptions&) const = default;
};

// Full build: transform, permute, assemble, link, replenish xkeys — then,
// when post-link verification is enabled, prove the kR^X contract on the
// linked bytes with the src/verify checker and fail the build on violations.
// A verify failure is retried up to kMaxVerifyRetries times with the next
// diversification seed (bounded, logged to stderr) before the build fails.
Result<CompiledKernel> CompileKernel(KernelSource source, const BuildOptions& options);

// The link tail every kernel build ends with; CompileKernel and the fleet's
// MaterializeTenant both call it. Links a copy of out->artifacts' pristine
// text under out->layout with `phys_bytes` of physical memory (0 keeps the
// artifacts' size), slid by a coarse-KASLR draw from `rng` when out->config
// asks for one, fills the xkeys from rng.Fork(), and sets out->image and
// out->rerand (a map that aliases the pristine blob, finalized against the
// image). Each caller seeds `rng` itself, so each keeps its own stream.
Status LinkFromArtifacts(CompiledKernel* out, uint64_t phys_bytes, Rng& rng);

// Test hook: runs on the linked image just before the post-link verifier,
// with the zero-based build attempt number. Lets the fault tests corrupt
// selected attempts to exercise the retry path. Pass nullptr to clear.
void SetPostLinkMutatorForTest(std::function<void(KernelImage&, int attempt)> mutator);

// Post-link verification toggle. Defaults to the KRX_POST_LINK_VERIFY
// environment variable ("1"/"0"); SetPostLinkVerify overrides it for the
// process. The test suite runs with it on.
bool PostLinkVerifyEnabled();
void SetPostLinkVerify(bool enabled);

// Compiles a module object against a (shared) kernel symbol table with its
// own protection config — kR^X supports mixed protected/unprotected code
// (§6). Under return-address encryption the module's xkeys are appended to
// its .text (the only execute-only memory a module owns) and replenished by
// the loader at load time.
Result<ModuleObject> CompileModule(const std::string& name, std::vector<Function> functions,
                                   std::vector<DataObject> data_objects, SymbolTable& symbols,
                                   const ProtectionConfig& config);

}  // namespace krx

#endif  // KRX_SRC_PLUGIN_PIPELINE_H_
