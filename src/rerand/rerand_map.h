// RerandMap: the build-time metadata that makes a linked kernel image
// re-randomizable at runtime.
//
// The pipeline captures, just before linking, everything the live
// re-randomization engine (src/rerand/engine.h) needs to re-lay-out the
// image from scratch during an epoch:
//   - the *pristine* (pre-relocation) text blob with its blob-relative
//     relocation records and per-function extents — krx64 encodings have
//     operand-independent sizes, so rewriting every relocated field never
//     changes layout, and the pristine bytes can be re-placed in any
//     function order;
//   - the xkey slots (one 8-byte return-address key per instrumented
//     function, resident in the execute-only .krx_xkeys section);
//   - the patchable pointer sites: every 8-byte data slot the linker
//     initialized with the address of a symbol (dispatch tables, the
//     syscall table, function-pointer-bearing structs).
// CapturePristineText() derives from the blob, once per build, each
// function's *return sites* (offsets just past every call instruction) —
// the oracle the stack re-encryption walk uses to recognize encrypted
// in-flight return addresses. Finalize() resolves the captured records
// against a linked image; every tenant materialized from the build does so
// again, against the blob it shares.
#ifndef KRX_SRC_RERAND_RERAND_MAP_H_
#define KRX_SRC_RERAND_RERAND_MAP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/kernel/assembler.h"
#include "src/kernel/image.h"
#include "src/kernel/object.h"

namespace krx {

// A movable function: pristine extent (immutable, from the build) plus its
// current placement (updated by every completed epoch).
struct RerandFunction {
  std::string name;
  int32_t symbol = -1;          // index in the image's symbol table
  uint64_t pristine_offset = 0; // extent start within the pristine blob
  uint64_t size = 0;
  uint64_t current_offset = 0;  // extent start within the live .text content
  // Function-relative offsets just past each call instruction: the only
  // places a (decrypted) return address may legitimately point.
  std::vector<uint64_t> return_sites;
};

// One per-function return-address key slot in .krx_xkeys. The slot address
// is fixed (the xkeys section never moves); only its value rotates.
struct RerandXkeySlot {
  int32_t key_symbol = -1;  // the xkey$<fn> data symbol
  int32_t fn_symbol = -1;   // the owning function's symbol (or -1)
  uint64_t vaddr = 0;       // absolute slot address
  std::string fn_name;
};

// An 8-byte data slot the linker initialized with `symbol + addend`. The
// epoch rewrites it to the symbol's post-epoch address — but only if it
// still holds the pre-epoch value (the guest may have overwritten it).
struct RerandPtrSite {
  uint64_t vaddr = 0;   // absolute slot address
  int32_t symbol = -1;
  int64_t addend = 0;
  std::string object;   // owning data object (debugging / objdump)
  uint64_t offset = 0;  // slot offset within the object
};

// A build's pristine text blob plus what every Finalize() of a map over it
// needs from its bytes, derived once by CapturePristineText().
struct PristineText : TextBlob {
  // Parallel to `functions`: function-relative offsets just past each call.
  std::vector<std::vector<uint64_t>> return_sites;
  // Parallel to `relocs`: the index in `functions` of the extent holding
  // the relocated field (an epoch shifts the field with that function).
  std::vector<uint32_t> reloc_owners;
};

// Captures `blob` as a build's immutable pristine text: decodes every
// function extent for its return sites and records the function extent
// each text relocation lies in (an epoch could not shift it otherwise).
// Fails on undecodable bytes inside an extent or on an uncovered
// relocation.
Result<std::shared_ptr<const PristineText>> CapturePristineText(TextBlob blob);

struct RerandMap {
  // Captured by the pipeline before LinkKernel consumes (and relocates) the
  // blob: bytes are pre-relocation, relocs/extents are blob-relative.
  //
  // Sharing contract (multi-tenant fleet, src/fleet): the blob is immutable
  // once captured and may be referenced by many RerandMaps at once — every
  // copy-on-write tenant materialized from the same base build aliases the
  // base's blob instead of carrying its own. Epochs only *read* the pristine
  // bytes (they rebuild the live .text from them); anything that would
  // mutate the blob must copy first. Never null after CompileKernel.
  std::shared_ptr<const PristineText> pristine;

  // Pointer-slot records captured before the data objects are linked away;
  // Finalize() resolves them into ptr_sites.
  struct PendingPtrSite {
    std::string object;
    uint64_t offset = 0;
    int32_t symbol = -1;
    int64_t addend = 0;
  };
  std::vector<PendingPtrSite> pending_ptr_sites;

  // Filled by Finalize().
  std::vector<RerandFunction> functions;
  std::vector<RerandXkeySlot> xkey_slots;
  std::vector<RerandPtrSite> ptr_sites;
  uint64_t text_base = 0;
  uint64_t text_content_size = 0;  // the .text section's content size
  uint64_t text_mapped_size = 0;   // page-aligned capacity of the mapping
  bool finalized = false;

  // Resolves the captured records against the linked image: text placement,
  // function symbols, xkey slots (every defined `xkey$...` symbol), pointer
  // sites, and per-function return sites (from the pristine blob).
  Status Finalize(const KernelImage& image);
};

}  // namespace krx

#endif  // KRX_SRC_RERAND_RERAND_MAP_H_
