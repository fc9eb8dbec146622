// kR^X-KAS-aware module loader-linker (§5.1.1 "Kernel Modules").
//
// A module arrives as a compiled object (text blob + data objects). Loading
// slices the .text from the data sections: under kR^X-KAS the text lands in
// modules_text, all other allocatable sections in modules_data; under the
// vanilla layout the two are placed back-to-back in the single modules
// region. Relocation and symbol binding are eager. Unloading zaps the text
// (preventing code-layout inference, §5.1.1 "Physmap"), zeroes the module's
// xkeys, and restores the physmap synonyms that were removed at load time.
//
// Load is transactional: a failure at any step — allocator exhaustion,
// symbol redefinition, relocation overflow, placement failure — rolls the
// image back completely (no dangling symbols, no leaked modules_text
// address space, physmap synonym state restored). set_failpoint() lets the
// fault-injection campaign interpose a failure before any step.
#ifndef KRX_SRC_KERNEL_MODULE_LOADER_H_
#define KRX_SRC_KERNEL_MODULE_LOADER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/kernel/image.h"

namespace krx {

struct ModuleObject {
  std::string name;
  TextBlob text;
  std::vector<DataObject> data_objects;
  // Non-function symbols defined inside the text blob (module-local xkeys:
  // they must live in the execute-only region, so they ride along with the
  // module's .text and are replenished at load time).
  std::vector<std::pair<int32_t, uint64_t>> text_symbol_offsets;
  uint64_t xkey_bytes = 0;  // size of the trailing xkey area in `text`
};

struct LoadedModule {
  std::string name;
  uint64_t text_vaddr = 0;
  uint64_t text_size = 0;
  uint64_t data_vaddr = 0;
  uint64_t data_size = 0;
  uint64_t text_first_frame = 0;
  uint64_t text_pages = 0;
  uint64_t xkey_bytes = 0;       // trailing xkey area (zeroed on unload)
  std::vector<int32_t> symbols;  // symbols this module defined
  // Relocations retained past load so a re-randomization epoch can re-patch
  // the module's references to moved kernel functions: text relocs (fields
  // are guest-immutable under R^X, recomputed unconditionally) and data
  // pointer-slot relocs (conditional — the module may overwrite its own
  // data). Cleared on unload.
  std::vector<Reloc> text_relocs;
  std::vector<Reloc> data_relocs;
  bool loaded = false;
};

// The interposable steps of a module load, in execution order. A failpoint
// set to one of these makes the next Load fail *before* that step runs.
enum class ModuleLoadStep : uint8_t {
  kAllocText = 0,   // carve modules_text address space
  kAllocData,       // carve modules_data address space
  kBindSymbols,     // define text/function/data symbols
  kRelocate,        // apply text + data relocations
  kPlaceText,       // allocate frames + map the text section
  kPlaceData,       // allocate frames + map the data section
  kReplenishXkeys,  // fill the module's xkeys with fresh keys
  kUnmapSynonyms,   // remove the text pages' physmap synonyms
  kNumSteps,
};

const char* ModuleLoadStepName(ModuleLoadStep step);

class ModuleLoader {
 public:
  explicit ModuleLoader(KernelImage* image, uint64_t key_seed = 0x6b6579)
      : image_(image), key_rng_(key_seed) {}

  // Loads the module; binds its relocations against the kernel symbol
  // table; returns a handle index. On any failure the load is rolled back
  // completely before the error is returned.
  Result<int32_t> Load(const ModuleObject& module);

  Status Unload(int32_t handle);

  // Fault injection: every subsequent Load fails just before `step`
  // (sticky until clear_failpoint). Models allocator exhaustion /
  // relocation failure mid-load.
  void set_failpoint(ModuleLoadStep step) { failpoint_ = static_cast<int>(step); }
  void clear_failpoint() { failpoint_ = -1; }

  const LoadedModule& module(int32_t handle) const {
    return modules_[static_cast<size_t>(handle)];
  }
  size_t module_count() const { return modules_.size(); }

 private:
  // What a module has placed so far. A failed load passes its progress;
  // Unload passes the whole of a loaded module.
  struct Placed {
    bool text = false;               // .text$<name> mapped in the code region
    bool data = false;               // .data$<name> mapped
    bool synonyms_unmapped = false;  // text frames' physmap synonyms removed
  };

  // The one teardown, in Unload's order: zap the text with the pad byte,
  // zero the xkey tail, drop the data section, remap the physmap synonyms,
  // undefine `lm.symbols`. The bump cursors are the failed load's to
  // restore.
  Status Teardown(const LoadedModule& lm, const Placed& placed);

  KernelImage* image_;
  Rng key_rng_;
  std::vector<LoadedModule> modules_;
  int failpoint_ = -1;
};

}  // namespace krx

#endif  // KRX_SRC_KERNEL_MODULE_LOADER_H_
