// The linked, loaded kernel image: physical memory, page tables, placed
// sections, resolved symbols, and the physmap direct map.
#ifndef KRX_SRC_KERNEL_IMAGE_H_
#define KRX_SRC_KERNEL_IMAGE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/kernel/assembler.h"
#include "src/kernel/layout.h"
#include "src/kernel/object.h"
#include "src/mem/mmu.h"
#include "src/mem/phys_mem.h"

namespace krx {

class XnrState;

struct PlacedSection {
  std::string name;
  SectionKind kind = SectionKind::kData;
  uint64_t vaddr = 0;
  uint64_t size = 0;        // content size
  uint64_t mapped_size = 0; // page-aligned
  uint64_t first_frame = 0;
};

// Name of the R^X violation handler the SFI instrumentation calls.
inline constexpr const char* kKrxHandlerName = "krx_handler";

class KernelImage {
 public:
  KernelImage(LayoutKind layout, uint64_t phys_bytes);
  ~KernelImage();  // out of line: XnrState is incomplete here

  LayoutKind layout() const { return layout_; }
  PhysMem& phys() { return phys_; }
  PageTable& page_table() { return page_table_; }
  const PageTable& page_table() const { return page_table_; }
  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

  // End of the data region under kR^X-KAS; 0 under the vanilla layout.
  uint64_t krx_edata() const { return krx_edata_; }
  void set_krx_edata(uint64_t v) { krx_edata_ = v; }

  const std::vector<PlacedSection>& sections() const { return sections_; }
  const PlacedSection* FindSection(const std::string& name) const;

  // Places a section's content at `vaddr`: allocates frames, copies bytes,
  // maps pages with permissions derived from the section kind (x86
  // semantics; text is mapped executable and therefore also readable).
  Result<PlacedSection*> PlaceSection(const std::string& name, SectionKind kind, uint64_t vaddr,
                                      const std::vector<uint8_t>& bytes,
                                      uint64_t min_size = 0);

  // Maps the entire physical memory at kPhysmapBase (RW, NX): the direct
  // map. Called once before sections are placed.
  void MapPhysmap();

  // Removes the physmap synonyms of every code-region section currently
  // placed (kR^X physmap treatment, §5.1.1). Returns pages unmapped.
  uint64_t UnmapCodeSynonyms();

  // Physmap alias of a physical frame.
  uint64_t PhysmapVaddr(uint64_t frame) const { return kPhysmapBase + (frame << kPageShift); }

  // Kernel dynamic allocation (kmalloc-style, page granularity): allocates
  // frames and returns their physmap virtual address. Kernel stacks and
  // heap objects come from here — i.e. from the readable data region, which
  // is what makes stack harvesting (indirect JIT-ROP) possible.
  Result<uint64_t> AllocDataPages(uint64_t num_pages);

  // Returns `num_pages` pages from AllocDataPages, starting at `vaddr`, to
  // the frame allocator. Nothing may touch them afterwards: they are
  // dropped now and read zero when next handed out.
  void FreeDataPages(uint64_t vaddr, uint64_t num_pages);

  // Maps attacker-controlled *user* pages (U/S = 1, RWX — the attacker owns
  // their own mapping) in the lower canonical half. Used by the ret2usr
  // experiments: with SMEP enabled the kernel cannot fetch from these.
  Result<uint64_t> MapUserPages(uint64_t vaddr, uint64_t num_pages);

  // God-mode accessors for setup/inspection that bypass permissions (used
  // by the loader and the test harness, never by simulated code).
  Status PokeBytes(uint64_t vaddr, const uint8_t* src, uint64_t len);
  Status PeekBytes(uint64_t vaddr, uint8_t* dst, uint64_t len) const;
  Result<uint64_t> Peek64(uint64_t vaddr) const;
  Status Poke64(uint64_t vaddr, uint64_t value);

  // Overwrites every xkey slot with fresh random values. Boot-time only:
  // it does not re-encrypt return addresses already on live stacks, so any
  // in-flight call chain would decrypt with the wrong key afterwards. For
  // live rotation use the re-randomization engine (src/rerand/engine.h),
  // whose kRotateKeys + kRewriteStacks steps rotate the keys *and* rewrite
  // the encrypted return addresses under quiescence.
  Status ReplenishXkeys(Rng& rng);

  // Bump allocators for module placement.
  Result<uint64_t> AllocModuleText(uint64_t size);
  Result<uint64_t> AllocModuleData(uint64_t size);

  // Snapshot/restore of the module-region bump cursors: a transactional
  // module load saves them up front and restores them on rollback, so a
  // failed load leaks no module address space.
  struct ModuleCursors {
    uint64_t text = 0;
    uint64_t data = 0;
  };
  ModuleCursors module_cursors() const { return {module_text_cursor_, module_data_cursor_}; }
  void RestoreModuleCursors(ModuleCursors c) {
    module_text_cursor_ = c.text;
    module_data_cursor_ = c.data;
  }

  // Unmaps a placed section, fills its frames with `fill`, and forgets it.
  // The physical frames are deliberately not freed: they keep the fill
  // (the tripwire byte for text), so a stale pointer into the old section
  // traps instead of running whatever reused the frames. Used by module
  // unload and load rollback.
  Status RemoveSection(const std::string& name, uint8_t fill = 0);

  // Region queries.
  bool InCodeRegion(uint64_t addr) const;

  // ---- Text-generation counter (predecoded-block-cache invalidation). ----
  //
  // Monotonic counter bumped on every event that can change the bytes an
  // instruction fetch would observe, or their fetchability: host-side pokes
  // that touch a code frame, section placement/removal (module load/unload,
  // fault-injector corruption goes through PokeBytes), new executable
  // mappings, and guest stores that write executable frames (the Cpu checks
  // each store's frames with FrameIsCode). Block caches tag entries with
  // the generation they decoded under and drop them on mismatch, so cached
  // execution stays bit-identical to the uncached interpreter. Atomic: the
  // parallel bench driver runs many Cpus over one shared image.
  uint64_t text_generation() const {
    return text_generation_.load(std::memory_order_acquire);
  }
  void BumpTextGeneration() { text_generation_.fetch_add(1, std::memory_order_acq_rel); }

  // True when `frame` backs executable pages — i.e. a data write to it is
  // (possibly synonym-mediated) self-modification of code.
  bool FrameIsCode(uint64_t frame) const;

  // XnR baseline-defense state (see src/kernel/baseline_defenses.h); null
  // unless EnableXnr() was called on this image.
  XnrState* xnr() { return xnr_.get(); }
  void set_xnr(std::unique_ptr<XnrState> state);

  // Heisenbyte/NEAR-style destructive code reads (§8): when enabled, a data
  // read of an executable page succeeds but garbles the bytes it returned,
  // so disclosed gadgets cannot be executed afterwards.
  bool destructive_code_reads() const { return destructive_code_reads_; }
  void set_destructive_code_reads(bool on) { destructive_code_reads_ = on; }

 private:
  LayoutKind layout_;
  PhysMem phys_;
  PageTable page_table_;
  SymbolTable symbols_;
  std::vector<PlacedSection> sections_;
  uint64_t krx_edata_ = 0;
  bool physmap_mapped_ = false;

  uint64_t module_text_cursor_ = 0;
  uint64_t module_data_cursor_ = 0;
  std::unique_ptr<XnrState> xnr_;
  bool destructive_code_reads_ = false;

  std::atomic<uint64_t> text_generation_{0};
  // Frame ranges [first, end) backing executable mappings (.text, module
  // text, user RWX pages). A handful of entries; linear scan.
  std::vector<std::pair<uint64_t, uint64_t>> code_frame_ranges_;
};

// Links a compiled kernel (text blob + extra code-region sections + data
// objects) into a KernelImage.
struct KernelLinkInput {
  TextBlob text;
  std::vector<uint8_t> xkeys;     // empty unless return-address encryption
  // Offsets of each per-function xkey symbol within the xkeys section.
  std::vector<std::pair<int32_t, uint64_t>> xkey_symbols;
  std::vector<DataObject> data_objects;
  uint64_t phantom_guard_size = kDefaultPhantomGuardSize;
  uint64_t phys_bytes = 64ULL << 20;
  // Coarse-KASLR slide: page-aligned offset added to the image placement
  // (and, under kR^X-KAS, to the code-region placement above _krx_edata).
  uint64_t kaslr_slide = 0;
};

Result<std::unique_ptr<KernelImage>> LinkKernel(LayoutKind layout, KernelLinkInput input,
                                                SymbolTable symbols);

// The bytes one relocated field holds, little-endian: 4 for kRel32, 8 for
// kAbs64.
struct RelocField {
  uint8_t bytes[8] = {};
  uint32_t size = 0;
};

// Resolves `r` for a section placed at `section_base`. Fails on an invalid
// or undefined symbol and on a rel32 displacement out of range.
Result<RelocField> ResolveReloc(const Reloc& r, uint64_t section_base,
                                const SymbolTable& symbols);

// Applies `relocs` to `bytes` given the final section base address.
Status ApplyRelocs(std::vector<uint8_t>& bytes, const std::vector<Reloc>& relocs,
                   uint64_t section_base, const SymbolTable& symbols);

}  // namespace krx

#endif  // KRX_SRC_KERNEL_IMAGE_H_
