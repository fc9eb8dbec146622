#include "src/kernel/image.h"

#include <cstring>

#include "src/base/math_util.h"
#include "src/kernel/baseline_defenses.h"

namespace krx {
namespace {

PteFlags FlagsForSection(SectionKind kind) {
  PteFlags f;
  f.present = true;
  switch (kind) {
    case SectionKind::kText:
      f.writable = false;
      f.nx = false;  // executable — and therefore readable (x86 semantics)
      break;
    case SectionKind::kRodata:
    case SectionKind::kXkeys:
    case SectionKind::kExTable:
    case SectionKind::kPhantomGuard:
      f.writable = false;
      f.nx = true;
      break;
    case SectionKind::kData:
    case SectionKind::kBss:
      f.writable = true;
      f.nx = true;
      break;
  }
  return f;
}

}  // namespace

KernelImage::KernelImage(LayoutKind layout, uint64_t phys_bytes)
    : layout_(layout), phys_(phys_bytes) {}

KernelImage::~KernelImage() = default;

void KernelImage::set_xnr(std::unique_ptr<XnrState> state) { xnr_ = std::move(state); }

const PlacedSection* KernelImage::FindSection(const std::string& name) const {
  for (const PlacedSection& s : sections_) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

Result<PlacedSection*> KernelImage::PlaceSection(const std::string& name, SectionKind kind,
                                                 uint64_t vaddr,
                                                 const std::vector<uint8_t>& bytes,
                                                 uint64_t min_size) {
  KRX_CHECK(PageOffset(vaddr) == 0);
  uint64_t size = std::max<uint64_t>(bytes.size(), min_size);
  uint64_t mapped = AlignUp(std::max<uint64_t>(size, 1), kPageSize);
  auto frames = phys_.AllocFrames(mapped >> kPageShift);
  if (!frames.ok()) {
    return frames.status();
  }
  if (!bytes.empty()) {
    phys_.WriteBytes(*frames << kPageShift, bytes.data(), bytes.size());
  }
  page_table_.MapRange(vaddr, *frames, mapped >> kPageShift, FlagsForSection(kind));
  sections_.push_back(PlacedSection{name, kind, vaddr, size, mapped, *frames});
  if (kind == SectionKind::kText) {
    code_frame_ranges_.emplace_back(*frames, *frames + (mapped >> kPageShift));
  }
  // New mapped bytes: any block cache predecoded before this placement is
  // stale (a previously-unfetchable %rip may now decode).
  BumpTextGeneration();
  return &sections_.back();
}

Status KernelImage::RemoveSection(const std::string& name, uint8_t fill) {
  for (size_t i = 0; i < sections_.size(); ++i) {
    if (sections_[i].name != name) {
      continue;
    }
    const PlacedSection s = sections_[i];
    phys_.Fill(s.first_frame << kPageShift, fill, s.mapped_size);
    page_table_.UnmapRange(s.vaddr, s.mapped_size >> kPageShift);
    sections_.erase(sections_.begin() + static_cast<std::ptrdiff_t>(i));
    if (s.kind == SectionKind::kText) {
      const uint64_t end = s.first_frame + (s.mapped_size >> kPageShift);
      for (size_t r = 0; r < code_frame_ranges_.size(); ++r) {
        if (code_frame_ranges_[r].first == s.first_frame &&
            code_frame_ranges_[r].second == end) {
          code_frame_ranges_.erase(code_frame_ranges_.begin() +
                                   static_cast<std::ptrdiff_t>(r));
          break;
        }
      }
    }
    // Unmapped (and zapped) code: stale predecoded blocks must not replay.
    BumpTextGeneration();
    return Status::Ok();
  }
  return NotFoundError("no such section: " + name);
}

void KernelImage::MapPhysmap() {
  KRX_CHECK(!physmap_mapped_);
  PteFlags f;
  f.present = true;
  f.writable = true;
  f.nx = true;
  page_table_.MapRange(kPhysmapBase, 0, phys_.num_frames(), f);
  physmap_mapped_ = true;
}

uint64_t KernelImage::UnmapCodeSynonyms() {
  uint64_t unmapped = 0;
  for (const PlacedSection& s : sections_) {
    if (!SectionKindIsCodeRegion(s.kind)) {
      continue;
    }
    page_table_.UnmapRange(PhysmapVaddr(s.first_frame), s.mapped_size >> kPageShift);
    unmapped += s.mapped_size >> kPageShift;
  }
  return unmapped;
}

Result<uint64_t> KernelImage::AllocDataPages(uint64_t num_pages) {
  auto frames = phys_.AllocFrames(num_pages);
  if (!frames.ok()) {
    return frames.status();
  }
  KRX_CHECK(physmap_mapped_);
  return PhysmapVaddr(*frames);
}

void KernelImage::FreeDataPages(uint64_t vaddr, uint64_t num_pages) {
  KRX_CHECK(physmap_mapped_ && vaddr >= kPhysmapBase && PageOffset(vaddr) == 0);
  phys_.FreeFrames((vaddr - kPhysmapBase) >> kPageShift, num_pages);
}

Result<uint64_t> KernelImage::MapUserPages(uint64_t vaddr, uint64_t num_pages) {
  KRX_CHECK(PageOffset(vaddr) == 0);
  KRX_CHECK(vaddr < 0x0000800000000000ULL);  // lower canonical half
  auto frames = phys_.AllocFrames(num_pages);
  if (!frames.ok()) {
    return frames.status();
  }
  PteFlags f;
  f.present = true;
  f.writable = true;
  f.nx = false;
  f.user = true;
  page_table_.MapRange(vaddr, *frames, num_pages, f);
  // User pages are RWX: their frames back executable mappings, so writes to
  // them are self-modification and new mappings invalidate block caches.
  code_frame_ranges_.emplace_back(*frames, *frames + num_pages);
  BumpTextGeneration();
  return vaddr;
}

bool KernelImage::FrameIsCode(uint64_t frame) const {
  for (const auto& [first, end] : code_frame_ranges_) {
    if (frame >= first && frame < end) {
      return true;
    }
  }
  return false;
}

Status KernelImage::PokeBytes(uint64_t vaddr, const uint8_t* src, uint64_t len) {
  bool touched_code = false;
  for (uint64_t done = 0; done < len;) {
    const std::optional<Pte> pte = page_table_.Lookup(vaddr + done);
    if (!pte) {
      return NotFoundError("poke to unmapped address");
    }
    uint64_t in_page = kPageSize - PageOffset(vaddr + done);
    uint64_t n = std::min(in_page, len - done);
    phys_.WriteBytes((pte->frame << kPageShift) | PageOffset(vaddr + done), src + done, n);
    touched_code = touched_code || FrameIsCode(pte->frame);
    done += n;
  }
  if (touched_code) {
    BumpTextGeneration();
  }
  return Status::Ok();
}

Status KernelImage::PeekBytes(uint64_t vaddr, uint8_t* dst, uint64_t len) const {
  for (uint64_t done = 0; done < len;) {
    const std::optional<Pte> pte = page_table_.Lookup(vaddr + done);
    if (!pte) {
      return NotFoundError("peek of unmapped address");
    }
    uint64_t in_page = kPageSize - PageOffset(vaddr + done);
    uint64_t n = std::min(in_page, len - done);
    phys_.ReadBytes((pte->frame << kPageShift) | PageOffset(vaddr + done), dst + done, n);
    done += n;
  }
  return Status::Ok();
}

Result<uint64_t> KernelImage::Peek64(uint64_t vaddr) const {
  uint64_t v = 0;
  KRX_RETURN_IF_ERROR(PeekBytes(vaddr, reinterpret_cast<uint8_t*>(&v), 8));
  return v;
}

Status KernelImage::Poke64(uint64_t vaddr, uint64_t value) {
  return PokeBytes(vaddr, reinterpret_cast<const uint8_t*>(&value), 8);
}

Status KernelImage::ReplenishXkeys(Rng& rng) {
  const PlacedSection* s = FindSection(".krx_xkeys");
  if (s == nullptr) {
    return Status::Ok();  // No encryption scheme in this build.
  }
  for (uint64_t off = 0; off + 8 <= s->size; off += 8) {
    uint64_t key = 0;
    while (key == 0) {
      key = rng.Next();
    }
    phys_.Write64((s->first_frame << kPageShift) + off, key);
  }
  return Status::Ok();
}

Result<uint64_t> KernelImage::AllocModuleText(uint64_t size) {
  uint64_t aligned = AlignUp(std::max<uint64_t>(size, 1), kPageSize);
  uint64_t limit = layout_ == LayoutKind::kKrx ? kKrxModulesTextLen : kVanillaModulesLen;
  uint64_t base = layout_ == LayoutKind::kKrx ? kKrxModulesTextBase : kVanillaModulesBase;
  // The (correct form of the) module_alloc() sanity check from Appendix A.
  if (size > limit || module_text_cursor_ + aligned > limit) {
    return ResourceExhaustedError("modules_text region exhausted");
  }
  uint64_t vaddr = base + module_text_cursor_;
  module_text_cursor_ += aligned;
  return vaddr;
}

Result<uint64_t> KernelImage::AllocModuleData(uint64_t size) {
  uint64_t aligned = AlignUp(std::max<uint64_t>(size, 1), kPageSize);
  if (layout_ == LayoutKind::kVanilla) {
    // Vanilla layout interleaves module text and data in one region.
    if (module_text_cursor_ + aligned > kVanillaModulesLen) {
      return ResourceExhaustedError("modules region exhausted");
    }
    uint64_t vaddr = kVanillaModulesBase + module_text_cursor_;
    module_text_cursor_ += aligned;
    return vaddr;
  }
  if (size > kKrxModulesDataLen || module_data_cursor_ + aligned > kKrxModulesDataLen) {
    return ResourceExhaustedError("modules_data region exhausted");
  }
  uint64_t vaddr = kKrxModulesDataBase + module_data_cursor_;
  module_data_cursor_ += aligned;
  return vaddr;
}

bool KernelImage::InCodeRegion(uint64_t addr) const {
  if (layout_ != LayoutKind::kKrx) {
    const PlacedSection* text = FindSection(".text");
    return text != nullptr && addr >= text->vaddr && addr < text->vaddr + text->mapped_size;
  }
  return addr >= krx_edata_;
}

Result<RelocField> ResolveReloc(const Reloc& r, uint64_t section_base,
                                const SymbolTable& symbols) {
  if (r.symbol < 0 || static_cast<size_t>(r.symbol) >= symbols.size()) {
    return InternalError("relocation against invalid symbol index");
  }
  const Symbol& sym = symbols.at(r.symbol);
  if (!sym.defined) {
    return NotFoundError("relocation against undefined symbol: " + sym.name);
  }
  RelocField field;
  switch (r.kind) {
    case RelocKind::kRel32: {
      int64_t rel = static_cast<int64_t>(sym.address) -
                    static_cast<int64_t>(section_base + r.inst_end_offset);
      if (rel < INT32_MIN || rel > INT32_MAX) {
        return OutOfRangeError("rel32 overflow to symbol " + sym.name +
                               " (violates -mcmodel=kernel 2GB constraint)");
      }
      int32_t rel32 = static_cast<int32_t>(rel);
      std::memcpy(field.bytes, &rel32, 4);
      field.size = 4;
      break;
    }
    case RelocKind::kAbs64: {
      uint64_t value = sym.address + static_cast<uint64_t>(r.addend);
      std::memcpy(field.bytes, &value, 8);
      field.size = 8;
      break;
    }
  }
  return field;
}

Status ApplyRelocs(std::vector<uint8_t>& bytes, const std::vector<Reloc>& relocs,
                   uint64_t section_base, const SymbolTable& symbols) {
  for (const Reloc& r : relocs) {
    Result<RelocField> field = ResolveReloc(r, section_base, symbols);
    if (!field.ok()) {
      return field.status();
    }
    KRX_CHECK(r.field_offset + field->size <= bytes.size());
    std::memcpy(bytes.data() + r.field_offset, field->bytes, field->size);
  }
  return Status::Ok();
}

namespace {

// Concatenates data objects of one kind into a section blob, 16-byte
// aligning each object; defines its symbol and rewrites pointer-slot
// initializers as section-relative Abs64 relocs.
struct DataSectionBuild {
  std::vector<uint8_t> bytes;
  uint64_t bss_size = 0;
  std::vector<Reloc> relocs;
  struct SymLoc {
    int32_t symbol;
    uint64_t offset;
    uint64_t size;
  };
  std::vector<SymLoc> symbol_offsets;
};

DataSectionBuild BuildDataSection(const std::vector<DataObject>& objects, SectionKind kind,
                                  SymbolTable& symbols) {
  DataSectionBuild out;
  uint64_t cursor = 0;
  for (const DataObject& obj : objects) {
    if (obj.kind != kind) {
      continue;
    }
    cursor = AlignUp(cursor, 16);
    int32_t sym = symbols.Intern(obj.name, SymbolKind::kData);
    out.symbol_offsets.push_back({sym, cursor, obj.bytes.size()});
    if (kind == SectionKind::kBss) {
      KRX_CHECK(obj.pointer_slots.empty());
      cursor += obj.bytes.size();
      out.bss_size = cursor;
      continue;
    }
    out.bytes.resize(cursor, 0);
    out.bytes.insert(out.bytes.end(), obj.bytes.begin(), obj.bytes.end());
    for (const DataObject::PtrInit& p : obj.pointer_slots) {
      out.relocs.push_back(Reloc{RelocKind::kAbs64, cursor + p.offset, 0, p.symbol, p.addend});
    }
    cursor += obj.bytes.size();
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<KernelImage>> LinkKernel(LayoutKind layout, KernelLinkInput input,
                                                SymbolTable symbols) {
  auto image = std::make_unique<KernelImage>(layout, input.phys_bytes);
  image->MapPhysmap();

  DataSectionBuild rodata = BuildDataSection(input.data_objects, SectionKind::kRodata, symbols);
  DataSectionBuild data = BuildDataSection(input.data_objects, SectionKind::kData, symbols);
  DataSectionBuild bss = BuildDataSection(input.data_objects, SectionKind::kBss, symbols);
  // Code-pointer-bearing tables (__ex_table, __jump_table, ...): under
  // kR^X-KAS they are placed in the code region and marked non-executable
  // (footnote 5), so they can be neither harvested nor executed.
  DataSectionBuild extable = BuildDataSection(input.data_objects, SectionKind::kExTable, symbols);

  // ---- Assign section base addresses. ----
  uint64_t text_base, xkeys_base, rodata_base, data_base, bss_base, guard_base = 0;
  uint64_t extable_base = 0;
  uint64_t edata = 0;
  auto bump = [](uint64_t& cursor, uint64_t size) {
    uint64_t base = cursor;
    cursor = AlignUp(cursor + std::max<uint64_t>(size, 1), kPageSize);
    return base;
  };
  KRX_CHECK(PageOffset(input.kaslr_slide) == 0);
  if (layout == LayoutKind::kVanilla) {
    // Conventional order: .text at the beginning of the image (§5.1.1).
    uint64_t cursor = kImageBase + input.kaslr_slide;
    text_base = bump(cursor, input.text.bytes.size());
    xkeys_base = input.xkeys.empty() ? 0 : bump(cursor, input.xkeys.size());
    extable_base = extable.bytes.empty() ? 0 : bump(cursor, extable.bytes.size());
    rodata_base = bump(cursor, rodata.bytes.size());
    data_base = bump(cursor, data.bytes.size());
    bss_base = bump(cursor, bss.bss_size);
  } else {
    // kR^X-KAS: flipped image — data sections at the image base, .text at
    // the end (the code region); .krx_phantom guard in between. A coarse
    // slide moves placements inside the fixed regions, so _krx_edata (and
    // the range checks that hard-code it) stay valid.
    uint64_t cursor = kImageBase + input.kaslr_slide;
    rodata_base = bump(cursor, rodata.bytes.size());
    data_base = bump(cursor, data.bytes.size());
    bss_base = bump(cursor, bss.bss_size);
    uint64_t guard = AlignUp(std::max<uint64_t>(input.phantom_guard_size, kPageSize), kPageSize);
    guard_base = kKrxCodeBase - guard;
    edata = guard_base;
    uint64_t code_cursor = kKrxCodeBase + input.kaslr_slide;
    xkeys_base = input.xkeys.empty() ? 0 : bump(code_cursor, input.xkeys.size());
    extable_base = extable.bytes.empty() ? 0 : bump(code_cursor, extable.bytes.size());
    text_base = bump(code_cursor, input.text.bytes.size());
  }

  // ---- Define symbols. ----
  for (const AssembledFunction& f : input.text.functions) {
    int32_t idx = symbols.Intern(f.name, SymbolKind::kFunction);
    Symbol& s = symbols.at(idx);
    if (s.defined) {
      return AlreadyExistsError("duplicate function symbol: " + f.name);
    }
    s.defined = true;
    s.address = text_base + f.offset;
    s.size = f.size;
  }
  for (auto [sym, off] : input.xkey_symbols) {
    Symbol& s = symbols.at(sym);
    s.defined = true;
    s.address = xkeys_base + off;
    s.size = 8;
  }
  auto define_data_syms = [&](const DataSectionBuild& b, uint64_t base) {
    for (const auto& loc : b.symbol_offsets) {
      Symbol& s = symbols.at(loc.symbol);
      s.defined = true;
      s.address = base + loc.offset;
      s.size = loc.size;
    }
  };
  define_data_syms(rodata, rodata_base);
  define_data_syms(data, data_base);
  define_data_syms(bss, bss_base);
  define_data_syms(extable, extable_base);

  {
    int32_t t = symbols.Intern("_text", SymbolKind::kData);
    symbols.at(t).defined = true;
    symbols.at(t).address = layout == LayoutKind::kKrx ? kKrxCodeBase : text_base;
    int32_t e = symbols.Intern("_krx_edata", SymbolKind::kData);
    symbols.at(e).defined = true;
    symbols.at(e).address = edata;
  }

  // ---- Apply relocations. ----
  KRX_RETURN_IF_ERROR(ApplyRelocs(input.text.bytes, input.text.relocs, text_base, symbols));
  KRX_RETURN_IF_ERROR(ApplyRelocs(rodata.bytes, rodata.relocs, rodata_base, symbols));
  KRX_RETURN_IF_ERROR(ApplyRelocs(data.bytes, data.relocs, data_base, symbols));
  KRX_RETURN_IF_ERROR(ApplyRelocs(extable.bytes, extable.relocs, extable_base, symbols));

  // ---- Place sections. ----
  std::vector<uint8_t> empty;
  if (layout == LayoutKind::kKrx) {
    uint64_t guard = kKrxCodeBase - guard_base;
    auto g = image->PlaceSection(".krx_phantom", SectionKind::kPhantomGuard, guard_base, empty,
                                 guard);
    if (!g.ok()) {
      return g.status();
    }
  }
  if (!input.xkeys.empty()) {
    auto s = image->PlaceSection(".krx_xkeys", SectionKind::kXkeys, xkeys_base, input.xkeys);
    if (!s.ok()) {
      return s.status();
    }
  }
  if (!extable.bytes.empty()) {
    auto s2 = image->PlaceSection("__ex_table", SectionKind::kExTable, extable_base,
                                  extable.bytes);
    if (!s2.ok()) {
      return s2.status();
    }
  }
  auto t = image->PlaceSection(".text", SectionKind::kText, text_base, input.text.bytes);
  if (!t.ok()) {
    return t.status();
  }
  if (!rodata.bytes.empty()) {
    auto s = image->PlaceSection(".rodata", SectionKind::kRodata, rodata_base, rodata.bytes);
    if (!s.ok()) {
      return s.status();
    }
  }
  if (!data.bytes.empty()) {
    auto s = image->PlaceSection(".data", SectionKind::kData, data_base, data.bytes);
    if (!s.ok()) {
      return s.status();
    }
  }
  if (bss.bss_size > 0) {
    auto s = image->PlaceSection(".bss", SectionKind::kBss, bss_base, empty, bss.bss_size);
    if (!s.ok()) {
      return s.status();
    }
  }

  image->set_krx_edata(edata);
  if (layout == LayoutKind::kKrx) {
    image->UnmapCodeSynonyms();
  }
  image->symbols() = std::move(symbols);
  return image;
}

}  // namespace krx
