#include "src/rerand/rerand_map.h"

#include <algorithm>

#include "src/isa/encoding.h"
#include "src/isa/instruction.h"

namespace krx {
namespace {

constexpr const char* kXkeyPrefix = "xkey$";

}  // namespace

Result<std::shared_ptr<const PristineText>> CapturePristineText(TextBlob captured) {
  auto pristine = std::make_shared<PristineText>();
  static_cast<TextBlob&>(*pristine) = std::move(captured);
  const TextBlob& blob = *pristine;

  // Return sites: decode each extent. Sizes are operand-independent, so
  // unapplied relocations do not perturb the decode walk; an operand field
  // that happens to hold a placeholder still decodes with the correct size
  // and opcode.
  pristine->return_sites.reserve(blob.functions.size());
  for (const AssembledFunction& fn : blob.functions) {
    std::vector<uint64_t>& sites = pristine->return_sites.emplace_back();
    uint64_t off = fn.offset;
    const uint64_t end = fn.offset + fn.size;
    while (off < end) {
      auto dec = DecodeInstruction(blob.bytes.data(), blob.bytes.size(), off);
      if (!dec.ok()) {
        // Alignment padding inside the extent would be a build bug; surface it.
        return InternalError("RerandMap: undecodable byte at pristine offset " +
                             std::to_string(off) + " in " + fn.name + ": " +
                             dec.status().message());
      }
      off += dec->size;
      if (dec->inst.IsCall()) {
        sites.push_back(off - fn.offset);
      }
    }
  }

  // Every text relocation must fall inside some function extent, or an epoch
  // could not shift it with its function. Over the extents sorted by start,
  // a relocation's owner is the last extent starting at or before its field,
  // and the field must end inside it.
  std::vector<uint32_t> by_start(blob.functions.size());
  for (uint32_t i = 0; i < by_start.size(); ++i) by_start[i] = i;
  auto end_of = [&](uint32_t i) { return blob.functions[i].offset + blob.functions[i].size; };
  std::sort(by_start.begin(), by_start.end(), [&](uint32_t a, uint32_t b) {
    return std::make_pair(blob.functions[a].offset, end_of(a)) <
           std::make_pair(blob.functions[b].offset, end_of(b));
  });
  pristine->reloc_owners.reserve(blob.relocs.size());
  for (const Reloc& r : blob.relocs) {
    auto after = std::upper_bound(
        by_start.begin(), by_start.end(), r.field_offset,
        [&](uint64_t field, uint32_t i) { return field < blob.functions[i].offset; });
    if (after == by_start.begin() || end_of(*std::prev(after)) < r.field_offset + 4) {
      return InternalError("RerandMap: text reloc at blob offset " +
                           std::to_string(r.field_offset) +
                           " lies outside every function extent");
    }
    pristine->reloc_owners.push_back(*std::prev(after));
  }
  return std::shared_ptr<const PristineText>(std::move(pristine));
}

Status RerandMap::Finalize(const KernelImage& image) {
  if (finalized) {
    return FailedPreconditionError("RerandMap already finalized");
  }
  if (pristine == nullptr) {
    return FailedPreconditionError("RerandMap: no pristine blob captured");
  }
  if (pristine->return_sites.size() != pristine->functions.size()) {
    return FailedPreconditionError("RerandMap: pristine blob lacks its return sites");
  }
  const PlacedSection* text = image.FindSection(".text");
  if (text == nullptr) {
    return NotFoundError("RerandMap: image has no .text section");
  }
  if (text->size != pristine->bytes.size()) {
    return InternalError("RerandMap: pristine blob size " +
                         std::to_string(pristine->bytes.size()) +
                         " != linked .text content size " + std::to_string(text->size));
  }
  text_base = text->vaddr;
  text_content_size = text->size;
  text_mapped_size = text->mapped_size;

  const SymbolTable& syms = image.symbols();

  // Function extents. The initial layout is the pristine layout: the link
  // placed each function at its blob offset.
  functions.clear();
  functions.reserve(pristine->functions.size());
  for (size_t i = 0; i < pristine->functions.size(); ++i) {
    const AssembledFunction& fn = pristine->functions[i];
    RerandFunction rf;
    rf.name = fn.name;
    rf.symbol = syms.Find(fn.name);
    if (rf.symbol < 0 || !syms.at(rf.symbol).defined) {
      return NotFoundError("RerandMap: no defined symbol for function " + fn.name);
    }
    rf.pristine_offset = fn.offset;
    rf.size = fn.size;
    rf.current_offset = fn.offset;
    rf.return_sites = pristine->return_sites[i];
    functions.push_back(std::move(rf));
  }

  // Xkey slots: every defined data symbol named xkey$<fn>. Absent when the
  // build did not enable return-address encryption.
  xkey_slots.clear();
  for (size_t i = 0; i < syms.size(); ++i) {
    const Symbol& s = syms.at(static_cast<int32_t>(i));
    if (!s.defined || s.name.rfind(kXkeyPrefix, 0) != 0) continue;
    RerandXkeySlot slot;
    slot.key_symbol = static_cast<int32_t>(i);
    slot.vaddr = s.address;
    slot.fn_name = s.name.substr(std::string(kXkeyPrefix).size());
    slot.fn_symbol = syms.Find(slot.fn_name);
    xkey_slots.push_back(std::move(slot));
  }

  // Pointer sites: resolve object-relative slots to absolute addresses.
  ptr_sites.clear();
  ptr_sites.reserve(pending_ptr_sites.size());
  for (const PendingPtrSite& p : pending_ptr_sites) {
    auto base = syms.AddressOf(p.object);
    if (!base.ok()) {
      return NotFoundError("RerandMap: pointer-slot owner " + p.object +
                           " has no linked address");
    }
    RerandPtrSite site;
    site.vaddr = *base + p.offset;
    site.symbol = p.symbol;
    site.addend = p.addend;
    site.object = p.object;
    site.offset = p.offset;
    ptr_sites.push_back(std::move(site));
  }
  pending_ptr_sites.clear();

  finalized = true;
  return Status::Ok();
}

}  // namespace krx
