#include "src/kernel/module_loader.h"

#include "src/base/math_util.h"
#include "src/kernel/assembler.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace krx {

const char* ModuleLoadStepName(ModuleLoadStep step) {
  switch (step) {
    case ModuleLoadStep::kAllocText: return "alloc-text";
    case ModuleLoadStep::kAllocData: return "alloc-data";
    case ModuleLoadStep::kBindSymbols: return "bind-symbols";
    case ModuleLoadStep::kRelocate: return "relocate";
    case ModuleLoadStep::kPlaceText: return "place-text";
    case ModuleLoadStep::kPlaceData: return "place-data";
    case ModuleLoadStep::kReplenishXkeys: return "replenish-xkeys";
    case ModuleLoadStep::kUnmapSynonyms: return "unmap-synonyms";
    case ModuleLoadStep::kNumSteps: break;
  }
  return "??";
}

Status ModuleLoader::Teardown(const LoadedModule& lm, const Placed& placed) {
  // Zap the text contents before the pages become reachable again, to
  // prevent code-layout inference attacks (§5.1.1 "Physmap"): unmap the
  // module's text from the code region, fill the frames with the tripwire
  // pad byte, and drop the section record.
  if (placed.text) {
    KRX_RETURN_IF_ERROR(image_->RemoveSection(".text$" + lm.name, kTextPadByte));
    // Destroy the key material outright: the xkey tail is zeroed, not
    // merely padded, so no stale return-address keys survive.
    if (lm.xkey_bytes > 0) {
      const uint64_t xkeys_start = lm.text_size - lm.xkey_bytes;
      image_->phys().Fill((lm.text_first_frame << kPageShift) + xkeys_start, 0, lm.xkey_bytes);
    }
  }
  // The data section goes away with the module as well.
  if (placed.data) {
    KRX_RETURN_IF_ERROR(image_->RemoveSection(".data$" + lm.name, 0));
  }
  // Restore the physmap synonyms of the (now zapped) text frames.
  if (placed.synonyms_unmapped) {
    PteFlags f;
    f.present = true;
    f.writable = true;
    f.nx = true;
    image_->page_table().MapRange(image_->PhysmapVaddr(lm.text_first_frame), lm.text_first_frame,
                                  lm.text_pages, f);
  }
  // Remove the module's symbols from the namespace.
  for (int32_t idx : lm.symbols) {
    Symbol& s = image_->symbols().at(idx);
    s.defined = false;
    s.address = 0;
    s.size = 0;
  }
  return Status::Ok();
}

Result<int32_t> ModuleLoader::Load(const ModuleObject& module) {
  SymbolTable& symbols = image_->symbols();

  KRX_TRACE_SPAN_SCOPED("module.load");
  // `lm` and `placed` grow with the load, so a failure at any step tears
  // down exactly what was placed so far (as Unload would) and gives the
  // bump cursors back.
  const KernelImage::ModuleCursors saved_cursors = image_->module_cursors();
  LoadedModule lm;
  lm.name = module.name;
  Placed placed;

  auto fail = [&](Status status) -> Status {
    (void)Teardown(lm, placed);
    image_->RestoreModuleCursors(saved_cursors);
    KRX_COUNTER_ADD("module.load_failures", 1);
    return status;
  };
  auto failpoint = [&](ModuleLoadStep step) -> Status {
    if (failpoint_ == static_cast<int>(step)) {
      return ResourceExhaustedError(std::string("injected module-load fault before step ") +
                                    ModuleLoadStepName(step));
    }
    return Status::Ok();
  };

  // Slice: .text into the text area, all other sections into the data area.
  if (Status s = failpoint(ModuleLoadStep::kAllocText); !s.ok()) {
    return fail(s);
  }
  auto text_vaddr = image_->AllocModuleText(module.text.bytes.size());
  if (!text_vaddr.ok()) {
    return fail(text_vaddr.status());
  }

  // Build a single data blob for the module's data objects.
  std::vector<uint8_t> data_bytes;
  std::vector<Reloc> data_relocs;
  std::vector<std::pair<int32_t, uint64_t>> data_syms;
  for (const DataObject& obj : module.data_objects) {
    uint64_t off = AlignUp(data_bytes.size(), 16);
    data_bytes.resize(off, 0);
    data_syms.emplace_back(symbols.Intern(obj.name, SymbolKind::kData), off);
    data_bytes.insert(data_bytes.end(), obj.bytes.begin(), obj.bytes.end());
    for (const DataObject::PtrInit& p : obj.pointer_slots) {
      data_relocs.push_back(Reloc{RelocKind::kAbs64, off + p.offset, 0, p.symbol, p.addend});
    }
  }
  if (Status s = failpoint(ModuleLoadStep::kAllocData); !s.ok()) {
    return fail(s);
  }
  auto data_vaddr = image_->AllocModuleData(std::max<uint64_t>(data_bytes.size(), 1));
  if (!data_vaddr.ok()) {
    return fail(data_vaddr.status());
  }

  lm.text_vaddr = *text_vaddr;
  lm.text_size = module.text.bytes.size();
  lm.data_vaddr = *data_vaddr;
  lm.data_size = data_bytes.size();
  lm.xkey_bytes = module.xkey_bytes;
  // Retained for re-randomization epochs: an epoch that moves kernel
  // functions re-patches these sites in place (see src/rerand/engine.h).
  lm.text_relocs = module.text.relocs;
  lm.data_relocs = data_relocs;

  if (Status s = failpoint(ModuleLoadStep::kBindSymbols); !s.ok()) {
    return fail(s);
  }
  auto define = [&](int32_t idx, uint64_t address, uint64_t size) -> Status {
    Symbol& s = symbols.at(idx);
    if (s.defined) {
      return AlreadyExistsError("module redefines symbol: " + s.name);
    }
    s.defined = true;
    s.address = address;
    s.size = size;
    lm.symbols.push_back(idx);
    return Status::Ok();
  };
  // Non-function text symbols (module xkeys) first.
  for (auto [idx, off] : module.text_symbol_offsets) {
    if (Status s = define(idx, *text_vaddr + off, 8); !s.ok()) {
      return fail(s);
    }
  }
  // Define this module's symbols (eager binding: everything resolved now).
  for (const AssembledFunction& f : module.text.functions) {
    int32_t idx = symbols.Intern(f.name, SymbolKind::kFunction);
    if (Status s = define(idx, *text_vaddr + f.offset, f.size); !s.ok()) {
      return fail(s);
    }
  }
  for (auto [idx, off] : data_syms) {
    if (Status s = define(idx, *data_vaddr + off, 0); !s.ok()) {
      return fail(s);
    }
  }

  // Relocate against the now-complete symbol table.
  if (Status s = failpoint(ModuleLoadStep::kRelocate); !s.ok()) {
    return fail(s);
  }
  std::vector<uint8_t> text_bytes = module.text.bytes;
  if (Status s = ApplyRelocs(text_bytes, module.text.relocs, *text_vaddr, symbols); !s.ok()) {
    return fail(s);
  }
  if (Status s = ApplyRelocs(data_bytes, data_relocs, *data_vaddr, symbols); !s.ok()) {
    return fail(s);
  }

  // Place into memory.
  if (Status s = failpoint(ModuleLoadStep::kPlaceText); !s.ok()) {
    return fail(s);
  }
  auto text_sec = image_->PlaceSection(".text$" + module.name, SectionKind::kText, *text_vaddr,
                                       text_bytes);
  if (!text_sec.ok()) {
    return fail(text_sec.status());
  }
  placed.text = true;
  lm.text_first_frame = (*text_sec)->first_frame;
  lm.text_pages = (*text_sec)->mapped_size >> kPageShift;
  if (!data_bytes.empty()) {
    if (Status s = failpoint(ModuleLoadStep::kPlaceData); !s.ok()) {
      return fail(s);
    }
    auto data_sec = image_->PlaceSection(".data$" + module.name, SectionKind::kData,
                                         *data_vaddr, data_bytes);
    if (!data_sec.ok()) {
      return fail(data_sec.status());
    }
    placed.data = true;
  }

  // Replenish the module's xkeys with fresh random values (load-time
  // analogue of the boot-time kernel xkey replenishment, §5.2.2).
  if (module.xkey_bytes > 0) {
    if (Status s = failpoint(ModuleLoadStep::kReplenishXkeys); !s.ok()) {
      return fail(s);
    }
    uint64_t xkeys_start = lm.text_size - module.xkey_bytes;
    for (uint64_t off = 0; off + 8 <= module.xkey_bytes; off += 8) {
      uint64_t key = 0;
      while (key == 0) {
        key = key_rng_.Next();
      }
      if (Status s = image_->Poke64(*text_vaddr + xkeys_start + off, key); !s.ok()) {
        return fail(s);
      }
    }
  }

  // kR^X: remove the physmap synonyms of the module's text pages.
  if (image_->layout() == LayoutKind::kKrx) {
    if (Status s = failpoint(ModuleLoadStep::kUnmapSynonyms); !s.ok()) {
      return fail(s);
    }
    image_->page_table().UnmapRange(image_->PhysmapVaddr(lm.text_first_frame), lm.text_pages);
    placed.synonyms_unmapped = true;
  }

  lm.loaded = true;
  modules_.push_back(std::move(lm));
  const int32_t handle = static_cast<int32_t>(modules_.size() - 1);
  KRX_COUNTER_ADD("module.loads", 1);
  KRX_TRACE_EVENT(kModuleLoad, module.name, static_cast<uint64_t>(handle),
                  modules_.back().text_size);
  return handle;
}

Status ModuleLoader::Unload(int32_t handle) {
  if (handle < 0 || static_cast<size_t>(handle) >= modules_.size()) {
    return InvalidArgumentError("bad module handle");
  }
  LoadedModule& lm = modules_[static_cast<size_t>(handle)];
  if (!lm.loaded) {
    return FailedPreconditionError("module already unloaded");
  }

  KRX_RETURN_IF_ERROR(Teardown(lm, Placed{/*text=*/true, /*data=*/lm.data_size > 0,
                                           /*synonyms_unmapped=*/image_->layout() ==
                                               LayoutKind::kKrx}));
  lm.text_relocs.clear();
  lm.data_relocs.clear();
  lm.loaded = false;
  KRX_COUNTER_ADD("module.unloads", 1);
  KRX_TRACE_EVENT(kModuleUnload, lm.name, static_cast<uint64_t>(handle), 0);
  return Status::Ok();
}

}  // namespace krx
